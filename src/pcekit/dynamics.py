"""Markovian realizations of PCE channels.

Two physical routes to the same endpoint:

* Dissipative semigroups — each label contributes a Lindblad term
  ``gamma (P rho P - rho) / 2``.  The flow is diagonal in the Pauli basis:
  component ``r_g`` decays at rate ``sum_i gamma_i`` over the terms whose
  Pauli string anticommutes with ``g``, and is constant otherwise, so the
  exact propagator is a componentwise exponential.  The t -> infinity limit
  is the composed PCE channel of all the labels.
* Collision models — one ancilla qubit, reset to |0> between collisions;
  each collision applies a fixed system-ancilla unitary and traces the
  ancilla out, reproducing one elementary channel per collision.

Both routes keep exactly the components that commute with every label, and
one rule gives them: the mask ``generators.recompose(labels)``.
`pce_limit` and `fixed_point_components` read it from a process or a
schedule alike, so a process's t -> infinity state and a schedule's output
(the CLI's ``collide`` prints ``fixed_point_components(schedule, r0)``) come
from one function.  `collide` here runs the dense system-plus-ancilla circuit
and stays as the oracle for that mask.

Process JSON: ``{"terms": [{"alpha": "03", "gamma": 1.0}, ...]}``.
Schedule JSON: ``{"labels": ["03", "33"]}``.  Both take an optional ``"n"``
key, required when the label list is empty.  The loaders check only the
document's shape; the labels, and ``"n"`` against them, go through the one
rule for a label family (`pauli._labels`) in the constructors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dense import apply_pce, from_pauli_components, partial_trace, pauli_components
from .errors import DimensionMismatchError
from .generators import recompose
from .maps import PceMap
from .pauli import (
    DENSE_QUBIT_LIMIT,
    MultiIndex,
    _labels,
    check_qubits,
    parse_qubit_count,
    pauli_string_dense,
    symplectic_product_row,
)

__all__ = [
    "DissipativeProcess",
    "CollisionSchedule",
    "semigroup_apply",
    "decay_rates",
    "lindbladian_apply",
    "evolve_components",
    "evolve",
    "fixed_point_components",
    "pce_limit",
    "rk4_evolve",
    "collision_unitary",
    "collide",
    "process_from_json_dict",
    "process_to_json_dict",
    "schedule_from_json_dict",
    "schedule_to_json_dict",
]

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


@dataclass(frozen=True)
class DissipativeProcess:
    """A sum of Pauli-conjugation Lindblad terms with positive rates.

    ``labels`` are `MultiIndex` objects or base-4 strings, stored as a tuple
    of `MultiIndex` by the one rule for a label family (`pauli._labels`),
    which also checks ``n`` (None takes the first label's).
    """

    n: int
    labels: tuple[MultiIndex, ...]
    gammas: tuple[float, ...]

    def __post_init__(self) -> None:
        n, labels = _labels(self.labels, self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("process needs at least one term")
        if len(labels) != len(self.gammas):
            raise ValueError("labels and gammas must have equal length")
        if any(not 0 < g < math.inf for g in self.gammas):
            raise ValueError("all rates must be positive and finite")
        # No component decays faster than all terms together, so every decay
        # rate is finite.
        if not sum(self.gammas) < math.inf:
            raise ValueError("the rates must add up to a finite number")

    @classmethod
    def from_terms(cls, terms) -> "DissipativeProcess":
        """The process of an iterable of ``(label, gamma)`` pairs, read once."""
        pairs = tuple(terms)
        return cls(None, tuple(a for a, _ in pairs), tuple(float(g) for _, g in pairs))


@dataclass(frozen=True)
class CollisionSchedule:
    """An ordered list of collision labels (one reset ancilla per collision),
    `MultiIndex` objects or base-4 strings, stored as `DissipativeProcess`
    stores its labels."""

    n: int
    labels: tuple[MultiIndex, ...]

    def __post_init__(self) -> None:
        n, labels = _labels(self.labels, self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)


def semigroup_apply(
    label: MultiIndex, gamma: float, t: float, rho: np.ndarray
) -> np.ndarray:
    """One-parameter interpolation to the elementary channel.

    Returns ``(1 + e^(-gamma t))/2 rho + (1 - e^(-gamma t))/2 P rho P``,
    which is the identity at t = 0 and the elementary channel at t = inf.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"rate must be positive and finite, got {gamma}")
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    rho = np.asarray(rho, dtype=complex)
    sigma = pauli_string_dense(label)
    decay = np.exp(-gamma * t)
    return (1 + decay) / 2 * rho + (1 - decay) / 2 * (sigma @ rho @ sigma)


def decay_rates(proc: DissipativeProcess) -> np.ndarray:
    """Per-component decay rates: rate of ``r_g`` is the summed gamma of all
    terms anticommuting with ``g`` (0 for preserved components)."""
    rates = np.zeros(4**proc.n)
    for label, gamma in zip(proc.labels, proc.gammas):
        rates += gamma * symplectic_product_row(label)
    return rates


def lindbladian_apply(proc: DissipativeProcess, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation: ``sum gamma (P rho P - rho)/2``."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for label, gamma in zip(proc.labels, proc.gammas):
        sigma = pauli_string_dense(label)
        out += gamma / 2 * (sigma @ rho @ sigma - rho)
    return out


def evolve_components(
    proc: DissipativeProcess, r0: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Exact propagator in the Pauli basis: componentwise exponential decay.

    ``t`` is one time, or a 1-D array of times for one row per time (the
    decay rates are computed once).
    """
    times = np.asarray(t)
    if times.dtype.kind not in "iuf" or times.ndim > 1:
        raise ValueError(
            f"time must be a number or a 1-D array of numbers, got {times.ndim}-D {times.dtype}"
        )
    bad = ~((0 <= times) & (times < math.inf))
    if bad.any():
        raise ValueError(f"time must be nonnegative and finite, got {times[bad].flat[0]}")
    times = times.astype(float)
    r0 = np.asarray(r0, dtype=float)
    if r0.size != 4**proc.n:
        raise DimensionMismatchError(
            f"state has {r0.size} components, process expects {4**proc.n}"
        )
    # A product past the float range is -inf, and exp gives its exact 0.
    with np.errstate(over="ignore"):
        return r0 * np.exp(np.multiply.outer(-times, decay_rates(proc)))


def evolve(proc: DissipativeProcess, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact evolution of a density matrix (components route, then rebuild)."""
    return from_pauli_components(evolve_components(proc, pauli_components(rho0), t))


def fixed_point_components(
    proc: DissipativeProcess | CollisionSchedule, r0: np.ndarray
) -> np.ndarray:
    """The components that commute with every label, the ones `pce_limit`
    preserves; the rest are erased to 0.  For a process this is the
    t -> infinity limit (the zero-rate components), for a schedule its
    output.  Reads only ``.n`` and ``.labels``."""
    return apply_pce(pce_limit(proc), r0)


def rk4_evolve(
    proc: DissipativeProcess, rho0: np.ndarray, t: float, steps: int
) -> np.ndarray:
    """Classic fourth-order Runge-Kutta integration of the master equation.

    Exists as an independent cross-check of `evolve`; never used by it.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if not steps >= 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    rho = np.asarray(rho0, dtype=complex).copy()
    h = t / steps
    for _ in range(steps):
        k1 = lindbladian_apply(proc, rho)
        k2 = lindbladian_apply(proc, rho + h / 2 * k1)
        k3 = lindbladian_apply(proc, rho + h / 2 * k2)
        k4 = lindbladian_apply(proc, rho + h * k3)
        rho = rho + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def collision_unitary(label: MultiIndex) -> np.ndarray:
    """System-ancilla unitary of one collision (ancilla is the last qubit).

    Equals controlled-P (on ancilla = 1) after a Hadamard on the ancilla, so
    it sends ``|psi>|0>`` to ``(|psi>|0> + P|psi>|1>)/sqrt(2)`` and
    ``|psi>|1>`` to ``(|psi>|0> - P|psi>|1>)/sqrt(2)``.
    """
    check_qubits(label.n + 1, DENSE_QUBIT_LIMIT, "a collision (system plus ancilla)")
    dim = 2**label.n
    sigma = pauli_string_dense(label)
    controlled = np.kron(np.eye(dim, dtype=complex), _P0) + np.kron(sigma, _P1)
    return controlled @ np.kron(np.eye(dim, dtype=complex), _HADAMARD)


def collide(schedule: CollisionSchedule, rho: np.ndarray) -> np.ndarray:
    """Run the collision sequence with a single reset ancilla."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != 2**schedule.n:
        raise DimensionMismatchError(
            f"state dimension {rho.shape[0]} does not match n={schedule.n}"
        )
    system = list(range(1, schedule.n + 1))
    for label in schedule.labels:
        unitary = collision_unitary(label)
        extended = unitary @ np.kron(rho, _P0) @ unitary.conj().T
        rho = partial_trace(extended, system)
    return rho


def pce_limit(proc: DissipativeProcess | CollisionSchedule) -> PceMap:
    """The composition of the labels' elementary channels: a schedule's
    channel, and the channel a process reaches at t -> infinity, since every
    label's term has a positive rate.  Reads only ``.n`` and ``.labels``."""
    return recompose(proc.labels, proc.n)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def process_from_json_dict(doc: dict) -> DissipativeProcess:
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise ValueError('process document must be an object with a "terms" list')
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or "alpha" not in entry or "gamma" not in entry:
            raise ValueError('each term needs "alpha" and "gamma"')
        gamma = entry["gamma"]
        # A JSON number (not a bool) within float range; the sign and NaN are
        # left to DissipativeProcess.
        if type(gamma) not in (int, float) or abs(gamma) > sys.float_info.max:
            raise ValueError(f'"gamma" must be a positive finite number, got {gamma!r}')
    n = parse_qubit_count(doc["n"]) if "n" in doc else None
    labels = tuple(entry["alpha"] for entry in doc["terms"])
    return DissipativeProcess(n, labels, tuple(float(entry["gamma"]) for entry in doc["terms"]))


def process_to_json_dict(proc: DissipativeProcess) -> dict:
    return {
        "n": proc.n,
        "terms": [
            {"alpha": label.to_string(), "gamma": gamma}
            for label, gamma in zip(proc.labels, proc.gammas)
        ],
    }


def schedule_from_json_dict(doc: dict) -> CollisionSchedule:
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), list):
        raise ValueError('schedule document must be an object with a "labels" list')
    n = parse_qubit_count(doc["n"]) if "n" in doc else None
    return CollisionSchedule(n, tuple(doc["labels"]))


def schedule_to_json_dict(schedule: CollisionSchedule) -> dict:
    return {
        "n": schedule.n,
        "labels": [label.to_string() for label in schedule.labels],
    }
