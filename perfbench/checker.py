"""Independent checks of pcekit's outputs.

Every check returns ``None`` when the output is right and a short reason when
it is wrong.  None of them imports pcekit: expected values come from the
seeded inputs and from closed forms (see `inputs`), never from the code path
being checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .inputs import (
    Channel,
    anticommutes,
    bitmask,
    closed_form_spectrum,
    from_base4,
    gaussian_binomial,
    rank,
    reduce,
)

TOL = 1e-9


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def _exit(result: CliResult, expected: int) -> str | None:
    if result.code != expected:
        return f"exit code {result.code}, expected {expected}: {result.err.strip()[:200]}"
    return None


def _json(result: CliResult):
    try:
        return json.loads(result.out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_report(ch: Channel, result: CliResult) -> str | None:
    """`pcekit --format json check` on a seeded channel or near-channel."""
    problem = _exit(result, 0 if ch.is_channel else 1)
    doc, bad = _json(result)
    if problem or bad:
        return problem or bad
    n, K = ch.n, ch.K
    if doc.get("n") != n or doc.get("is_pce") is not True:
        return "wrong n or is_pce"
    if doc.get("is_channel") is not ch.is_channel:
        return f"is_channel {doc.get('is_channel')}, expected {ch.is_channel}"
    popcount = 2**K if ch.is_channel else len(ch.preserved)
    if doc.get("popcount") != popcount:
        return f"popcount {doc.get('popcount')}, expected {popcount}"
    if ch.is_channel and doc.get("K") != K:
        return f"K {doc.get('K')}, expected {K}"
    if not ch.is_channel:
        problem = _check_witness(ch, doc.get("witness"))
        if problem:
            return problem
    if n > 13:
        return "spectrum reported beyond n = 13" if "spectrum" in doc else None
    problem = _check_spectrum(ch, doc.get("spectrum"))
    if problem:
        return problem
    oracle = doc.get("oracle")
    if n <= 3:
        if not oracle or oracle.get("cp") is not ch.is_channel or oracle.get("agrees") is not True:
            return f"dense oracle report {oracle}"
        expected_min = float(closed_form_spectrum(n, K)[0][0]) if ch.is_channel else None
        if expected_min is not None and abs(oracle["lambda_min"] - expected_min) > 1e-6:
            return f"oracle lambda_min {oracle['lambda_min']}, expected {expected_min}"
    elif oracle is not None:
        return "dense oracle reported beyond n = 3"
    return None


def _check_witness(ch: Channel, witness) -> str | None:
    if not witness:
        return "near-channel reported without a witness"
    a, b = (from_base4(s) for s in witness["pair"])
    missing = from_base4(witness["missing"])
    if a not in ch.preserved or b not in ch.preserved:
        return f"witness pair {witness['pair']} is not preserved"
    if a ^ b != missing or missing in ch.preserved:
        return f"witness {witness} does not sum to an erased index"
    return None


def _check_spectrum(ch: Channel, spectrum) -> str | None:
    if not spectrum:
        return "spectrum missing"
    values = [(Fraction(v["value"]), v["count"]) for v in spectrum["values"]]
    if Fraction(spectrum["sum"]) != 2**ch.n:
        return f"lambda_sum {spectrum['sum']}, expected {2**ch.n}"
    if ch.is_channel:
        expected = closed_form_spectrum(ch.n, ch.K)
        if values != expected:
            return f"spectrum {values[:3]}, expected closed form {expected}"
    elif not Fraction(spectrum["min"]) < 0:
        return f"non-closed map has lambda_min {spectrum['min']}, expected < 0"
    if sum(c for _, c in values) != 4**ch.n or Fraction(spectrum["min"]) != values[0][0]:
        return "spectrum counts or minimum inconsistent"
    return None


def check_labels(ch: Channel, labels: list[int]) -> str | None:
    """Labels recompose to ``ch``: 2n - K independent labels that commute
    with every basis vector, so their symplectic complement is the channel."""
    n = ch.n
    if len(labels) != 2 * n - ch.K or rank(labels) != len(labels):
        return f"{len(labels)} labels of rank {rank(labels)}, expected {2 * n - ch.K}"
    for label in labels:
        for v in ch.basis:
            if anticommutes(label, v, n):
                return f"label {label} anticommutes with a preserved index"
    return None


def check_decompose(ch: Channel, result: CliResult) -> str | None:
    """`pcekit --format json decompose`; a near-channel must be refused."""
    if not ch.is_channel:
        problem = _exit(result, 1)
        if problem:
            return problem
        return None if "not closed" in result.err else f"refusal message {result.err!r}"
    problem = _exit(result, 0)
    doc, bad = _json(result)
    if problem or bad:
        return problem or bad
    if doc.get("recompose_check") != "OK" or doc.get("n") != ch.n:
        return f"recompose_check {doc.get('recompose_check')}"
    return check_labels(ch, [from_base4(s) for s in doc["labels"]])


def check_bitmask(tau: int, n: int, result) -> str | None:
    if result.n != n or result.tau != tau:
        return "returned bitmask differs from the input"
    return None


def check_reflections(ch: Channel, k: int, result) -> str | None:
    """One reflection permutes indices by XOR with digit 3 at qubit k; two
    give back the input."""
    once, twice = result
    flip = 3 << (2 * (k - 1))
    problem = check_bitmask(bitmask((f ^ flip for f in ch.preserved), ch.n), ch.n, once)
    return problem or check_bitmask(ch.tau, ch.n, twice)


def check_intersection(a: Channel, b: Channel, basis: tuple[int, ...]) -> str | None:
    """compose of two subspaces: dim(A) + dim(B) - dim(A + B) vectors, all in
    both spans."""
    expected = a.K + b.K - rank(a.basis + b.basis)
    if len(basis) != expected or rank(basis) != expected:
        return f"intersection has {len(basis)} vectors, expected dimension {expected}"
    pa = {}
    pb = {}
    for v in a.basis:
        r = reduce(v, pa)
        pa[r.bit_length() - 1] = r
    for v in b.basis:
        r = reduce(v, pb)
        pb[r.bit_length() - 1] = r
    if any(reduce(v, pa) or reduce(v, pb) for v in basis):
        return "intersection vector outside an input span"
    return None


def check_census(n: int, result: CliResult) -> str | None:
    problem = _exit(result, 0)
    doc, bad = _json(result)
    if problem or bad:
        return problem or bad
    expected = {str(K): gaussian_binomial(2 * n, K) for K in range(2 * n + 1)}
    if doc.get("per_K") != expected or doc.get("total") != sum(expected.values()):
        return f"per_K {doc.get('per_K')}, expected {expected}"
    if doc.get("enumerated") != expected or doc.get("formula_matches_enumeration") is not True:
        return "formula and enumeration do not match"
    return None if doc.get("symmetric") is True else "table not symmetric"


def closed_64(mask: int) -> bool:
    """Whether the set bits of a 3-qubit map form a subspace containing 0."""
    count = mask.bit_count()
    if not mask & 1 or count & (count - 1):
        return False
    return 1 << rank(f for f in range(64) if (mask >> f) & 1) == count


def check_verify(result: CliResult, n: int, samples: int | None, seed: int | None) -> str | None:
    """`pcekit verify`: zero disagreements and the right number of channels.

    Exhaustively every subspace is a channel; sampled masks are redrawn here
    from the same numpy generator and judged by `closed_64`.
    """
    problem = _exit(result, 0)
    doc, bad = _json(result)
    if problem or bad:
        return problem or bad
    if samples is None:
        checked = 2 ** (4**n - 1)
        channels = sum(gaussian_binomial(2 * n, K) for K in range(2 * n + 1))
    else:
        checked = samples
        draws = np.random.default_rng(seed).integers(0, 2**64, size=samples, dtype=np.uint64)
        channels = sum(closed_64(int(d) | 1) for d in draws)
    if doc.get("maps_checked") != checked or doc.get("disagreements") != 0:
        return f"checked {doc.get('maps_checked')} with {doc.get('disagreements')} disagreements"
    if doc.get("cp_symbolic") != channels or doc.get("cp_oracle") != channels:
        return f"cp counts {doc.get('cp_symbolic')}/{doc.get('cp_oracle')}, expected {channels}"
    return None if doc.get("verdict") == "PASS" else "verdict not PASS"


def check_ascii(ch: Channel, result: CliResult) -> str | None:
    """Documented layout: row = qubit-1 digit, column = qubit-2 digit, and
    at n = 3 an inner strip over the qubit-3 digit."""
    problem = _exit(result, 0)
    if problem:
        return problem
    n = ch.n

    def cell(f: int) -> str:
        return "#" if f in ch.preserved else "."

    if n == 1:
        rows = [cell(a) for a in range(4)]
    elif n == 2:
        rows = ["".join(cell(r + 4 * c) for c in range(4)) for r in range(4)]
    else:
        rows = [
            " ".join("".join(cell(r + 4 * c + 16 * i) for i in range(4)) for c in range(4))
            for r in range(4)
        ]
    return None if result.out == "\n".join(rows) + "\n" else "ascii diagram differs"


def check_svg(ch: Channel, result: CliResult) -> str | None:
    problem = _exit(result, 0)
    if problem:
        return problem
    out = result.out
    if not out.startswith("<?xml") or not out.endswith("</svg>\n"):
        return "not an svg document"
    if out.count("<rect ") != 4**ch.n or out.count('fill="#000000"') != len(ch.preserved):
        return "svg cell counts differ"
    return None


def rates(n: int, terms: list[tuple[int, float]]) -> np.ndarray:
    """Decay rate of every component: summed gamma of anticommuting labels."""
    out = np.zeros(4**n)
    for label, gamma in terms:
        out += gamma * np.array([anticommutes(label, f, n) for f in range(4**n)])
    return out


def check_evolve(n, terms, r0, t, steps, result: CliResult) -> str | None:
    """Trajectory rows equal r0 * exp(-t * rate), then the fixed-point line."""
    problem = _exit(result, 0)
    if problem:
        return problem
    lines = result.out.split("\n")
    size = 4**n
    if lines[0] != "t,alpha,r" or len(lines) != (steps + 1) * size + 3 or lines[-1] != "":
        return "trajectory has the wrong shape"
    table = np.array([row.split(",") for row in lines[1:-2]], dtype=float)
    decay = rates(n, terms)
    r0 = np.asarray(r0)
    times = np.repeat([t * i / steps for i in range(steps + 1)], size)
    expected = np.tile(r0, steps + 1) * np.exp(-times * np.tile(decay, steps + 1))
    if not np.array_equal(table[:, 1], np.tile(np.arange(size), steps + 1)):
        return "component indices out of order"
    if not np.allclose(table[:, 0], times, rtol=TOL, atol=TOL):
        return "sample times differ"
    if not np.allclose(table[:, 2], expected, rtol=TOL, atol=TOL):
        return "components differ from the closed-form decay"
    tail = lines[-2]
    prefix = "# max_abs_distance_to_fixed_point = "
    distance = float(np.abs(expected[-size:] - r0 * (decay == 0)).max())
    if not tail.startswith(prefix) or not math.isclose(
        float(tail[len(prefix):]), distance, rel_tol=TOL, abs_tol=TOL
    ):
        return f"fixed-point line {tail!r}, expected distance {distance}"
    return None


def check_collide(n, labels, r0, result: CliResult) -> str | None:
    """Each collision keeps the components commuting with its label."""
    problem = _exit(result, 0)
    if problem:
        return problem
    lines = result.out.split("\n")
    if lines[0] != f"n: {n}" or len(lines) != 4**n + 2:
        return "collide output has the wrong shape"
    values = np.array([float(line.split(" ")[1]) for line in lines[1:-1]])
    keep = np.array([not any(anticommutes(a, f, n) for a in labels) for f in range(4**n)])
    if not np.allclose(values, np.asarray(r0) * keep, rtol=TOL, atol=TOL):
        return "components differ from the kept set"
    return None


@dataclass
class EnumerationSweep:
    """Checks the pages of one pass over every n-qubit channel.

    Within each K the stream must follow the documented order, (pivot set
    ascending, then rows), strictly; every basis must be canonical RREF; and
    the count per K must equal the Gaussian binomial.
    """

    n: int
    K: int = -1
    last: tuple = ()
    counts: dict = field(default_factory=dict)

    def check_page(self, page, final: bool) -> str | None:
        groups: dict[int, list] = {}
        for s in page:
            if s.n != self.n:
                return f"subspace with n={s.n}"
            groups.setdefault(len(s.basis), []).append(tuple(s.basis))
        for K in sorted(groups):
            if K < self.K or list(groups) != sorted(groups):
                return "dimensions out of order"
            if K != self.K:
                self.K, self.last = K, ()
            problem = self._check_rows(K, groups[K])
            if problem:
                return problem
            self.counts[K] = self.counts.get(K, 0) + len(groups[K])
        if final:
            expected = {K: gaussian_binomial(2 * self.n, K) for K in range(2 * self.n + 1)}
            if self.counts != expected:
                return f"counts per K {self.counts}, expected {expected}"
        return None

    def _check_rows(self, K: int, bases: list[tuple]) -> str | None:
        if K == 0:
            return None if len(bases) == 1 and not self.last else "zero subspace repeated"
        rows = np.array(bases, dtype=np.int64)
        pivots = np.floor(np.log2(rows)).astype(np.int64)
        if (rows <= 0).any() or (pivots[:, :-1] <= pivots[:, 1:]).any():
            return "pivots not strictly descending"
        cover = rows[:, None, :] & (1 << pivots)[:, :, None]
        if (cover[:, ~np.eye(K, dtype=bool)] != 0).any():
            return "basis is not reduced"
        keys = np.concatenate([pivots[:, ::-1], rows], axis=1)
        if self.last:
            keys = np.concatenate([np.array([self.last]), keys])
        step = np.diff(keys, axis=0)
        moved = step != 0
        first = moved.argmax(axis=1)
        if not (moved.any(axis=1) & (step[np.arange(len(step)), first] > 0)).all():
            return "stream not strictly increasing"
        self.last = tuple(int(x) for x in keys[-1])
        return None
