"""Pauli-component-erasing (PCE) maps, their subspaces, and Choi spectra.

A PCE map on ``n`` qubits multiplies each Pauli component ``r_f`` of a state
by a binary factor ``tau_f``.  Here ``tau`` is kept as a Python int bitmask:
bit ``f`` (flat multi-index ``f``) is set iff component ``f`` is preserved.
A trace-preserving PCE map fixes the normalization component, ``tau_0 = 1``;
it is a channel (completely positive) exactly when the preserved index set is
closed under componentwise Klein addition, i.e. forms a GF(2) subspace.

Channels therefore have two interchangeable forms: the bitmask (`PceMap`,
materialized up to ``n <= 13``) and the subspace basis (`Subspace`, canonical
RREF over GF(2)^(2n), usable up to ``n <= 16``).  A `Subspace` always denotes
a valid channel; a `PceMap` may hold any candidate bitmask, including
non-closed and non-trace-preserving ones, so that verdict functions have
something to judge.

The Choi eigenvalue attached to flat index ``f`` is
``lambda_f = 2**-n * sum_g sign(f, g) * tau_g`` with ``sign`` the +-1
conjugation-sign matrix; `ChoiSpectrum` stores the integer numerators over
the fixed denominator ``2**n``, so the symbolic path is exact.

JSON interchange form (shared with the CLI)::

    {"n": 2, "preserved": ["00", "02", "11", "13"]}   # base-4, qubit 1 first
    {"n": 2, "basis": ["0101", "1011"]}               # bits (j_1..j_n k_1..k_n)

Both are accepted on input; output uses "basis" for channels and "preserved"
for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .errors import NotAChannelError, TracePreservationError
from .pauli import (
    TAU_QUBIT_LIMIT,
    MultiIndex,
    _base4_code,
    _check_same_n,
    check_qubits,
    parse_qubit_count,
    sign_transform,
)

__all__ = [
    "TAU_QUBIT_LIMIT",
    "PceMap",
    "Subspace",
    "ChoiSpectrum",
    "choi_spectrum",
    "channel_spectrum",
    "tau_from_spectrum",
    "is_closed_subspace",
    "closure_witness",
    "is_completely_positive",
    "closure",
    "subspace_to_map",
    "map_to_subspace",
    "compose",
    "reflect",
    "load_channel_document",
    "dump_channel_document",
]


@dataclass(frozen=True)
class PceMap:
    """A candidate PCE map: ``n`` qubits and the preserved-component bitmask."""

    n: int
    tau: int

    def __post_init__(self) -> None:
        check_qubits(self.n, TAU_QUBIT_LIMIT, "the bitmask form")
        if self.tau < 0 or self.tau.bit_length() > 4**self.n:
            raise ValueError(f"tau bitmask out of range for n={self.n}")

    @classmethod
    def identity(cls, n: int) -> "PceMap":
        check_qubits(n, TAU_QUBIT_LIMIT, "the bitmask form")  # before 4**n bits
        return cls(n, (1 << 4**n) - 1)

    @classmethod
    def depolarizing(cls, n: int) -> "PceMap":
        return cls(n, 1)

    @classmethod
    def from_preserved(cls, n: int, indices) -> "PceMap":
        """Build from an iterable of preserved indices.

        Each index is a base-4 string of ``n`` digits (qubit 1 first), a
        `MultiIndex`, or a flat int.
        """
        flat = [
            _preserved_code(idx, n) if isinstance(idx, str)
            else idx.code if isinstance(idx, MultiIndex)
            else int(idx)
            for idx in indices
        ]
        return cls._from_flat(n, flat)

    @classmethod
    def _from_flat(cls, n: int, flat) -> "PceMap":
        """Build from a list or array of flat indices, each checked to be in range."""
        check_qubits(n, TAU_QUBIT_LIMIT, "the bitmask form")  # before 4**n bytes
        try:
            codes = np.asarray(flat, dtype=np.int64)
        except OverflowError:  # beyond int64, hence out of range; compare exactly
            codes = np.array(flat, dtype=object)
        outside = (codes < 0) | (codes >= 4**n)
        if outside.any():
            raise ValueError(f"flat index {flat[outside.argmax()]} out of range for n={n}")
        bits = np.zeros(4**n, dtype=np.uint8)
        bits[codes] = 1
        return cls.from_bits(n, bits)

    @classmethod
    def from_bits(cls, n: int, bits) -> "PceMap":
        """Inverse of `tau_vector`: build from a 0/1 array of length ``4**n``."""
        bits = np.asarray(bits)
        if bits.shape != (4**n,):
            raise ValueError(f"expected {4**n} bits for n={n}, got shape {bits.shape}")
        packed = np.packbits(bits, bitorder="little").tobytes()
        return cls(n, int.from_bytes(packed, "little"))

    @property
    def is_trace_preserving(self) -> bool:
        """Whether the normalization component is preserved (tau_0 = 1)."""
        return bool(self.tau & 1)

    @property
    def preserved_count(self) -> int:
        return self.tau.bit_count()

    def preserved_indices(self) -> list[int]:
        """Sorted flat indices of preserved components."""
        return np.flatnonzero(self.tau_vector().view(bool)).tolist()

    def preserved(self) -> list[MultiIndex]:
        return [MultiIndex(self.n, f) for f in self.preserved_indices()]

    def tau_vector(self) -> np.ndarray:
        """The bitmask as a uint8 0/1 array of length ``4**n``."""
        size = 4**self.n
        raw = np.frombuffer(self.tau.to_bytes((size + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, bitorder="little")[:size]


@dataclass(frozen=True)
class Subspace:
    """A GF(2) subspace of multi-index space — equivalently, a PCE channel.

    ``basis`` holds packed multi-index codes in canonical RREF form (pivots
    descending); the empty tuple is the zero subspace (totally depolarizing
    channel).  Canonical form is unique per subspace, so equality of
    `Subspace` values is equality of channels.
    """

    n: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        check_qubits(self.n)
        rows = list(self.basis)
        if any(not 0 < v < 4**self.n for v in rows):
            raise ValueError(f"basis vector out of range for n={self.n}")
        if gf2.rref(rows) != rows:
            raise ValueError("basis is not in canonical reduced row echelon form")

    @classmethod
    def _canonical(cls, n: int, basis: tuple[int, ...]) -> "Subspace":
        """Trusted constructor: ``basis`` must already be canonical RREF for a
        qubit count that passed `check_qubits`.  Nothing is checked."""
        subspace = object.__new__(cls)
        object.__setattr__(subspace, "n", n)
        object.__setattr__(subspace, "basis", basis)
        return subspace

    @classmethod
    def from_vectors(cls, n: int, vectors) -> "Subspace":
        """Span of arbitrary vectors (MultiIndex or packed int), canonicalized."""
        codes = [v.code if isinstance(v, MultiIndex) else int(v) for v in vectors]
        if any(not 0 <= c < 4**n for c in codes):
            raise ValueError(f"vector out of range for n={n}")
        return cls(n, tuple(gf2.rref(codes)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, idx: MultiIndex | int) -> bool:
        code = idx.code if isinstance(idx, MultiIndex) else int(idx)
        return gf2.in_span(code, list(self.basis))

    def members(self) -> list[int]:
        """All ``2**dim`` member codes, sorted ascending."""
        return gf2.span(list(self.basis))

    def basis_indices(self) -> list[MultiIndex]:
        return [MultiIndex(self.n, v) for v in self.basis]


@dataclass(frozen=True, eq=False)
class ChoiSpectrum:
    """Exact Choi eigenvalues: integer numerators over denominator ``2**n``.

    ``numerators[f]`` is the numerator of the eigenvalue attached to the
    vectorized Pauli string with flat index ``f``.
    """

    n: int
    numerators: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.numerators, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "numerators", arr)
        if arr.shape != (4**self.n,):
            raise ValueError(f"expected {4**self.n} numerators, got shape {arr.shape}")

    @property
    def denominator(self) -> int:
        return 2**self.n

    def value(self, f: int) -> Fraction:
        return Fraction(int(self.numerators[f]), self.denominator)

    def min_value(self) -> Fraction:
        return Fraction(int(self.numerators.min()), self.denominator)

    def sum_value(self) -> Fraction:
        return Fraction(int(self.numerators.sum()), self.denominator)

    def as_floats(self) -> np.ndarray:
        return self.numerators / float(self.denominator)

    def value_counts(self) -> list[tuple[Fraction, int]]:
        """Distinct eigenvalues with multiplicities, ascending by value."""
        values, counts = np.unique(self.numerators, return_counts=True)
        return [
            (Fraction(int(v), self.denominator), int(c))
            for v, c in zip(values, counts)
        ]

    @property
    def is_nonnegative(self) -> bool:
        return bool(self.numerators.min() >= 0)


def choi_spectrum(pce: PceMap) -> ChoiSpectrum:
    """Exact Choi eigenvalues of a PCE map, one per flat multi-index."""
    numerators = sign_transform(pce.tau_vector())
    return ChoiSpectrum(pce.n, numerators)


def channel_spectrum(n: int, K: int) -> list[tuple[Fraction, int]]:
    """Closed-form Choi spectrum of a channel with a K-dimensional preserved subspace.

    The eigenvalue ``2**(K - n)`` sits on the ``2**(2n - K)`` indices of the
    subspace's symplectic complement and 0 on the rest, so no 4**n array is
    built and any ``n <= N_MAX`` works.  Same shape as
    `ChoiSpectrum.value_counts` of ``subspace_to_map`` of such a channel:
    ``(value, multiplicity)`` pairs, ascending; K = 0 has no 0 entry.
    """
    check_qubits(n)
    if isinstance(K, bool) or not isinstance(K, int) or not 0 <= K <= 2 * n:
        raise ValueError(f"K must be an integer in 0..{2 * n}, got {K!r}")
    support = 1 << (2 * n - K)
    counts = [(Fraction(1 << K, 1 << n), support)]
    if support < 4**n:
        counts.insert(0, (Fraction(0), 4**n - support))
    return counts


def tau_from_spectrum(spectrum: ChoiSpectrum) -> PceMap:
    """Invert `choi_spectrum`; rejects spectra that are not 0/1 bitmasks.

    Raises:
        ValueError: if any recovered entry is outside {0, 1}; the message
            names the first offending flat index and its exact value.
    """
    scaled = sign_transform(spectrum.numerators)
    full = 4**spectrum.n
    bad = np.nonzero((scaled != 0) & (scaled != full))[0]
    if bad.size:
        f = int(bad[0])
        value = Fraction(int(scaled[f]), full)
        raise ValueError(
            f"not a PCE spectrum: recovered tau at flat index {f} is {value}, not 0/1"
        )
    return PceMap.from_bits(spectrum.n, scaled == full)


def _closed_basis(pce: PceMap) -> list[int] | None:
    """Canonical RREF basis of the preserved set; None if it is not closed.

    Listing a subspace's members in ascending order lists their RREF
    coordinates in ascending order too, so the member at position ``2**i`` is
    the basis row with the i-th lowest pivot.  The set is therefore closed
    iff it has ``2**K`` members and the span of those K rows is the set.
    One decode of tau, no elimination.

    Raises:
        TracePreservationError: if the normalization component is erased.
    """
    if not pce.is_trace_preserving:
        raise TracePreservationError("tau at the zero index is 0")
    count = pce.preserved_count
    K = count.bit_length() - 1
    if 1 << K != count:
        return None
    indices = np.flatnonzero(pce.tau_vector().view(bool))
    rows = [int(indices[1 << i]) for i in range(K)]
    if PceMap._from_flat(pce.n, _span(rows)) != pce:
        return None
    return rows[::-1]


def is_closed_subspace(pce: PceMap) -> bool:
    """Whether the preserved index set is a GF(2) subspace.

    Raises:
        TracePreservationError: if the normalization component is erased.
    """
    return _closed_basis(pce) is not None


def closure_witness(
    pce: PceMap,
) -> tuple[MultiIndex, MultiIndex, MultiIndex] | None:
    """First preserved pair whose sum is erased, with that sum; None if closed.

    Pairs are scanned in ascending flat-index order, so the witness is
    deterministic.
    """
    if pce.is_trace_preserving and _closed_basis(pce) is not None:
        return None
    indices = pce.preserved_indices()
    later, present = np.array(indices), pce.tau_vector()
    for i, a in enumerate(indices):
        erased = np.flatnonzero(present[later[i + 1 :] ^ a] == 0)
        if erased.size:
            b = indices[i + 1 + int(erased[0])]
            return MultiIndex(pce.n, a), MultiIndex(pce.n, b), MultiIndex(pce.n, a ^ b)
    return None


def is_completely_positive(pce: PceMap | Subspace) -> bool:
    """CP verdict: the subspace criterion.

    For the basis form this is vacuously true (a subspace is always closed);
    for the bitmask form it is `is_closed_subspace`.  Agrees with the dense
    Choi oracle and with ``min(choi_spectrum) >= 0`` wherever those are
    computable (enforced by the test suite).
    """
    if isinstance(pce, Subspace):
        return True
    return is_closed_subspace(pce)


def closure(n: int, seeds) -> Subspace:
    """GF(2) span of the given multi-indices, as a canonical subspace."""
    return Subspace.from_vectors(n, seeds)


def subspace_to_map(subspace: Subspace) -> PceMap:
    """Materialize the bitmask of a subspace channel (``n <= TAU_QUBIT_LIMIT``)."""
    check_qubits(subspace.n, TAU_QUBIT_LIMIT, "the bitmask form")
    return PceMap._from_flat(subspace.n, _span(subspace.basis))


def _span(basis) -> np.ndarray:
    """All ``2**len(basis)`` XOR combinations of the basis rows, unsorted."""
    members = np.zeros(1 << len(basis), dtype=np.int64)
    for i, b in enumerate(basis):
        np.bitwise_xor(members[: 1 << i], b, out=members[1 << i : 2 << i])
    return members


def map_to_subspace(pce: PceMap) -> Subspace:
    """Basis form of a channel bitmask.

    Raises:
        NotAChannelError: if the preserved set is not closed.
    """
    rows = _closed_basis(pce)
    if rows is None:
        witness = closure_witness(pce)
        raise NotAChannelError(
            f"preserved set is not closed: {witness[0]} + {witness[1]} "
            f"gives the erased index {witness[2]}"
        )
    return Subspace(pce.n, tuple(rows))


def compose(first, second):
    """Composition of two PCE maps: entrywise tau product.

    Both arguments must have the same form — two bitmask maps give a bitmask
    (AND), two subspaces give the subspace intersection.  Commutative,
    associative, and idempotent.
    """
    _check_same_n(first, second)
    if isinstance(first, PceMap) and isinstance(second, PceMap):
        return PceMap(first.n, first.tau & second.tau)
    if isinstance(first, Subspace) and isinstance(second, Subspace):
        rows = gf2.intersect(list(first.basis), list(second.basis), 2 * first.n)
        return Subspace(first.n, tuple(rows))
    raise TypeError("compose needs two PceMap values or two Subspace values")


def reflect(pce: PceMap, k: int) -> PceMap:
    """Reflection along qubit ``k``'s axis: digit swap 0<->3, 1<->2 at position k.

    An involution on bitmasks; it permutes flat indices by XOR with the digit
    value 3 placed at qubit ``k``.
    """
    if not 1 <= k <= pce.n:
        raise ValueError(f"qubit index {k} out of range 1..{pce.n}")
    flip = 3 << (2 * (k - 1))
    return PceMap._from_flat(pce.n, np.flatnonzero(pce.tau_vector().view(bool)) ^ flip)


# ---------------------------------------------------------------------------
# JSON channel documents
# ---------------------------------------------------------------------------


def _preserved_code(text, n: int) -> int:
    """Flat index of a "preserved" entry: a base-4 string of exactly ``n`` digits."""
    if not isinstance(text, str) or len(text) != n:
        raise ValueError(f"preserved entry {text!r} is not {n} base-4 digits")
    return _base4_code(text)


def load_channel_document(doc: dict) -> PceMap | Subspace:
    """Parse a channel document; returns the form the document used.

    Raises ValueError on malformed documents (the CLI maps this to a usage
    error).
    """
    if not isinstance(doc, dict):
        raise ValueError("channel document must be a JSON object")
    n = parse_qubit_count(doc.get("n"))
    has_preserved = "preserved" in doc
    has_basis = "basis" in doc
    if has_preserved == has_basis:
        raise ValueError('document needs exactly one of "preserved" or "basis"')
    if has_preserved:
        entries = doc["preserved"]
        if not isinstance(entries, list):
            raise ValueError('"preserved" must be a list of base-4 strings')
        return PceMap._from_flat(n, [_preserved_code(text, n) for text in entries])
    entries = doc["basis"]
    if not isinstance(entries, list):
        raise ValueError('"basis" must be a list of bit strings')
    vectors = []
    for text in entries:
        if not isinstance(text, str) or len(text) != 2 * n:
            raise ValueError(f"basis entry {text!r} is not a {2 * n}-bit string")
        vectors.append(MultiIndex.from_bit_string(text))
    return Subspace.from_vectors(n, vectors)


def dump_channel_document(obj: PceMap | Subspace) -> dict:
    """Canonical document: "basis" for channels, "preserved" otherwise."""
    if isinstance(obj, Subspace):
        return {
            "n": obj.n,
            "basis": [m.to_bit_string() for m in obj.basis_indices()],
        }
    rows = _closed_basis(obj) if obj.is_trace_preserving else None
    if rows is not None:
        return dump_channel_document(Subspace(obj.n, tuple(rows)))
    return {"n": obj.n, "preserved": [m.to_string() for m in obj.preserved()]}
