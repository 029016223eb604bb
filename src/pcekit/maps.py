"""Pauli-component-erasing (PCE) maps, their subspaces, and Choi spectra.

A PCE map on ``n`` qubits multiplies each Pauli component ``r_f`` of a state
by a binary factor ``tau_f``.  Here ``tau`` is a bitmask: bit ``f`` (flat
multi-index ``f``) is set iff component ``f`` is preserved.  A `PceMap` holds
it as ``ceil(4**n / 8)`` packed little-endian bytes, and ``PceMap.tau`` gives
it as a Python int, computed when read.
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
the fixed denominator ``2**n``, so the symbolic path is exact.  The values
and counts `check` reports depend on the preserved set only through its
coordinates on a basis of its span, of dimension D: they come from a
``2**D``-point transform, each value counted ``4**n / 2**D`` times.

JSON interchange form (shared with the CLI)::

    {"n": 2, "preserved": ["00", "02", "11", "13"]}   # base-4, qubit 1 first
    {"n": 2, "basis": ["0101", "1011"]}               # bits (j_1..j_n k_1..k_n)

Both are accepted on input; output uses "basis" for channels and "preserved"
for everything else.  A "preserved" list is decoded and written as one digit
array, and a refusal still names the first bad entry.

Packed bytes become bits in one step, `_unpack`.  A single map's tau is
decoded in one place, `_decode`: a bool array of length ``4**n`` and its
set positions, ascending.  The closure decision, the witness scan, the
span-route spectrum and every listing read those two arrays, so each public
call decodes at most once.  `_symbolic_report` gives every symbolic answer
of `check` (closure, K, witness, exact spectrum) from that one decode, and
lists the set positions only when an answer reads them.  The trace bit, the
popcount and `compose` read the bytes without a decode, and maps built from
bits are packed once, so no int is built on the way.  A batch of int masks
is checked and decoded once, by `_mask_bits`, into one bool row per mask;
`verify`'s batched decision, `_closed_flags`, and the dense oracle read
those rows, so how tau is stored is known here alone.  `_closed_flags` and
the one-map `_closed_basis` share one closure core, `_closed_group`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .errors import DimensionMismatchError, NotAChannelError, TracePreservationError
from .pauli import (
    N_MAX,
    TAU_QUBIT_LIMIT,
    MultiIndex,
    _base4_code,
    _check_dimension,
    _check_same_n,
    _flat_index,
    _qubit_position,
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


@dataclass(frozen=True, init=False, repr=False)
class PceMap:
    """A candidate PCE map: ``n`` qubits and the preserved-component bitmask.

    ``PceMap(n, tau)`` takes the bitmask as an integer, bit f for flat index
    f; the map holds it as ``tau.to_bytes(ceil(4**n / 8), "little")``, pad
    bits zero, so equality and hashing compare ``(n, bytes)``.  ``tau`` is
    computed from those bytes when read.  The slots are declared here, not by
    ``slots=True``, whose rebuilt class makes assigning a non-field name such
    as ``tau`` raise TypeError rather than FrozenInstanceError.
    """

    __slots__ = ("n", "_packed")
    n: int
    _packed: bytes

    def __init__(self, n: int, tau: int) -> None:
        check_qubits(n, TAU_QUBIT_LIMIT, "the bitmask form")
        _set_pce(self, n, _check_tau(n, tau).to_bytes(_tau_width(n), "little"))

    @classmethod
    def _from_packed(cls, n: int, packed: bytes) -> "PceMap":
        """Trusted constructor, nothing checked: ``n`` passed `check_qubits`
        for the bitmask form and ``packed`` holds tau's ``_tau_width(n)``
        little-endian bytes with zero pad bits."""
        pce = object.__new__(cls)
        _set_pce(pce, n, packed)
        return pce

    def __repr__(self) -> str:
        return f"PceMap(n={self.n}, tau={self.tau})"

    def __reduce__(self):
        return PceMap._from_packed, (self.n, self._packed)

    @property
    def tau(self) -> int:
        """The bitmask as an integer: bit f is set iff component f is preserved."""
        return int.from_bytes(self._packed, "little")

    @classmethod
    def identity(cls, n: int) -> "PceMap":
        check_qubits(n, TAU_QUBIT_LIMIT, "the bitmask form")  # before 4**n bits
        full, rest = divmod(4**n, 8)  # rest = 4 at n = 1 only
        return cls._from_packed(n, b"\xff" * full + bytes([(1 << rest) - 1] if rest else []))

    @classmethod
    def depolarizing(cls, n: int) -> "PceMap":
        return cls(n, 1)

    @classmethod
    def from_preserved(cls, n: int, indices) -> "PceMap":
        """Build from an iterable of preserved indices.

        Each index is a base-4 string of ``n`` digits (qubit 1 first), a
        `MultiIndex`, or a flat integer in ``0 .. 4**n - 1``.
        """
        check_qubits(n, TAU_QUBIT_LIMIT, "the bitmask form")
        flat = [
            _preserved_code(idx, n) if isinstance(idx, str) else _index_code(idx, n)
            for idx in indices
        ]
        return cls._from_flat(n, flat)

    @classmethod
    def _from_flat(cls, n: int, flat) -> "PceMap":
        """Trusted encoder, nothing checked: ``n`` passed `check_qubits` for the
        bitmask form and each index in the list or array ``flat`` is in range."""
        bits = np.zeros(4**n, dtype=np.uint8)
        bits[np.asarray(flat, dtype=np.int64)] = 1
        return cls._from_bits(n, bits)

    @classmethod
    def from_bits(cls, n: int, bits) -> "PceMap":
        """Inverse of `tau_vector`: build from an array of ``4**n`` entries,
        each equal to 0 or 1 (bools and floats 0.0 and 1.0 included).

        Raises:
            ValueError: if ``n`` is not an integer, the shape is not
                ``(4**n,)``, or an entry is not 0 or 1 (the first is named).
            CapacityError: if ``n`` is outside ``1..TAU_QUBIT_LIMIT``.
        """
        check_qubits(n, TAU_QUBIT_LIMIT, "the bitmask form")
        bits = np.asarray(bits)
        if bits.shape != (4**n,):
            raise ValueError(f"expected {4**n} bits for n={n}, got shape {bits.shape}")
        ones = bits == 1
        bad = ~ones & (bits != 0)
        if bad.any():
            f = int(bad.argmax())
            raise ValueError(f"bit {f} is {bits[f : f + 1].tolist()[0]!r}, not 0 or 1")
        return cls._from_bits(n, ones)

    @classmethod
    def _from_bits(cls, n: int, bits: np.ndarray) -> "PceMap":
        """Trusted `from_bits`, nothing checked: ``bits`` is a bool or 0/1
        integer array of length ``4**n``.  One pack, whose pad bits are zero."""
        return cls._from_packed(n, np.packbits(bits, bitorder="little").tobytes())

    @property
    def is_trace_preserving(self) -> bool:
        """Whether the normalization component is preserved (tau_0 = 1)."""
        return bool(self._packed[0] & 1)

    @property
    def preserved_count(self) -> int:
        return int(np.bitwise_count(np.frombuffer(self._packed, np.uint8)).sum())

    def preserved_indices(self) -> list[int]:
        """Sorted flat indices of preserved components."""
        return _decode(self)[1].tolist()

    def preserved(self) -> list[MultiIndex]:
        return [MultiIndex(self.n, f) for f in self.preserved_indices()]

    def tau_vector(self) -> np.ndarray:
        """The bitmask as a uint8 0/1 array of length ``4**n``."""
        return _unpack(self.n, self._packed)[0]


def _set_pce(pce: PceMap, n: int, packed: bytes) -> None:
    """Fill a `PceMap`'s slots through their descriptors, which the frozen
    ``__setattr__`` does not guard."""
    _set_pce_n(pce, n)
    _set_pce_packed(pce, packed)


_set_pce_n = PceMap.n.__set__
_set_pce_packed = PceMap._packed.__set__


def _tau_width(n: int) -> int:
    """Bytes of a packed tau on ``n`` qubits: ``ceil(4**n / 8)``."""
    return (4**n + 7) // 8


def _index_code(idx: MultiIndex | int, n: int) -> int:
    """Flat code of a `MultiIndex` on ``n`` qubits, or of an integer index.

    Raises:
        DimensionMismatchError: if a `MultiIndex` has another qubit count.
        ValueError: if any other index is not an integer in ``0 .. 4**n - 1``.
    """
    if not isinstance(idx, MultiIndex):
        return _flat_index(idx, n)
    if idx.n != n:
        raise DimensionMismatchError(f"qubit counts differ: {idx.n} vs {n}")
    return idx.code


def _check_tau(n: int, tau) -> int:
    """``tau`` as a bitmask on ``n`` qubits, else ValueError naming it: an
    integer in ``0 .. 2**(4**n) - 1``."""
    try:
        tau = operator.index(tau)
    except TypeError:
        raise ValueError(f"tau bitmask {tau!r} is not an integer") from None
    if tau < 0 or tau >> 4**n:
        raise ValueError(f"tau bitmask out of range for n={n}")
    return tau


def _unpack(n: int, packed) -> np.ndarray:
    """The one bytes-to-bits step: the packed little-endian tau bytes of G
    masks on ``n`` qubits, ``_tau_width(n)`` bytes each, as a uint8 0/1 array
    of shape ``(G, 4**n)``, bit f in column f.  `PceMap.tau_vector` (and so
    `_decode` and `_symbolic_report`) and `_mask_bits` decode through it."""
    raw = np.frombuffer(packed, np.uint8)
    return np.unpackbits(raw, bitorder="little").reshape(-1, 8 * _tau_width(n))[:, : 4**n]


def _mask_bits(n: int, masks) -> np.ndarray:
    """The int masks of an iterable, each checked once by `_check_tau`, their
    little-endian bytes joined and decoded by one `_unpack` call: a bool
    array of shape ``(G, 4**n)``, row g the bits of mask g.  `verify`'s
    chunks and the dense oracle read these rows.

    Raises:
        ValueError: if a mask is not an integer in ``0 .. 2**(4**n) - 1``.
    """
    width = _tau_width(n)
    packed = b"".join([_check_tau(n, tau).to_bytes(width, "little") for tau in masks])
    return _unpack(n, packed).view(bool)


def _decode(pce: PceMap, listed: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The one decode of a single map: tau as a bool array of length
    ``4**n``, and its set positions, ascending, as one int64 array (None
    unless ``listed``).  The closure decision, the witness scan, the Choi
    spectrum and every listing of a single map read these two arrays."""
    present = pce.tau_vector().view(bool)
    return present, np.flatnonzero(present) if listed else None


@dataclass(frozen=True, slots=True)
class Subspace:
    """A GF(2) subspace of multi-index space — equivalently, a PCE channel.

    ``basis`` holds packed multi-index codes in canonical RREF form (pivots
    descending); the empty tuple is the zero subspace (totally depolarizing
    channel).  Canonical form is unique per subspace, so equality of
    `Subspace` values is equality of channels.  The fields live in slots,
    with no per-instance ``__dict__``.
    """

    n: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        check_qubits(self.n)
        rows = [_flat_index(v, self.n) for v in self.basis]
        if gf2.rref(rows) != rows:
            raise ValueError("basis is not in canonical reduced row echelon form")

    @classmethod
    def _canonical(cls, n: int, basis: tuple[int, ...]) -> "Subspace":
        """Trusted constructor: ``basis`` must already be canonical RREF for a
        qubit count that passed `check_qubits`.  Nothing is checked; the
        fields are filled through their slot descriptors, which the frozen
        ``__setattr__`` does not guard."""
        subspace = object.__new__(cls)
        _set_n(subspace, n)
        _set_basis(subspace, basis)
        return subspace

    @classmethod
    def from_vectors(cls, n: int, vectors) -> "Subspace":
        """Span of arbitrary vectors (MultiIndex or packed int), canonicalized."""
        check_qubits(n)
        return cls._canonical(n, tuple(gf2.rref([_index_code(v, n) for v in vectors])))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, idx: MultiIndex | int) -> bool:
        return gf2.in_span(_index_code(idx, self.n), list(self.basis))

    def members(self) -> list[int]:
        """All ``2**dim`` member codes, sorted ascending."""
        return gf2.span(list(self.basis))

    def basis_indices(self) -> list[MultiIndex]:
        return [MultiIndex(self.n, v) for v in self.basis]


# The slot setters of `Subspace._canonical`, bound once.
_set_n = Subspace.n.__set__
_set_basis = Subspace.basis.__set__


@dataclass(frozen=True, eq=False)
class ChoiSpectrum:
    """Exact Choi eigenvalues: integer numerators over denominator ``2**n``.

    ``numerators[f]`` is the numerator of the eigenvalue attached to the
    vectorized Pauli string with flat index ``f``.
    """

    n: int
    numerators: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.numerators)
        try:
            with np.errstate(invalid="ignore"):  # nan and inf fail the comparison below
                arr = values.astype(np.int64, copy=False)
        except OverflowError:  # Python ints beyond int64
            arr = None
        # A converted copy must keep every value: no fractions, nan, inf or
        # uint64 values that wrap.
        if arr is None or (arr is not values and not np.array_equal(arr, values)):
            raise ValueError("Choi numerators must be integers in the int64 range")
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
        return _value_counts(self.numerators, self.denominator)

    @property
    def is_nonnegative(self) -> bool:
        return bool(self.numerators.min() >= 0)


def _value_counts(
    numerators: np.ndarray, denominator: int, scale: int = 1
) -> list[tuple[Fraction, int]]:
    """Distinct ``numerators`` over ``denominator``, ascending, each with its
    count times ``scale``."""
    values, counts = np.unique(numerators, return_counts=True)
    return [(Fraction(int(v), denominator), int(c) * scale) for v, c in zip(values, counts)]


def choi_spectrum(pce: PceMap) -> ChoiSpectrum:
    """Exact Choi eigenvalues of a PCE map, one per flat multi-index."""
    numerators = sign_transform(pce.tau_vector())
    return ChoiSpectrum(pce.n, numerators)


# The smallest n where `_spectrum_counts` takes the span route.  Near-channels
# with K = 4..2n-2, best of 7, one BLAS thread: at n = 7 the transform and
# count over 4**n entries take 0.16-0.19 ms and the span route 0.14-0.31 ms;
# at n = 8 they take 1.0 ms and the span route 0.28-0.81 ms.
_SPAN_MIN_QUBITS = 8


def _spectrum_counts(
    n: int, present: np.ndarray, codes: np.ndarray | None
) -> list[tuple[Fraction, int]]:
    """``choi_spectrum(pce).value_counts()`` of the map that `_decode` decoded
    into ``present`` and ``codes``, transformed over the span of the
    preserved set S rather than over all ``4**n`` indices.  If ``codes`` is
    None, the span route lists the set positions itself; the tau-vector
    route never reads them.

    The numerator at f is ``sum_{g in S} (-1)**omega(f, g)``, with omega the
    symplectic product.  It depends on f only through the D products
    ``omega(f, w_i)`` with a basis ``w_1..w_D`` of span(S), and f maps onto
    every value of those D bits equally often.  So the spectrum is the
    ``2**D``-point transform of S's coordinates, each value counted
    ``4**n / 2**D`` times.  The coordinates, padded to ``2m`` bits with
    ``m = ceil(D / 2)``, go through `sign_transform` on ``4**m`` entries,
    where each value occurs ``2**(2m - D)`` times, so every count is scaled
    by ``4**(n - m)``.  The tau vector is the case ``m = n``, taken when
    ``n < _SPAN_MIN_QUBITS`` or ``D >= 2n - 1``.
    """
    bits = present.view(np.uint8)
    m = n
    # Above 4**(n - 1) set positions, D >= 2n - 1, so m = n anyway.
    if n >= _SPAN_MIN_QUBITS and np.count_nonzero(bits) <= 4 ** (n - 1):
        found = _span_coordinates(n, np.flatnonzero(bits) if codes is None else codes)
        if found is not None:
            m = (found[0] + 1) // 2
            bits = np.zeros(4**m, np.uint8)
            bits[found[1]] = 1
    return _value_counts(sign_transform(bits), 2**n, 4 ** (n - m))


def _span_coordinates(n: int, codes: np.ndarray) -> tuple[int, np.ndarray] | None:
    """The dimension D of the span of the ascending flat indices ``codes`` and
    each code's coordinates on its reduced basis, as an int64 array; None
    once the rank reaches ``2n - 1``, where ``ceil(D / 2) = n`` anyway.

    The basis starts from the codes at positions ``2**i - 1`` and ``2**i``,
    which hold a basis when the codes are a subspace, with or without 0 (see
    `_closed_group`), or close to one.  Coordinate i is the code's bit at the
    pivot of the row with the i-th lowest pivot, read through one table per
    half of the code's 2n bits.  A code is in the span iff the combination
    its coordinates name is the code itself; the first 2n codes outside join
    the basis, and the check repeats.
    """
    size = codes.size
    at = [p for i in range(size.bit_length()) for p in ((1 << i) - 1, 1 << i) if p < size]
    basis = gf2.rref(codes[at].tolist())
    while len(basis) < 2 * n - 1:
        rows = basis[::-1]
        # Code bit p adds 2**i to the coordinates if p is row i's pivot.
        weights = np.zeros(2 * n, np.int64)
        weights[[row.bit_length() - 1 for row in rows]] = 1 << np.arange(len(rows))
        low, high = _span(weights.reshape(2, n))
        coords = low[codes & ((1 << n) - 1)] | high[codes >> n]
        outside = codes[_span(rows)[coords] != codes]
        if not outside.size:
            return len(rows), coords
        basis = gf2.rref(basis + outside[: 2 * n].tolist())
    return None


def channel_spectrum(n: int, K: int) -> list[tuple[Fraction, int]]:
    """Closed-form Choi spectrum of a channel with a K-dimensional preserved subspace.

    The eigenvalue ``2**(K - n)`` sits on the ``2**(2n - K)`` indices of the
    subspace's symplectic complement and 0 on the rest, so no 4**n array is
    built and any ``n <= N_MAX`` works.  Same shape as
    `ChoiSpectrum.value_counts` of ``subspace_to_map`` of such a channel:
    ``(value, multiplicity)`` pairs, ascending; K = 0 has no 0 entry.
    """
    check_qubits(n)
    K = _check_dimension(n, K)
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
    return PceMap._from_bits(spectrum.n, scaled == full)


def _closed_group(n: int, bits: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closure decision on G decoded masks of one popcount ``2**K``.

    ``bits`` holds the masks' bits as bools, G rows of ``4**n``; row g of
    ``codes`` holds mask g's ``2**K`` set positions in ``bits`` read flat,
    ``g * 4**n + f``, ascending.  Returns each mask's rows, the codes at
    positions ``2**i`` reduced mod ``4**n`` (shape ``(G, K)``), and whether
    its set is closed.

    Listing a subspace's members in ascending order lists their RREF
    coordinates in ascending order too, so the member at position ``2**i`` is
    the basis row with the i-th lowest pivot.  A set of ``2**K`` members is
    therefore closed iff those K rows are independent (every XOR combination
    but the empty one is nonzero) and every combination is a member: one span
    of the rows, one gather of the bits at the span.  No elimination.
    """
    rows = codes[:, [1 << i for i in range(codes.shape[1].bit_length() - 1)]] % 4**n
    members = _span(rows)
    closed = (members[:, 1:] != 0).all(axis=1)
    members |= np.arange(len(codes))[:, None] << 2 * n
    closed &= bits.reshape(-1)[members].all(axis=1)
    return rows, closed


def _closed_basis(n: int, present: np.ndarray, codes: np.ndarray | None) -> list[int] | None:
    """Canonical RREF basis of the preserved set of the map that `_decode`
    decoded into ``present`` and ``codes``; None where tau_0 is erased (then
    ``codes`` is not read) or the set is not closed.  The one-map call of
    `_closed_group`."""
    if not present[0] or codes.size & (codes.size - 1):
        return None
    rows, closed = _closed_group(n, present, codes[None])
    return rows[0, ::-1].tolist() if closed[0] else None


def _closed_flags(n: int, bits: np.ndarray) -> np.ndarray:
    """Whether each mask keeps tau_0 and its preserved set is closed, as a
    bool array: the batched closure decision of `verify`, on the rows of
    `_mask_bits`.

    The trace-preserving rows with a power-of-two popcount are grouped by
    popcount, and each group is decided by one `_closed_group` call.
    """
    counts = np.count_nonzero(bits, axis=1)
    candidates = bits[:, 0] & (counts & (counts - 1) == 0)
    out = np.zeros(len(bits), dtype=bool)
    for count in np.unique(counts[candidates]).tolist():
        positions = np.flatnonzero(candidates & (counts == count))
        group = bits[positions]
        codes = np.flatnonzero(group).reshape(len(positions), count)
        out[positions] = _closed_group(n, group, codes)[1]
    return out


def _decode_candidate(pce: PceMap) -> tuple[np.ndarray, np.ndarray]:
    """`_decode` of a map whose closure is asked.

    Raises:
        TracePreservationError: if the normalization component is erased.
    """
    if not pce.is_trace_preserving:
        raise TracePreservationError("tau at the zero index is 0")
    return _decode(pce)


def is_closed_subspace(pce: PceMap) -> bool:
    """Whether the preserved index set is a GF(2) subspace.

    A trace-preserving map whose popcount is not a power of two is answered
    False with no decode.

    Raises:
        TracePreservationError: if the normalization component is erased.
    """
    count = pce.preserved_count
    if count & (count - 1) and pce.is_trace_preserving:
        return False
    return _closed_basis(pce.n, *_decode_candidate(pce)) is not None


def closure_witness(
    pce: PceMap,
) -> tuple[MultiIndex, MultiIndex, MultiIndex] | None:
    """First preserved pair whose sum is erased, with that sum; None if closed.

    Decides closure once, then scans pairs in ascending flat-index order, so
    the witness is deterministic.

    Raises:
        TracePreservationError: if the normalization component is erased.
    """
    present, codes = _decode_candidate(pce)
    if _closed_basis(pce.n, present, codes) is not None:
        return None
    return _first_erased_sum(pce.n, present, codes)


def _first_erased_sum(
    n: int, present: np.ndarray, codes: np.ndarray
) -> tuple[MultiIndex, MultiIndex, MultiIndex]:
    """The pair scan of `closure_witness` over the arrays of `_decode`, run
    only on trace-preserving maps that `_closed_basis` rejected, which always
    hold a pair with an erased sum.  Walks the set positions ``codes`` in
    ascending order and looks each pair's sum up in ``present``."""
    for i, a in enumerate(codes):
        erased = np.flatnonzero(~present[codes[i + 1 :] ^ a])
        if erased.size:
            a, b = int(a), int(codes[i + 1 + int(erased[0])])
            return MultiIndex(n, a), MultiIndex(n, b), MultiIndex(n, a ^ b)


def _symbolic_report(obj: PceMap | Subspace) -> dict:
    """The symbolic answers of `check` on a loaded channel document,
    JSON-ready: n, is_pce, is_channel, K (channels), popcount, witness
    (trace-preserving non-channels) and the exact spectrum up to
    ``TAU_QUBIT_LIMIT``: `channel_spectrum` for channels, `_spectrum_counts`
    otherwise.  A bitmask is decoded once; every answer reads that decode.
    Its set positions are listed there only for a trace-preserving map: with
    tau_0 erased there is no closure or witness to find, and only the
    spectrum's span route reads them."""
    report: dict = {"n": obj.n}
    if isinstance(obj, Subspace):
        report.update(is_pce=True, is_channel=True, K=obj.dim, popcount=2**obj.dim)
    else:
        present, codes = _decode(obj, listed=obj.is_trace_preserving)
        rows = _closed_basis(obj.n, present, codes)
        report.update(is_pce=obj.is_trace_preserving, is_channel=rows is not None)
        if rows is not None:
            report["K"] = len(rows)
        report["popcount"] = int(np.count_nonzero(present)) if codes is None else codes.size
        if obj.is_trace_preserving and rows is None:
            a, b, missing = _first_erased_sum(obj.n, present, codes)
            report["witness"] = {
                "pair": [a.to_string(), b.to_string()],
                "missing": missing.to_string(),
            }
    if obj.n <= TAU_QUBIT_LIMIT:
        if report["is_channel"]:
            counts = channel_spectrum(obj.n, report["K"])
        else:
            counts = _spectrum_counts(obj.n, present, codes)
        report["spectrum"] = {
            "values": [{"value": str(v), "count": c} for v, c in counts],
            "min": str(counts[0][0]),
            "sum": str(sum(v * c for v, c in counts)),
        }
    return report


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


def _span(rows) -> np.ndarray:
    """All ``2**K`` XOR combinations of the K rows on the last axis, unsorted:
    shape ``(..., 2**K)``, combination 0 first."""
    rows = np.asarray(rows, dtype=np.int64)
    K = rows.shape[-1]
    members = np.zeros(rows.shape[:-1] + (1 << K,), dtype=np.int64)
    for i in range(K):
        np.bitwise_xor(
            members[..., : 1 << i], rows[..., i : i + 1], out=members[..., 1 << i : 2 << i]
        )
    return members


def map_to_subspace(pce: PceMap) -> Subspace:
    """Basis form of a channel bitmask.

    Raises:
        NotAChannelError: if the preserved set is not closed.
    """
    present, codes = _decode_candidate(pce)
    rows = _closed_basis(pce.n, present, codes)
    if rows is None:
        witness = _first_erased_sum(pce.n, present, codes)
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
        both = np.frombuffer(first._packed, np.uint8) & np.frombuffer(second._packed, np.uint8)
        return PceMap._from_packed(first.n, both.tobytes())
    if isinstance(first, Subspace) and isinstance(second, Subspace):
        rows = gf2.intersect(list(first.basis), list(second.basis), 2 * first.n)
        return Subspace(first.n, tuple(rows))
    raise TypeError("compose needs two PceMap values or two Subspace values")


def reflect(pce: PceMap, k: int) -> PceMap:
    """Reflection along qubit ``k``'s axis: digit swap 0<->3, 1<->2 at position k.

    An involution on bitmasks; it permutes flat indices by XOR with the digit
    value 3 placed at qubit ``k``.
    """
    flip = 3 << (2 * (_qubit_position(k, pce.n) - 1))
    return PceMap._from_flat(pce.n, _decode(pce)[1] ^ flip)


# ---------------------------------------------------------------------------
# JSON channel documents
# ---------------------------------------------------------------------------


def _preserved_code(text, n: int) -> int:
    """Flat index of a "preserved" entry: a base-4 string of exactly ``n`` digits."""
    if not isinstance(text, str) or len(text) != n:
        raise ValueError(f"preserved entry {text!r} is not {n} base-4 digits")
    return _base4_code(text)


# The codes <-> strings codec of "preserved" lists: each string holds one
# code's base-4 digits, qubit 1 first, as ASCII '0'..'3'.  Digit q weighs 4**q.
_DIGIT_WEIGHTS = 4 ** np.arange(N_MAX, dtype=np.int64)


def _preserved_codes(entries: list, n: int) -> np.ndarray:
    """Flat indices of a "preserved" list, decoded as one int64 array.

    Every entry must be a `str` of exactly ``n`` characters, and their join
    must be ASCII digits 0..3; the joined bytes are then read as an
    ``(len(entries), n)`` digit array and weighted by ``4**arange(n)``.
    Otherwise `_preserved_code` runs over the list and raises for the first
    bad entry, so each refusal names that entry as the one-entry rule does.
    """
    try:
        same_length = set(map(len, entries)) <= {n}
        text = "".join(entries)
    except TypeError:  # an entry without a length, or one that is not a str
        same_length = False
    if same_length and text.isascii():
        # Characters below '0' wrap around in uint8, so one test refuses them too.
        digits = np.frombuffer(text.encode("ascii"), np.uint8) - 48
        if digits.max(initial=0) <= 3:
            return digits.reshape(-1, n) @ _DIGIT_WEIGHTS[:n]
    return np.array([_preserved_code(entry, n) for entry in entries], np.int64)


def _preserved_strings(codes: np.ndarray, n: int) -> list[str]:
    """Inverse of `_preserved_codes`: the n-digit string of each code in the
    int64 array ``codes``, cut from one array of ASCII digits."""
    digits = 48 + ((codes[:, None] >> 2 * np.arange(n)) & 3)
    return digits.astype(np.uint8).view(f"S{n}").ravel().astype(f"U{n}").tolist()


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
        codes = _preserved_codes(entries, n)
        check_qubits(n, TAU_QUBIT_LIMIT, "the bitmask form")
        return PceMap._from_flat(n, codes)
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
    present, codes = _decode(obj)
    rows = _closed_basis(obj.n, present, codes)
    if rows is not None:
        return dump_channel_document(Subspace(obj.n, tuple(rows)))
    return {"n": obj.n, "preserved": _preserved_strings(codes, obj.n)}
