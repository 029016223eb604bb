"""Multi-index bookkeeping and sign algebra for N-qubit Pauli strings.

Conventions used throughout the package:

* A multi-index is a tuple of digits ``(alpha_1, ..., alpha_n)`` with each
  ``alpha_k`` in ``{0, 1, 2, 3}`` labelling ``I, X, Y, Z`` on qubit ``k``.
* The packed code of a multi-index is ``sum(alpha_k * 4**(k-1))`` — qubit 1
  occupies the two least-significant bits.  The packed code doubles as the
  flat index into any length-``4**n`` component vector, so bit ``f`` of a
  bitmask corresponds to flat index ``f``.
* Each digit splits into two bits via ``alpha = j + 2*k``: the low bit ``j``
  and the high bit ``k``.  The binary view of a multi-index is the length-2n
  bit vector ``(j_1..j_n, k_1..k_n)``; converting quaternary -> binary ->
  quaternary is the identity.  Read in base 4, a 0/1 string puts bit q at
  bit 2q, so the j half of a bit string, reversed and read in base 4, gives
  the j bits of the packed code in place; the k half, read the same way and
  shifted left once, gives the k bits.
* Componentwise addition of multi-indices (each digit added in the Klein
  four-group) is XOR of packed codes.
* ``sign(alpha, beta)`` is the +-1 sign picked up when conjugating one Pauli
  string by another: ``P_alpha P_beta P_alpha = sign * P_beta``.  Per digit it
  is -1 exactly when both digits are non-identity and different, and it equals
  ``(-1)**symplectic_product(alpha, beta)`` in the binary view.
* Dense matrices: ``pauli_string_dense`` places qubit 1 as the *leftmost*
  Kronecker factor, so qubit 1 is the most-significant bit of a computational
  basis index.  (Flat component indices and dense basis indices therefore run
  in opposite qubit order; only this module touches both.)
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionMismatchError

__all__ = [
    "N_MAX",
    "TAU_QUBIT_LIMIT",
    "DENSE_QUBIT_LIMIT",
    "STATE_QUBIT_LIMIT",
    "CHOI_QUBIT_LIMIT",
    "DIAGRAM_QUBIT_LIMIT",
    "check_qubits",
    "parse_qubit_count",
    "SIGN_TABLE",
    "MultiIndex",
    "klein_add",
    "a_entry",
    "A_entry",
    "symplectic_product",
    "symplectic_product_row",
    "commutes",
    "sign_transform",
    "pauli_string_dense",
    "pauli_basis",
]

# Qubit limits, one per representation; `check_qubits` enforces them.
N_MAX = 16  # symbolic (basis) form: packed codes fit in 32 bits
TAU_QUBIT_LIMIT = 13  # bitmask form: 4**n bits per map
DENSE_QUBIT_LIMIT = 5  # dense Pauli strings, their 4**n table, collisions
STATE_QUBIT_LIMIT = 10  # one 2**n x 2**n state matrix, built qubit by qubit
CHOI_QUBIT_LIMIT = 3  # dense 4**n x 4**n Choi matrices
DIAGRAM_QUBIT_LIMIT = 3  # grid diagrams; larger maps have only the JSON form

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE_QUBIT_PAULIS = (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_STACK = np.stack(SINGLE_QUBIT_PAULIS)  # the one-qubit `_kron_table` factor

# sign(alpha, beta) for single-qubit digits: -1 iff both non-identity and distinct.
SIGN_TABLE = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=np.int64,
)


def check_qubits(n: int, limit: int = N_MAX, what: str = "the symbolic form") -> None:
    """Raise ValueError unless ``n`` is an integer and CapacityError unless
    ``1 <= n <= limit``; ``what`` names the object."""
    try:
        operator.index(n)
    except TypeError:
        raise ValueError(f"{what} needs an integer qubit count, got n={n!r}") from None
    if not 1 <= n <= limit:
        raise CapacityError(f"{what} needs 1 <= n <= {limit}, got n={n}")


def _check_dimension(n: int, K) -> int:
    """``K`` as the dimension of a subspace of GF(2)^(2n), else ValueError
    naming it: an integer (bools are not) in ``0..2n``."""
    try:
        dim = None if isinstance(K, bool) else operator.index(K)
    except TypeError:
        dim = None
    if dim is None or not 0 <= dim <= 2 * n:
        raise ValueError(f"K must be an integer in 0..{2 * n}, got {K!r}")
    return dim


def parse_qubit_count(value) -> int:
    """A document's ``"n"``: an int in ``1..N_MAX``, else ValueError (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= N_MAX:
        raise ValueError(f'"n" must be an integer in 1..{N_MAX}, got {value!r}')
    return value


def _base4_code(text: str) -> int:
    """Packed code of a base-4 digit string, qubit 1 first ('32' -> 3 + 2*4)."""
    # strip() leaves a remainder iff some character is not a digit 0..3, which
    # also keeps signs, spaces and underscores away from int().
    if not isinstance(text, str) or not text or text.strip("0123"):
        raise ValueError(f"not a base-4 digit string: {text!r}")
    return int(text[::-1], 4)


def _flat_index(value, n: int) -> int:
    """``value`` as a flat index on ``n`` qubits, else ValueError naming it:
    the one range rule for indices entering the package."""
    try:
        code = operator.index(value)
    except TypeError:
        raise ValueError(f"flat index {value!r} is not an integer") from None
    if not 0 <= code < 4**n:
        raise ValueError(f"flat index {code} out of range for n={n}")
    return code


def _qubit_position(k, n: int) -> int:
    """``k`` as a 1-based qubit position on ``n`` qubits, else ValueError
    naming it: the one range rule for a qubit position."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"qubit index {k!r} is not an integer") from None
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    return k


def _labels(labels, n: int | None = None) -> tuple[int, tuple[MultiIndex, ...]]:
    """A family of Pauli labels as ``(n, labels)``: the one rule for label
    families.  Each label is a `MultiIndex` or a base-4 string (anything
    else is refused by `MultiIndex.from_string`).  ``n`` is checked by
    `check_qubits`, or else taken from the first label.

    Raises:
        ValueError: for a label of another type, a malformed string, or an
            empty family without ``n``.
        CapacityError: if ``n`` is outside ``1..N_MAX``.
        DimensionMismatchError: naming the first label on another qubit count.
    """
    family = tuple(a if isinstance(a, MultiIndex) else MultiIndex.from_string(a) for a in labels)
    if n is None:
        if not family:
            raise ValueError("an empty label list needs an explicit qubit count")
        n = family[0].n
    check_qubits(n)
    for label in family:
        if label.n != n:
            raise DimensionMismatchError(f"label {label} has n={label.n}, expected {n}")
    return n, family


def _digit(value) -> int:
    """``value`` as a single-qubit digit, else ValueError naming it."""
    try:
        digit = operator.index(value)
    except TypeError:
        raise ValueError(f"digit {value!r} is not an integer") from None
    if not 0 <= digit <= 3:
        raise ValueError(f"digit {digit!r} not in 0..3")
    return digit


# Each digit's j bit and k bit (digit = j + 2k), for str.translate.
_J_BIT = str.maketrans("0123", "0101")
_K_BIT = str.maketrans("0123", "0011")
# Each hex digit as its two base-4 digits, the high one first.
_HEX_BASE4 = str.maketrans({f"{v:x}": f"{v >> 2}{v & 3}" for v in range(16)})


def _low_mask(n: int) -> int:
    """Mask selecting the low (j) bit of every digit: bits 0, 2, 4, ..."""
    return (4**n - 1) // 3


def _swap_pairs(code: int, n: int) -> int:
    """Exchange the j and k bit inside every digit of a packed code."""
    low = _low_mask(n)
    return ((code >> 1) & low) | ((code & low) << 1)


def _sp_parity(a: int, b: int, n: int) -> int:
    """Symplectic product of two packed codes: parity of j_a.k_b + k_a.j_b."""
    return (a & _swap_pairs(b, n)).bit_count() & 1


@dataclass(frozen=True, order=True)
class MultiIndex:
    """A Pauli-string label on ``n`` qubits, stored as a packed code.

    Attributes:
        n: Qubit count, 1 <= n <= N_MAX.
        code: Packed code ``sum(alpha_k * 4**(k-1))``; equals the flat index.
    """

    n: int
    code: int

    def __post_init__(self) -> None:
        check_qubits(self.n)
        _flat_index(self.code, self.n)

    @classmethod
    def from_digits(cls, digits: tuple[int, ...] | list[int]) -> "MultiIndex":
        """Build from per-qubit digits, qubit 1 first."""
        code = 0
        for pos, digit in enumerate(digits):
            code |= _digit(digit) << (2 * pos)
        return cls(len(digits), code)

    @classmethod
    def from_string(cls, text: str) -> "MultiIndex":
        """Parse a base-4 digit string, qubit 1 first (e.g. '32' -> (3, 2))."""
        code = _base4_code(text)  # before len(), which a non-str may lack
        return cls(len(text), code)

    @classmethod
    def from_bit_string(cls, text: str) -> "MultiIndex":
        """Parse a length-2n bit string in the (j_1..j_n k_1..k_n) layout."""
        if not isinstance(text, str) or not text or len(text) % 2 or text.strip("01"):
            raise ValueError(f"not a length-2n bit string: {text!r}")
        n = len(text) // 2
        return cls(n, int(text[:n][::-1], 4) | int(text[n:][::-1], 4) << 1)

    @property
    def digits(self) -> tuple[int, ...]:
        """Per-qubit digits, qubit 1 first."""
        return tuple((self.code >> (2 * pos)) & 3 for pos in range(self.n))

    def digit(self, k: int) -> int:
        """Digit acting on qubit ``k`` (1-based)."""
        return (self.code >> (2 * (_qubit_position(k, self.n) - 1))) & 3

    @property
    def j_bits(self) -> int:
        """Low bits (j_1..j_n) packed into an n-bit integer, qubit 1 at bit 0."""
        return int(self.to_string().translate(_J_BIT)[::-1], 2)

    @property
    def k_bits(self) -> int:
        """High bits (k_1..k_n) packed into an n-bit integer, qubit 1 at bit 0."""
        return int(self.to_string().translate(_K_BIT)[::-1], 2)

    def to_string(self) -> str:
        """Base-4 digit string, qubit 1 first."""
        # ceil(n/2) hex digits give n or n + 1 base-4 digits, most significant
        # first; reversed, the extra one is a trailing 0.
        base4 = format(self.code, f"0{(self.n + 1) // 2}x").translate(_HEX_BASE4)
        return base4[::-1][: self.n]

    def to_bit_string(self) -> str:
        """Length-2n bit string in the (j_1..j_n k_1..k_n) layout."""
        digits = self.to_string()
        return digits.translate(_J_BIT) + digits.translate(_K_BIT)

    @property
    def weight(self) -> int:
        """Number of non-identity digits."""
        return sum(1 for d in self.digits if d != 0)

    def __xor__(self, other: "MultiIndex") -> "MultiIndex":
        return klein_add(self, other)

    def __str__(self) -> str:
        return self.to_string()


def _check_same_n(a, b) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} vs {b.n}")


def klein_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise Klein-group addition; XOR of packed codes."""
    _check_same_n(a, b)
    return MultiIndex(a.n, a.code ^ b.code)


def a_entry(alpha: int, beta: int) -> int:
    """Single-qubit conjugation sign: -1 iff alpha, beta non-identity and distinct."""
    try:
        return int(SIGN_TABLE[_digit(alpha), _digit(beta)])
    except ValueError as exc:
        raise ValueError(f"digits must be in 0..3: {exc}") from None


def A_entry(a: MultiIndex, b: MultiIndex) -> int:
    """N-qubit conjugation sign: product of per-digit signs."""
    return 1 - 2 * symplectic_product(a, b)


def symplectic_product(a: MultiIndex, b: MultiIndex) -> int:
    """Binary form ``j_a.k_b + k_a.j_b mod 2``; the sign is (-1)**this."""
    _check_same_n(a, b)
    return _sp_parity(a.code, b.code, a.n)


def symplectic_product_row(a: MultiIndex) -> np.ndarray:
    """Vector of ``symplectic_product(a, beta)`` over every flat index beta.

    Returns a uint8 array of length ``4**a.n`` (entries 0 or 1).  Entry beta is
    1 exactly when the Pauli strings labelled ``a`` and ``beta`` anticommute.
    """
    check_qubits(a.n, TAU_QUBIT_LIMIT, "a full symplectic row")
    betas = np.arange(4**a.n, dtype=np.uint64)
    mask = np.uint64(_swap_pairs(a.code, a.n))
    return (np.bitwise_count(betas & mask) & 1).astype(np.uint8)


def commutes(a: MultiIndex, b: MultiIndex) -> bool:
    """Whether the two Pauli strings commute as operators.

    Equivalent to an even count of qubits where both digits are non-identity
    and differ, i.e. a vanishing symplectic product.
    """
    return symplectic_product(a, b) == 0


# One stage of `sign_transform` on two qubits at once.
_SIGN_TABLE_2 = np.kron(SIGN_TABLE, SIGN_TABLE)
# Elements per matmul in `sign_transform`: the size of its one scratch buffer.
_SLAB = 1 << 16


def sign_transform(vec: np.ndarray) -> np.ndarray:
    """Multiply by the n-fold Kronecker power of SIGN_TABLE, exactly.

    ``vec`` has a last axis of length ``4**n`` indexed by flat multi-index;
    leading axes are treated as a batch; the result is a new int64 array of
    the same shape.  Non-integer input is truncated to int64 first.  Each
    stage applies the 16 x 16 block ``SIGN_TABLE (x) SIGN_TABLE`` to two
    qubits at once (``SIGN_TABLE`` alone to an odd last qubit) as one matmul
    over a ``(rows, 16, stride)`` view of a C-ordered working copy, so it
    costs O(n 4**n) operations and never materializes the 4**n x 4**n
    matrix.  The matmuls run a slab of about ``_SLAB`` elements at a time
    through one scratch buffer.  The working copy lives in the result's
    memory and becomes int64 there in place, a slab at a time.

    Every partial sum is an integer of size at most ``max|vec| * 4**n``, so
    the working copy is float32 while that bound is <= 2**24 (every 0/1 mask
    up to n = 12), float64 while it is <= 2**53 (every 0/1 mask and every
    `tau_from_spectrum` input up to n = 13) and int64 beyond.  In the float
    cases every partial sum is exactly representable, so the result is exact
    in any summation order.  In int64 every partial sum is bounded by its
    row's L1 norm, so the result is exact while each row's L1 norm stays
    below 2**63.  The transform is its own inverse up to a factor ``4**n``.

    Raises:
        ValueError: if the last axis is not of length ``4**n``, or if some
            row's L1 norm reaches 2**63, where an output can leave int64.
    """
    work = np.asarray(vec)
    size = work.shape[-1] if work.ndim else 0
    if size < 1 or size & (size - 1) or not size.bit_length() & 1:
        raise ValueError(f"sign_transform needs a last axis of 4**n entries, got {work.shape}")
    if work.dtype.kind not in "biu":
        work = work.astype(np.int64)
    peak = max(int(work.max()), -int(work.min())) if work.size else 0
    bound = peak * size
    dtype = np.float32 if bound <= 2**24 else np.float64 if bound <= 2**53 else np.int64
    if dtype is np.int64 and _l1_reaches_2_63(work):
        raise ValueError("sign_transform input has a row whose L1 norm reaches 2**63")
    out = np.empty(work.shape, np.int64)
    flat = out.reshape(-1).view(dtype)[: out.size]  # the working copy, in out's memory
    flat.reshape(work.shape)[...] = work
    scratch = np.empty(min(_SLAB, flat.size), dtype)
    stride = 1
    while stride < size:
        table = _SIGN_TABLE_2 if 16 * stride <= size else SIGN_TABLE
        _sign_stage(flat, table.astype(dtype), stride, scratch)
        stride *= len(table)
    if dtype is not np.int64:
        # To int64 in place, last slab first and through the scratch buffer: a
        # float32 slab's int64 values take twice its bytes, so they overwrite
        # only itself and slabs already converted.
        ints = out.reshape(-1)
        for start in reversed(range(0, flat.size, _SLAB)):
            stop = min(start + _SLAB, flat.size)
            scratch[: stop - start] = flat[start:stop]
            ints[start:stop] = scratch[: stop - start]
    return out


def _l1_reaches_2_63(work: np.ndarray) -> bool:
    """Whether some row (last axis) of an integer array has an L1 norm of at
    least 2**63, computed exactly: the uint64 magnitudes are summed in 32-bit
    halves, so no sum wraps for rows shorter than 2**32."""
    magnitude = work.astype(np.uint64)
    if work.dtype.kind == "i":
        np.negative(magnitude, out=magnitude, where=work < 0)  # modulo 2**64: |v|
    high = (magnitude >> 32).sum(axis=-1)
    low = (magnitude & 0xFFFFFFFF).sum(axis=-1)
    return bool((high + (low >> 32) >= 2**31).any())


def _sign_stage(flat: np.ndarray, table: np.ndarray, stride: int, scratch) -> None:
    """Apply ``table`` in place to the digit(s) at ``stride`` of every row of
    ``flat``, viewed as ``(groups, len(table), stride)``, slab by slab."""
    block = len(table)
    view = flat.reshape(-1, block, stride)
    cols = min(stride, _SLAB // block)
    groups = max(1, _SLAB // (block * stride))
    for g in range(0, len(view), groups):
        for c in range(0, stride, cols):
            part = view[g : g + groups, :, c : c + cols]
            out = scratch[: part.size].reshape(part.shape)
            if stride == 1:  # rows times the symmetric table, one plain matmul
                np.matmul(part[..., 0], table, out=out[..., 0])
            else:
                np.matmul(table, part, out=out)
            part[...] = out


def _kron_table(stacks) -> np.ndarray:
    """Kronecker products of one factor from each ``(m_k, r_k, c_k)`` stack.

    Entry ``i_1 + m_1 * (i_2 + m_2 * ...)`` is ``kron(stacks[0][i_1],
    stacks[1][i_2], ...)``, multiplied from the first (leftmost) factor on.
    """
    out = np.array(stacks[0], dtype=complex)
    for stack in stacks[1:]:
        product = out[None, :, :, None, :, None] * stack[:, None, None, :, None, :]
        out = product.reshape(np.multiply(stack.shape, out.shape))
    return out


def pauli_string_dense(a: MultiIndex) -> np.ndarray:
    """Dense ``2**n x 2**n`` Pauli string, qubit 1 leftmost (`_kron_table`)."""
    check_qubits(a.n, DENSE_QUBIT_LIMIT, "a dense matrix")
    return _kron_table([_PAULI_STACK[d : d + 1] for d in a.digits])[0]


@functools.lru_cache(maxsize=8)
def pauli_basis(n: int) -> np.ndarray:
    """All ``4**n`` dense Pauli strings stacked along axis 0, flat-index order.

    One `_kron_table` of n single-qubit stacks; read-only and cached per ``n``.
    """
    check_qubits(n, DENSE_QUBIT_LIMIT, "a dense matrix")
    out = _kron_table([_PAULI_STACK] * n)
    out.setflags(write=False)
    return out
