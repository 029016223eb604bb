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
  quaternary is the identity.
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
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionMismatchError

__all__ = [
    "N_MAX",
    "TAU_QUBIT_LIMIT",
    "DENSE_QUBIT_LIMIT",
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
DENSE_QUBIT_LIMIT = 5  # dense 2**n x 2**n matrices
CHOI_QUBIT_LIMIT = 3  # dense 4**n x 4**n Choi matrices
DIAGRAM_QUBIT_LIMIT = 3  # grid diagrams; larger maps have only the JSON form

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE_QUBIT_PAULIS = (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)

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
    """Raise CapacityError unless ``1 <= n <= limit``; ``what`` names the object."""
    if not 1 <= n <= limit:
        raise CapacityError(f"{what} needs 1 <= n <= {limit}, got n={n}")


def parse_qubit_count(value) -> int:
    """A document's ``"n"``: an int in ``1..N_MAX``, else ValueError (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= N_MAX:
        raise ValueError(f'"n" must be an integer in 1..{N_MAX}, got {value!r}')
    return value


def _base4_code(text: str) -> int:
    """Packed code of a base-4 digit string, qubit 1 first ('32' -> 3 + 2*4)."""
    # strip() leaves a remainder iff some character is not a digit 0..3, which
    # also keeps signs, spaces and underscores away from int().
    if not text or text.strip("0123"):
        raise ValueError(f"not a base-4 digit string: {text!r}")
    return int(text[::-1], 4)


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
        if not 0 <= self.code < 4**self.n:
            raise ValueError(f"code {self.code} out of range for n={self.n}")

    @classmethod
    def from_digits(cls, digits: tuple[int, ...] | list[int]) -> "MultiIndex":
        """Build from per-qubit digits, qubit 1 first."""
        code = 0
        for pos, digit in enumerate(digits):
            if digit not in (0, 1, 2, 3):
                raise ValueError(f"digit {digit!r} not in 0..3")
            code |= digit << (2 * pos)
        return cls(len(digits), code)

    @classmethod
    def from_string(cls, text: str) -> "MultiIndex":
        """Parse a base-4 digit string, qubit 1 first (e.g. '32' -> (3, 2))."""
        return cls(len(text), _base4_code(text))

    @classmethod
    def from_bit_string(cls, text: str) -> "MultiIndex":
        """Parse a length-2n bit string in the (j_1..j_n k_1..k_n) layout."""
        if not text or len(text) % 2 or any(c not in "01" for c in text):
            raise ValueError(f"not a length-2n bit string: {text!r}")
        n = len(text) // 2
        digits = [int(text[pos]) + 2 * int(text[n + pos]) for pos in range(n)]
        return cls.from_digits(digits)

    @property
    def digits(self) -> tuple[int, ...]:
        """Per-qubit digits, qubit 1 first."""
        return tuple((self.code >> (2 * pos)) & 3 for pos in range(self.n))

    def digit(self, k: int) -> int:
        """Digit acting on qubit ``k`` (1-based)."""
        if not 1 <= k <= self.n:
            raise ValueError(f"qubit index {k} out of range 1..{self.n}")
        return (self.code >> (2 * (k - 1))) & 3

    @property
    def j_bits(self) -> int:
        """Low bits (j_1..j_n) packed into an n-bit integer, qubit 1 at bit 0."""
        return _gather_even_bits(self.code, self.n)

    @property
    def k_bits(self) -> int:
        """High bits (k_1..k_n) packed into an n-bit integer, qubit 1 at bit 0."""
        return _gather_even_bits(self.code >> 1, self.n)

    def to_string(self) -> str:
        """Base-4 digit string, qubit 1 first."""
        return "".join(str(d) for d in self.digits)

    def to_bit_string(self) -> str:
        """Length-2n bit string in the (j_1..j_n k_1..k_n) layout."""
        j = self.j_bits
        k = self.k_bits
        js = "".join(str((j >> pos) & 1) for pos in range(self.n))
        ks = "".join(str((k >> pos) & 1) for pos in range(self.n))
        return js + ks

    @property
    def weight(self) -> int:
        """Number of non-identity digits."""
        return sum(1 for d in self.digits if d != 0)

    def __xor__(self, other: "MultiIndex") -> "MultiIndex":
        return klein_add(self, other)

    def __str__(self) -> str:
        return self.to_string()


def _gather_even_bits(code: int, n: int) -> int:
    out = 0
    for pos in range(n):
        out |= ((code >> (2 * pos)) & 1) << pos
    return out


def _check_same_n(a, b) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} vs {b.n}")


def klein_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise Klein-group addition; XOR of packed codes."""
    _check_same_n(a, b)
    return MultiIndex(a.n, a.code ^ b.code)


def a_entry(alpha: int, beta: int) -> int:
    """Single-qubit conjugation sign: -1 iff alpha, beta non-identity and distinct."""
    if alpha not in (0, 1, 2, 3) or beta not in (0, 1, 2, 3):
        raise ValueError("digits must be in 0..3")
    return int(SIGN_TABLE[alpha, beta])


def A_entry(a: MultiIndex, b: MultiIndex) -> int:
    """N-qubit conjugation sign: product of per-digit signs."""
    _check_same_n(a, b)
    return -1 if _sp_parity(a.code, b.code, a.n) else 1


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


def sign_transform(vec: np.ndarray) -> np.ndarray:
    """Multiply by the n-fold Kronecker power of SIGN_TABLE, exactly.

    ``vec`` has a last axis of length ``4**n`` indexed by flat multi-index;
    leading axes are treated as a batch.  The transform is computed in-place
    style with integer butterflies (n stages of 4-point combines), so it costs
    O(n 4**n) integer operations and never materializes the 4**n x 4**n
    matrix.  The transform is its own inverse up to a factor ``4**n``.
    """
    out = np.array(vec, dtype=np.int64, copy=True)
    size = out.shape[-1]
    flat = out.reshape(-1, size)
    stride = 1
    while stride < size:
        v = flat.reshape(-1, 4, stride)
        t0 = v[:, 0, :] + v[:, 1, :] + v[:, 2, :] + v[:, 3, :]
        t1 = v[:, 0, :] + v[:, 1, :] - v[:, 2, :] - v[:, 3, :]
        t2 = v[:, 0, :] - v[:, 1, :] + v[:, 2, :] - v[:, 3, :]
        t3 = v[:, 0, :] - v[:, 1, :] - v[:, 2, :] + v[:, 3, :]
        v[:, 0, :], v[:, 1, :], v[:, 2, :], v[:, 3, :] = t0, t1, t2, t3
        stride *= 4
    return out


def pauli_string_dense(a: MultiIndex) -> np.ndarray:
    """Dense ``2**n x 2**n`` matrix of the Pauli string, qubit 1 leftmost."""
    check_qubits(a.n, DENSE_QUBIT_LIMIT, "a dense matrix")
    out = SINGLE_QUBIT_PAULIS[a.digit(1)]
    for k in range(2, a.n + 1):
        out = np.kron(out, SINGLE_QUBIT_PAULIS[a.digit(k)])
    return out


@functools.lru_cache(maxsize=8)
def pauli_basis(n: int) -> np.ndarray:
    """All ``4**n`` dense Pauli strings stacked along axis 0, flat-index order.

    The returned array is read-only and cached per ``n``.
    """
    check_qubits(n, DENSE_QUBIT_LIMIT, "a dense matrix")
    dim = 2**n
    out = np.empty((4**n, dim, dim), dtype=complex)
    for code in range(4**n):
        out[code] = pauli_string_dense(MultiIndex(n, code))
    out.setflags(write=False)
    return out
