"""Seeded benchmark inputs and the arithmetic to predict pcekit's answers.

Nothing here imports pcekit.  Channels are GF(2) subspaces of the 2n-bit
multi-index space, handled as packed codes in the layout pcekit documents:
qubit 1 sits in the two lowest bits, and each base-4 digit is ``j + 2k``.
Documents are written from these codes, and the expected results (closed-form
spectra, label sets, counts) are computed from them, so the checker never
trusts the code path it checks.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


def reduce(v: int, pivots: dict[int, int]) -> int:
    """Reduce ``v`` against rows keyed by their highest set bit."""
    while v:
        top = v.bit_length() - 1
        row = pivots.get(top)
        if row is None:
            return v
        v ^= row
    return 0


def rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        v = reduce(v, pivots)
        if v:
            pivots[v.bit_length() - 1] = v
    return len(pivots)


def span(basis) -> list[int]:
    """Every member of the span (``2**len(basis)`` codes), unsorted."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def random_subspace(rng: random.Random, n: int, K: int) -> list[int]:
    """K independent nonzero codes, drawn uniformly and kept if independent."""
    pivots: dict[int, int] = {}
    basis = []
    while len(basis) < K:
        v = rng.randrange(1, 4**n)
        r = reduce(v, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
            basis.append(v)
    return basis


def to_base4(code: int, n: int) -> str:
    return "".join(str((code >> (2 * q)) & 3) for q in range(n))


def from_base4(text: str) -> int:
    return sum(int(c) << (2 * q) for q, c in enumerate(text))


def to_bits(code: int, n: int) -> str:
    """The ``j_1..j_n k_1..k_n`` bit string of a packed code."""
    js = "".join(str((code >> (2 * q)) & 1) for q in range(n))
    ks = "".join(str((code >> (2 * q + 1)) & 1) for q in range(n))
    return js + ks


def low_bits(n: int) -> int:
    return int("01" * n, 2)


def anticommutes(a: int, b: int, n: int) -> bool:
    """Odd count of qubits where both digits are non-identity and differ."""
    low = low_bits(n)
    both = (a | a >> 1) & (b | b >> 1) & low
    differ = ((a ^ b) | (a ^ b) >> 1) & low
    return (both & differ).bit_count() % 2 == 1


def gaussian_binomial(m: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^m."""
    num = den = 1
    for i in range(k):
        num *= 2 ** (m - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def closed_form_spectrum(n: int, K: int) -> list[tuple[Fraction, int]]:
    """Choi spectrum of a K-dimensional channel, ascending by value.

    The value 2**(K-n) has multiplicity 2**(2n-K); every other eigenvalue is 0.
    """
    kept = 2 ** (2 * n - K)
    out = [(Fraction(2) ** (K - n), kept)]
    if kept < 4**n:
        out.insert(0, (Fraction(0), 4**n - kept))
    return out


def bitmask(codes, n: int) -> int:
    """Python int with bit ``f`` set for every code ``f``."""
    raw = bytearray((4**n + 7) // 8)
    for f in codes:
        raw[f >> 3] |= 1 << (f & 7)
    return int.from_bytes(raw, "little")


@dataclass(frozen=True)
class Channel:
    """A seeded candidate map: a subspace, optionally with one index flipped."""

    n: int
    basis: tuple[int, ...]
    preserved: frozenset[int] | None
    flipped: int | None = None

    @property
    def K(self) -> int:
        return len(self.basis)

    @property
    def is_channel(self) -> bool:
        return self.flipped is None

    @property
    def tau(self) -> int:
        return bitmask(self.preserved, self.n)

    def preserved_doc(self) -> dict:
        return {"n": self.n, "preserved": [to_base4(f, self.n) for f in sorted(self.preserved)]}

    def basis_doc(self) -> dict:
        return {"n": self.n, "basis": [to_bits(v, self.n) for v in self.basis]}


def make_channel(rng: random.Random, n: int, K: int) -> Channel:
    basis = tuple(random_subspace(rng, n, K))
    # Members are listed only where a bitmask exists or a test needs them.
    members = frozenset(span(basis)) if K <= 16 else None
    return Channel(n, basis, members)


def make_near_channel(rng: random.Random, n: int, K: int, erase: bool) -> Channel:
    """A channel with one index flipped, so its preserved set is not closed.

    With ``erase`` (and K >= 2) a nonzero member is erased, otherwise one
    outside index is added; both leave a preserved pair whose sum is erased.
    The caller picks which, so that the seed never changes the kind of input.
    """
    ch = make_channel(rng, n, K)
    members = sorted(ch.preserved)
    if K >= 2 and erase:
        flip = members[rng.randrange(1, len(members))]
        return Channel(n, ch.basis, ch.preserved - {flip}, flip)
    while True:
        flip = rng.randrange(1, 4**n)
        if flip not in ch.preserved:
            return Channel(n, ch.basis, ch.preserved | {flip}, flip)


def product_state(rng: random.Random, n: int) -> list[float]:
    """Pauli components of a random product state, rounded to 6 decimals.

    Each qubit gets a Bloch vector of length at most 1, and the components
    are products of per-qubit entries (1, x, y, z).
    """
    qubits = []
    for _ in range(n):
        while True:
            v = [round(rng.uniform(-1, 1), 6) for _ in range(3)]
            if sum(c * c for c in v) <= 1:
                break
        qubits.append([1.0] + v)
    out = []
    for code in range(4**n):
        value = 1.0
        for q in range(n):
            value *= qubits[q][(code >> (2 * q)) & 3]
        out.append(value)
    return out


class InputWriter:
    """Writes the seeded documents and keeps a digest of everything written.

    Operation descriptions are folded into the same digest, so two runs with
    equal digests ran the same operations on the same bytes.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._hash = hashlib.sha256()
        self._count = 0

    def write(self, stem: str, doc: dict) -> str:
        self._count += 1
        name = f"{self._count:04d}-{stem}.json"
        text = json.dumps(doc, sort_keys=True)
        (self.directory / name).write_text(text)
        self._hash.update(f"file {name}\n{text}\n".encode())
        return str(self.directory / name)

    def note(self, description: str) -> None:
        self._hash.update(f"op {description}\n".encode())

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()
