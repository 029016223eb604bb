"""Counting and duplicate-free enumeration of PCE channels.

The number of channels on ``n`` qubits with a K-dimensional preserved
subspace is the Gaussian binomial coefficient counting K-dimensional
subspaces of GF(2)^(2n).  Enumeration generates canonical RREF bases
directly — choose the pivot columns, then fill the free entries — so each
subspace appears exactly once, with no filtering of raw subsets.  The rows
are canonical by construction, so each basis goes through the one trusted
constructor, `Subspace._canonical`: it fills the two slots of the frozen
`Subspace` through their descriptors and checks nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError
from .maps import Subspace
from .pauli import _check_dimension, check_qubits

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "ChannelCensus",
    "count_channels",
    "enumerate_subspaces",
    "census",
    "recount_by_enumeration",
]

DEFAULT_ENUMERATION_LIMIT = 10**7


def count_channels(n: int, K: int) -> int:
    """Number of K-dimensional subspaces of GF(2)^(2n), exact.

    Evaluated as a ratio of q-factorial products; internally both the
    telescoped one-factor-per-step form and the ordered-bases-over-
    automorphisms form are computed and must agree.

    Raises:
        ValueError: if ``K`` is not an integer in ``0..2n`` (bools are not).
    """
    check_qubits(n)
    K = _check_dimension(n, K)
    numerator = 1
    denominator = 1
    for m in range(K):
        numerator *= 2 ** (2 * n - m) - 1
        denominator *= 2 ** (K - m) - 1
    count, rem = divmod(numerator, denominator)
    ordered = 1
    autos = 1
    for m in range(K):
        ordered *= 2 ** (2 * n) - 2**m
        autos *= 2**K - 2**m
    if rem or count * autos != ordered:
        raise ArithmeticError(f"the two subspace counts for n={n}, K={K} disagree")
    return count


def enumerate_subspaces(
    n: int, K: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[Subspace]:
    """Yield every K-dimensional subspace exactly once, deterministically.

    Order is lexicographic on (pivot-column set ascending, free-entry bits
    ascending); each yielded basis is already canonical RREF.

    Raises:
        CapacityError: if the total count exceeds ``limit`` (count attached).
    """
    total = count_channels(n, K)
    if total > limit:
        raise CapacityError(
            f"enumeration of {total} subspaces exceeds the limit {limit}"
        )
    return _generate(n, K)


def _generate(n: int, K: int) -> Iterator[Subspace]:
    """The stream behind `enumerate_subspaces`, which checked ``n`` and ``K``.

    A pivot set (rows in descending pivot order) fixes each row's candidate
    values: its pivot bit plus every subset of the non-pivot positions below
    it, in ascending order.  The product of the rows' candidates, first row
    outermost, lists every RREF basis with those pivots in the documented
    order.  The rows are canonical by construction, so each basis goes
    through `Subspace._canonical`, which sets the slots ``n`` and ``basis``
    and validates nothing, one call per basis.  For K = 0 the one empty
    pivot set gives the one empty basis.
    """
    canonical = Subspace._canonical
    for pivot_set in itertools.combinations(range(2 * n), K):
        rows = []
        for p in reversed(pivot_set):
            values = [1 << p]
            for q in range(p):
                if q not in pivot_set:
                    bit = 1 << q
                    values += [v | bit for v in values]
            rows.append(values)
        for basis in itertools.product(*rows):
            yield canonical(n, basis)


def recount_by_enumeration(n: int, K: int) -> int:
    """Stream length of `enumerate_subspaces` (cross-check of the formula)."""
    return sum(1 for _ in enumerate_subspaces(n, K))


@dataclass(frozen=True)
class ChannelCensus:
    """Per-dimension channel counts for a fixed qubit number."""

    n: int
    per_K: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_K)

    @property
    def is_symmetric(self) -> bool:
        """Whether count(K) equals count(2n - K) for every K."""
        return self.per_K == self.per_K[::-1]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "per_K": {str(K): c for K, c in enumerate(self.per_K)},
            "total": self.total,
            "symmetric": self.is_symmetric,
        }


def census(n: int) -> ChannelCensus:
    """Counts for every K from 0 to 2n, by formula."""
    return ChannelCensus(n, tuple(count_channels(n, K) for K in range(2 * n + 1)))
