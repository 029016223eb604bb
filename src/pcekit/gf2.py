"""Bit-packed linear algebra over GF(2).

Vectors are plain Python ints; bit ``q`` of the int is coordinate ``q``.  A
basis is a list of such ints in reduced-row-echelon (RREF) canonical form:
every row's pivot is its highest set bit, pivots strictly decrease down the
list, and each pivot coordinate is zero in every other row.  The RREF basis
is unique per subspace, which makes it usable as a dedup key.
"""

from __future__ import annotations

from .errors import CapacityError

__all__ = [
    "reduce_vector",
    "rref",
    "in_span",
    "span",
    "nullspace",
    "intersect",
]


def reduce_vector(v: int, basis: list[int]) -> int:
    """Reduce ``v`` against an RREF basis; returns the canonical remainder.

    The remainder is zero iff ``v`` lies in the span.
    """
    for row in basis:
        if (v >> (row.bit_length() - 1)) & 1:
            v ^= row
    return v


def rref(vectors) -> list[int]:
    """Canonical RREF basis of the span of ``vectors`` (pivots descending)."""
    basis: list[int] = []
    for v in vectors:
        v = reduce_vector(int(v), basis)
        if v == 0:
            continue
        pivot = v.bit_length() - 1
        basis = [row ^ v if (row >> pivot) & 1 else row for row in basis]
        basis.append(v)
        basis.sort(reverse=True)
    return basis


def in_span(v: int, basis: list[int]) -> bool:
    return reduce_vector(v, basis) == 0


def span(basis: list[int], limit: int = 1 << 20) -> list[int]:
    """All ``2**len(basis)`` vectors of the span, sorted ascending."""
    if 1 << len(basis) > limit:
        raise CapacityError(f"span has 2**{len(basis)} elements; limit {limit}")
    out = [0]
    for b in basis:
        out.extend([x ^ b for x in out])
    return sorted(out)


def nullspace(rows, width: int) -> list[int]:
    """RREF basis of ``{v : parity(v & r) = 0 for every r in rows}``.

    ``width`` is the ambient dimension (number of coordinates).
    """
    reduced = rref(rows)
    pivots = [row.bit_length() - 1 for row in reduced]
    pivot_set = set(pivots)
    out = []
    for free in range(width - 1, -1, -1):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, pivot in zip(reduced, pivots):
            if (row >> free) & 1:
                v |= 1 << pivot
        out.append(v)
    return rref(out)


def intersect(basis_a: list[int], basis_b: list[int], width: int) -> list[int]:
    """RREF basis of the intersection of two spans.

    Computed via complements: the intersection is the annihilator of the sum
    of the two annihilators (all under the standard dot form).
    """
    comp = nullspace(basis_a, width) + nullspace(basis_b, width)
    return nullspace(comp, width)
