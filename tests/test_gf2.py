"""Bit-packed GF(2) linear algebra."""

import numpy as np
import pytest

from pcekit import gf2


def test_rref_is_canonical_and_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(200):
        rows = [int(x) for x in rng.integers(0, 256, size=4)]
        basis = gf2.rref(rows)
        # Idempotent: reducing the reduced basis changes nothing.
        assert gf2.rref(basis) == basis
        # Strictly decreasing pivots, and each pivot appears in only its row.
        pivots = [r.bit_length() - 1 for r in basis]
        assert pivots == sorted(pivots, reverse=True)
        for i, row in enumerate(basis):
            for j, other in enumerate(basis):
                if i != j:
                    assert not (other >> pivots[i]) & 1


def test_rref_canonical_form_is_basis_independent():
    # Different generating sets of the same span reduce to the same basis.
    assert gf2.rref([0b011, 0b101]) == gf2.rref([0b110, 0b101]) == gf2.rref(
        [0b011, 0b101, 0b110]
    )


def test_rank_and_span():
    assert len(gf2.rref([])) == 0
    assert len(gf2.rref([0])) == 0
    assert len(gf2.rref([1, 2, 3])) == 2
    assert sorted(gf2.span([])) == [0]
    assert sorted(gf2.span([0b01, 0b10])) == [0, 1, 2, 3]
    assert sorted(gf2.span([0b11])) == [0, 3]


def test_span_capacity_limit():
    with pytest.raises(Exception):
        gf2.span(list(1 << i for i in range(25)))


def test_in_span():
    basis = gf2.rref([0b1100, 0b0011])
    assert gf2.in_span(0b1111, basis)
    assert gf2.in_span(0, basis)
    assert not gf2.in_span(0b0100, basis)


def test_reduce_vector_reaches_zero_exactly_on_members():
    basis = gf2.rref([0b1010, 0b0110])
    members = set(gf2.span(basis))
    for v in range(16):
        assert (gf2.reduce_vector(v, basis) == 0) == (v in members)


def test_nullspace_annihilates_and_has_right_dimension():
    rng = np.random.default_rng(7)
    width = 8
    for _ in range(100):
        rows = [int(x) for x in rng.integers(0, 1 << width, size=3)]
        null = gf2.nullspace(rows, width)
        r = len(gf2.rref(rows))
        assert len(null) == width - r
        # Every nullspace vector has even overlap with every constraint row.
        for v in null:
            for row in rows:
                assert (v & row).bit_count() % 2 == 0
        assert len(gf2.rref(null)) == len(null)
        assert gf2.rref(null) == null


def test_nullspace_of_empty_system_is_full_space():
    null = gf2.nullspace([], 4)
    assert len(null) == 4
    assert len(gf2.rref(null)) == 4


def test_intersect_matches_set_intersection():
    rng = np.random.default_rng(13)
    width = 6
    for _ in range(100):
        a = gf2.rref(int(x) for x in rng.integers(0, 1 << width, size=3))
        b = gf2.rref(int(x) for x in rng.integers(0, 1 << width, size=3))
        both = gf2.intersect(a, b, width)
        expected = sorted(set(gf2.span(a)) & set(gf2.span(b)))
        assert sorted(gf2.span(both)) == expected
