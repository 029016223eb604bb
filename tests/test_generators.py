"""Elementary generator channels: construction, decomposition, symmetry."""

import numpy as np
import pytest

from pcekit.enumeration import enumerate_subspaces
from pcekit.errors import DimensionMismatchError
from pcekit.generators import (
    decompose,
    generator_map,
    generator_subspace,
    local_action,
    recompose,
    recompose_subspace,
    reflection_parity,
)
from pcekit.maps import (
    PceMap,
    compose,
    is_closed_subspace,
    map_to_subspace,
    reflect,
    subspace_to_map,
)
from pcekit.pauli import MultiIndex


def test_single_qubit_generator_masks():
    assert generator_map(MultiIndex(1, 0)) == PceMap.identity(1)
    assert generator_map(MultiIndex(1, 1)).tau == 0b0011  # keeps {I, X}
    assert generator_map(MultiIndex(1, 2)).tau == 0b0101  # keeps {I, Y}
    assert generator_map(MultiIndex(1, 3)).tau == 0b1001  # keeps {I, Z}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generators_injective_and_half_preserving(n):
    masks = set()
    for code in range(4**n):
        g = generator_map(MultiIndex(n, code))
        masks.add(g.tau)
        assert is_closed_subspace(g)
        if code == 0:
            assert g == PceMap.identity(n)
        else:
            assert g.preserved_count == 2 ** (2 * n - 1)
    assert len(masks) == 4**n


def test_generator_preserves_commutant():
    # The generator of a label keeps exactly the indices commuting with it.
    from pcekit.pauli import commutes

    for code in range(16):
        label = MultiIndex(2, code)
        kept = set(generator_map(label).preserved_indices())
        expected = {b for b in range(16) if commutes(label, MultiIndex(2, b))}
        assert kept == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_subspace_matches_bitmask_form(n):
    for code in range(4**n):
        sub = generator_subspace(MultiIndex(n, code))
        assert subspace_to_map(sub) == generator_map(MultiIndex(n, code))


def test_generator_subspace_scales_to_the_qubit_cap():
    label = MultiIndex(16, 3)  # Z on qubit 1 of 16
    sub = generator_subspace(label)
    assert sub.dim == 31
    assert sub.contains(0)
    assert sub.contains(3)  # Z itself commutes with Z
    assert not sub.contains(1)  # X anticommutes


def test_decompose_frozen_example():
    # The channel keeping {(0,0),(1,1),(0,2),(1,3)} factors canonically into
    # the generators labeled (2,2) and (1,0).
    ch = PceMap.from_preserved(2, [0, 5, 8, 13])
    labels = decompose(ch)
    assert [str(v) for v in labels] == ["22", "10"]
    assert recompose(labels) == ch


def test_decompose_identity_and_depolarizing():
    assert decompose(PceMap.identity(2)) == []
    labels = decompose(PceMap.depolarizing(2))
    assert len(labels) == 4
    assert recompose(labels) == PceMap.depolarizing(2)


def test_recompose_validation():
    with pytest.raises(ValueError):
        recompose([])  # ambiguous dimension
    assert recompose([], n=2) == PceMap.identity(2)
    with pytest.raises(DimensionMismatchError):
        recompose([MultiIndex(1, 3)], n=2)
    with pytest.raises(DimensionMismatchError):
        recompose([MultiIndex(1, 3), MultiIndex(2, 3)])
    with pytest.raises(DimensionMismatchError):
        recompose_subspace([MultiIndex(1, 3), MultiIndex(2, 3)])


def test_round_trip_all_two_qubit_channels():
    count = 0
    for K in range(5):
        for sub in enumerate_subspaces(2, K):
            ch = subspace_to_map(sub)
            labels = decompose(ch)
            assert len(labels) == 4 - K
            assert recompose(labels, n=2) == ch
            # The label set spans the annihilator, so it is duplicate-free.
            assert len({v.code for v in labels}) == len(labels)
            count += 1
    assert count == 67


def test_round_trip_seeded_three_qubit_channels():
    pool = []
    for K in range(7):
        pool.extend(enumerate_subspaces(3, K))
    assert len(pool) == 2825
    rng = np.random.default_rng(97)
    for i in rng.choice(len(pool), size=500, replace=False):
        sub = pool[int(i)]
        ch = subspace_to_map(sub)
        labels = decompose(ch)
        assert len(labels) == 6 - sub.dim
        assert recompose(labels, n=3) == ch


def test_decompose_accepts_subspace_form():
    sub = map_to_subspace(PceMap.from_preserved(2, [0, 5, 8, 13]))
    assert [str(v) for v in decompose(sub)] == ["22", "10"]


def test_semigroup_closure_reaches_every_channel():
    for n, expected in ((1, 5), (2, 67)):
        gens = [generator_map(MultiIndex(n, c)) for c in range(4**n)]
        seen = {PceMap.identity(n).tau}
        frontier = set(seen)
        while frontier:
            new = set()
            for tau in frontier:
                for g in gens:
                    t = compose(PceMap(n, tau), g).tau
                    if t not in seen:
                        seen.add(t)
                        new.add(t)
            frontier = new
        assert len(seen) == expected


def test_local_action_reads_the_digit():
    label = MultiIndex.from_string("132")
    assert local_action(label, 1) == 1
    assert local_action(label, 2) == 3
    assert local_action(label, 3) == 2
    with pytest.raises(ValueError, match="qubit index 4 out of range 1..3"):
        local_action(label, 4)
    with pytest.raises(ValueError, match=r"qubit index 1\.0 is not an integer"):
        local_action(label, 1.0)


def test_local_action_matches_dense_partial_trace():
    # Applying a two-qubit generator to a product state and tracing the other
    # qubit reproduces the single-qubit generator of the local digit.
    from pcekit.dense import apply_generator_kraus, partial_trace

    rng = np.random.default_rng(41)
    singles = []
    for _ in range(2):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = z @ z.conj().T
        singles.append(rho / np.trace(rho).real)
    product = np.kron(singles[0], singles[1])
    for code in range(16):
        label = MultiIndex(2, code)
        out = apply_generator_kraus(label, product)
        for k in (1, 2):
            reduced = partial_trace(out, [k])
            local = MultiIndex(1, local_action(label, k))
            expected = apply_generator_kraus(local, singles[k - 1])
            assert np.abs(reduced - expected).max() < 1e-12


def test_reflection_parity_hand_values():
    assert reflection_parity(MultiIndex(1, 0), 1) == 1
    assert reflection_parity(MultiIndex(1, 3), 1) == 1
    assert reflection_parity(MultiIndex(1, 1), 1) == -1
    assert reflection_parity(MultiIndex(1, 2), 1) == -1
    for k in (0, 2):
        with pytest.raises(ValueError, match=f"qubit index {k} out of range 1..1"):
            reflection_parity(MultiIndex(1, 2), k)
    with pytest.raises(ValueError, match=r"qubit index 2\.0 is not an integer"):
        reflection_parity(MultiIndex(2, 5), 2.0)


def test_generators_reflect_symmetrically_or_antisymmetrically():
    # Each generator diagram is exactly invariant under a qubit reflection or
    # exactly complemented by it, matching the reported parity.
    full = (1 << 16) - 1
    for code in range(16):
        label = MultiIndex(2, code)
        g = generator_map(label)
        for k in (1, 2):
            reflected = reflect(g, k)
            if reflection_parity(label, k) == 1:
                assert reflected == g
            else:
                assert reflected.tau == full ^ g.tau
