"""Property tests: the bitmask conversion, index scan, reflection, closed-form
recompose and closed-form Choi spectrum against independent per-index, fold and
sign-transform references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit.generators import decompose, generator_map, recompose, recompose_subspace
from pcekit.maps import (
    PceMap,
    Subspace,
    channel_spectrum,
    choi_spectrum,
    reflect,
    subspace_to_map,
)
from pcekit.pauli import MultiIndex

# Derandomized so that every run checks the same examples.
PROPERTY = settings(deadline=None, derandomize=True, max_examples=100)


@st.composite
def bitmasks(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return PceMap(n, draw(st.integers(0, (1 << 4**n) - 1)))


@st.composite
def subspaces(draw, max_n=16):
    n = draw(st.integers(1, max_n))
    vectors = draw(st.lists(st.integers(0, 4**n - 1), max_size=2 * n + 2))
    return Subspace.from_vectors(n, vectors)


@st.composite
def label_lists(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    codes = draw(st.lists(st.integers(0, 4**n - 1), max_size=6))
    return n, [MultiIndex(n, c) for c in codes]


@PROPERTY
@given(bitmasks(max_n=6))
def test_from_bits_inverts_tau_vector(m):
    assert PceMap.from_bits(m.n, m.tau_vector()) == m


@PROPERTY
@given(bitmasks())
def test_preserved_indices_matches_per_index_scan(m):
    assert m.preserved_indices() == [f for f in range(4**m.n) if m.tau >> f & 1]


@PROPERTY
@given(bitmasks(), st.data())
def test_reflect_is_per_index_xor_and_an_involution(m, data):
    k = data.draw(st.integers(1, m.n))
    flip = 3 << (2 * (k - 1))
    expected = sum(1 << (f ^ flip) for f in range(4**m.n) if m.tau >> f & 1)
    once = reflect(m, k)
    assert once.tau == expected
    assert reflect(once, k) == m


@PROPERTY
@given(subspaces())
def test_recompose_subspace_inverts_decompose(s):
    assert recompose_subspace(decompose(s), s.n) == s


@PROPERTY
@given(label_lists())
def test_recompose_equals_fold_of_generator_maps(case):
    n, labels = case
    tau = PceMap.identity(n).tau
    for label in labels:
        tau &= generator_map(label).tau
    assert recompose(labels, n) == PceMap(n, tau)


@PROPERTY
@given(subspaces(max_n=8))
def test_channel_spectrum_equals_sign_transform(s):
    assert channel_spectrum(s.n, s.dim) == choi_spectrum(subspace_to_map(s)).value_counts()
