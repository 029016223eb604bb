"""Property tests: the bitmask conversion, index scan, reflection, closed-form
recompose and closed-form Choi spectrum against independent per-index, fold and
sign-transform references; the closure decision against full elimination and
the closure witness against a pair scan;
the enumeration's unchecked subspaces against the validating constructor;
document round trips; and the algebra of `compose`."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit import gf2
from pcekit.enumeration import count_channels, enumerate_subspaces
from pcekit.generators import decompose, generator_map, recompose, recompose_subspace
from pcekit.maps import (
    PceMap,
    Subspace,
    channel_spectrum,
    choi_spectrum,
    closure_witness,
    compose,
    dump_channel_document,
    is_closed_subspace,
    load_channel_document,
    map_to_subspace,
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
def subspaces(draw, max_n=16, n=None):
    if n is None:
        n = draw(st.integers(1, max_n))
    vectors = draw(st.lists(st.integers(0, 4**n - 1), max_size=2 * n + 2))
    return Subspace.from_vectors(n, vectors)


@st.composite
def closure_candidates(draw):
    """Trace-preserving masks: subspaces (n <= 8), some with one index added
    or removed, and random masks (n <= 4)."""
    if draw(st.booleans()):
        m = draw(bitmasks(max_n=4))
        return PceMap(m.n, m.tau | 1)
    s = draw(subspaces(max_n=8))
    members = set(s.members())
    edit = draw(st.sampled_from(["none", "add", "remove"]))
    if edit == "add":
        members.add(draw(st.integers(1, 4**s.n - 1)))
    elif edit == "remove" and len(members) > 1:
        members.remove(draw(st.sampled_from(sorted(members)[1:])))
    return PceMap.from_preserved(s.n, members)


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


@PROPERTY
@given(closure_candidates())
def test_closure_decision_equals_full_elimination(m):
    indices = m.preserved_indices()
    reference = gf2.rref(indices)
    closed = 1 << len(reference) == len(indices)
    assert is_closed_subspace(m) == closed
    if closed:
        assert map_to_subspace(m).basis == tuple(reference)


def reference_witness(m):
    """First preserved pair, in ascending flat order, whose sum is erased."""
    indices = [f for f in range(4**m.n) if m.tau >> f & 1]
    present = set(indices)
    for i, a in enumerate(indices):
        for b in indices[i + 1 :]:
            if a ^ b not in present:
                return MultiIndex(m.n, a), MultiIndex(m.n, b), MultiIndex(m.n, a ^ b)
    return None


@PROPERTY
@given(closure_candidates())
def test_closure_witness_equals_pair_scan(m):
    reference = reference_witness(m)
    assert (reference is None) == is_closed_subspace(m)
    assert closure_witness(m) == reference


def assert_canonical(s):
    """``s`` is what the validating constructor would build from its rows."""
    assert gf2.rref(list(s.basis)) == list(s.basis)
    assert Subspace(s.n, s.basis) == s


@pytest.mark.parametrize("n", [1, 2])
def test_every_enumerated_subspace_passes_validation(n):
    for K in range(2 * n + 1):
        for s in enumerate_subspaces(n, K):
            assert (s.n, s.dim) == (n, K)
            assert_canonical(s)


@PROPERTY
@given(st.data())
def test_sampled_enumerated_subspaces_pass_validation(data):
    n = data.draw(st.integers(3, 4))
    K = data.draw(st.integers(0, 2 * n))
    index = data.draw(st.integers(0, count_channels(n, K) - 1))
    s = next(itertools.islice(enumerate_subspaces(n, K), index, None))
    assert (s.n, s.dim) == (n, K)
    assert_canonical(s)


def test_enumeration_does_not_re_canonicalize(monkeypatch):
    def refuse(vectors):
        raise AssertionError("gf2.rref called while enumerating")

    monkeypatch.setattr("pcekit.maps.gf2.rref", refuse)
    assert sum(1 for K in range(5) for _ in enumerate_subspaces(2, K)) == 67


@PROPERTY
@given(subspaces())
def test_subspace_document_round_trips(s):
    assert load_channel_document(dump_channel_document(s)) == s


@PROPERTY
@given(bitmasks())
def test_bitmask_document_round_trips(m):
    loaded = load_channel_document(dump_channel_document(m))
    if isinstance(loaded, Subspace):
        loaded = subspace_to_map(loaded)
    assert loaded == m


@PROPERTY
@given(st.data())
def test_compose_is_intersection_and_a_semilattice(data):
    n = data.draw(st.integers(1, 6))
    a, b, c = (data.draw(subspaces(n=n)) for _ in range(3))
    ab = compose(a, b)
    assert set(ab.members()) == set(a.members()) & set(b.members())
    assert ab == compose(b, a)
    assert compose(ab, c) == compose(a, compose(b, c))
    assert compose(a, a) == a
