"""Property tests: the bitmask conversion, index scan, reflection, closed-form
recompose and closed-form Choi spectrum against independent per-index, fold and
sign-transform references; the closure decision against full elimination,
the batched decision against the per-mask one and a string scan, and the
closure witness against a pair scan; `check`'s report against the public
routes;
the enumeration's unchecked subspaces against the validating constructor;
document round trips; the algebra of `compose`; `PceMap` value semantics
whichever constructor built the map; and the CLI's closed-form
`collide` against the dense collision circuit."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcekit import gf2
from pcekit.cli import main
from pcekit.dense import check_report, pauli_components
from pcekit.dynamics import CollisionSchedule, collide
from pcekit.enumeration import count_channels, enumerate_subspaces
from pcekit.errors import NotAChannelError
from pcekit.generators import decompose, generator_map, recompose, recompose_subspace
from pcekit.maps import (
    PceMap,
    _closed_basis,
    _closed_flags,
    _decode,
    _mask_bits,
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


@st.composite
def mask_batches(draw):
    """n = 1..4 and a batch of masks on n qubits with mixed popcounts: random
    masks (about half erase tau_0), channels, and channels with one index
    added or removed."""
    n = draw(st.integers(1, 4))
    masks = []
    for kind in draw(st.lists(st.sampled_from(["random", "none", "add", "remove"]))):
        if kind == "random":
            masks.append(draw(st.integers(0, (1 << 4**n) - 1)))
            continue
        members = set(draw(subspaces(n=n)).members())
        if kind == "add":
            members.add(draw(st.integers(1, 4**n - 1)))
        elif kind == "remove" and len(members) > 1:
            members.remove(draw(st.sampled_from(sorted(members)[1:])))
        masks.append(sum(1 << f for f in members))
    return n, masks


def string_scan_closed_basis(n, tau):
    """A string-scan decision: preserved indices from a scan of bin(tau),
    the rows at positions 2**i, and their sorted span compared with the
    indices.  None where tau_0 is erased or the set is not closed."""
    indices = [f for f, bit in enumerate(bin(tau)[:1:-1]) if bit == "1"]
    K = len(indices).bit_length() - 1
    if not tau & 1 or 1 << K != len(indices):
        return None
    rows = [indices[1 << i] for i in range(K)]
    return rows[::-1] if gf2.span(rows) == indices else None


# Rows 2, 4, 6 at positions 1, 2, 4 are dependent: their combinations are
# all preserved, but they span 4 of the 8 members.
DEPENDENT_ROWS = sum(1 << f for f in (0, 2, 4, 5, 6, 7, 8, 9))


@PROPERTY
@given(mask_batches())
@example((2, [DEPENDENT_ROWS, 0b1011, DEPENDENT_ROWS - 1, 0b1111]))
def test_batched_closure_decision_equals_per_mask_decision_and_string_scan(case):
    n, masks = case
    bases = [_closed_basis(n, *_decode(PceMap(n, m))) for m in masks]
    assert bases == [string_scan_closed_basis(n, m) for m in masks]
    flags = _closed_flags(n, _mask_bits(n, masks))
    assert flags.dtype == bool
    assert flags.tolist() == [basis is not None for basis in bases]
    assert _closed_flags(n, _mask_bits(n, [])).tolist() == []


@st.composite
def report_maps(draw):
    """Masks on n = 1..8 that `check` reports on: channels, near-channels
    (members erased or indices added), sparse random masks, and any of these
    with tau_0 erased.  Near-channels at n = 8 take the span route."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["channel", "erase", "add", "sparse"]))
    if kind == "sparse":
        indices = {0, *draw(st.lists(st.integers(0, 4**n - 1), max_size=20))}
    else:
        indices = set(draw(subspaces(n=n)).members())
        flips = draw(st.lists(st.integers(1, 4**n - 1), min_size=1, max_size=3))
        members = sorted(indices)[1:]
        if kind == "erase" and members:
            indices.difference_update(members[f % len(members)] for f in flips)
        elif kind == "add":
            indices.update(flips)
    pce = PceMap.from_preserved(n, indices)
    if draw(st.integers(0, 3)) == 3:
        pce = PceMap(n, pce.tau & ~1)
    return pce


REPORT_KEYS = ("n", "is_pce", "is_channel", "K", "popcount", "witness", "spectrum", "oracle")


@settings(deadline=None, derandomize=True, max_examples=300)
@given(report_maps())
def test_check_report_equals_the_public_routes(pce):
    report = check_report(pce)
    assert list(report) == [key for key in REPORT_KEYS if key in report]
    assert (report["popcount"], report["is_pce"]) == (pce.preserved_count, pce.is_trace_preserving)
    counts = choi_spectrum(pce).value_counts()
    assert report["spectrum"]["values"] == [{"value": str(v), "count": c} for v, c in counts]
    assert report["spectrum"]["min"] == str(counts[0][0])
    if not pce.is_trace_preserving:
        assert not report["is_channel"]
        assert "K" not in report and "witness" not in report
        return
    assert report["is_channel"] == is_closed_subspace(pce)
    witness = closure_witness(pce)
    if witness is not None:
        a, b, missing = (idx.to_string() for idx in witness)
        witness = {"pair": [a, b], "missing": missing}
    assert report.get("witness") == witness
    if report["is_channel"]:
        channel = map_to_subspace(pce)
        assert report["K"] == channel.dim
        # The basis form of the same channel gets the same report.
        assert check_report(channel) == report


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
    if reference is not None:
        a, b, missing = reference
        message = f"{a} + {b} gives the erased index {missing}"
        with pytest.raises(NotAChannelError, match=re.escape(message)):
            map_to_subspace(m)


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


@st.composite
def mask_pairs(draw):
    n = draw(st.integers(1, 5))
    return n, draw(st.integers(0, (1 << 4**n) - 1)), draw(st.integers(0, (1 << 4**n) - 1))


@PROPERTY
@given(mask_pairs())
@example((1, 0, 0))
@example((1, 0b1111, 0b0110))  # n = 1: four bits and four zero pad bits in one byte
def test_pce_map_is_a_value_whichever_constructor_built_it(case):
    n, t, u = case
    full = (1 << 4**n) - 1
    bits = [t >> f & 1 for f in range(4**n)]
    built = [
        PceMap(n, t),
        PceMap(n=n, tau=t),
        PceMap.from_bits(n, np.array(bits)),
        PceMap.from_preserved(n, [f for f in range(4**n) if bits[f]]),
        compose(PceMap(n, t), PceMap.identity(n)),
        compose(PceMap.from_bits(n, np.array(bits)), PceMap(n, full)),
        compose(PceMap(n, t | u), PceMap(n, t | (full ^ u))),
    ]
    for m in built:
        assert m == built[0] and hash(m) == hash(built[0])
        assert m.tau == t and type(m.tau) is int
        assert m.tau_vector().tolist() == bits and PceMap.from_bits(n, m.tau_vector()) == m
        assert m.preserved_count == t.bit_count()
        assert m.is_trace_preserving == bool(t & 1)
        assert repr(m) == f"PceMap(n={n}, tau={t})"
        for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert copied == m and hash(copied) == hash(m) and repr(copied) == repr(m)
        for field in ("n", "tau", "_packed"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, field, 0)
        assert not hasattr(m, "__dict__")
    assert len(set(built)) == 1
    for a, b in ((PceMap(n, t), PceMap(n, u)), (built[2], PceMap.from_preserved(n, []))):
        assert compose(a, b) == PceMap(n, a.tau & b.tau)
    if n < 5:
        assert PceMap(n, t) != PceMap(n + 1, t)


@PROPERTY
@given(st.data())
def test_collide_closed_form_equals_the_collision_circuit(tmp_path_factory, data):
    n = data.draw(st.integers(1, 4))
    codes = data.draw(st.lists(st.integers(0, 4**n - 1), max_size=5))
    labels = [MultiIndex(n, c) for c in codes]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    r0 = pauli_components(rho)
    keep = recompose(labels, n).tau_vector().view(bool)
    dense = pauli_components(collide(CollisionSchedule(n, tuple(labels)), rho))
    assert np.abs(dense - r0 * keep).max() < 1e-12

    # The CLI prints the closed form: kept components as given, erased ones
    # as exactly 0.
    directory = tmp_path_factory.getbasetemp()
    sched, state = directory / "collide-sched.json", directory / "collide-state.json"
    sched.write_text(json.dumps({"n": n, "labels": [a.to_string() for a in labels]}))
    state.write_text(json.dumps({"n": n, "components": r0.tolist()}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["collide", str(sched), str(state)]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == f"n: {n}"
    assert lines[1:] == [
        f"{a} {value:.12g}" if kept else f"{a} 0"
        for a, (value, kept) in enumerate(zip(r0.tolist(), keep))
    ]
