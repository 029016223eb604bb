"""PCE maps: bitmask/basis forms, Choi spectra, closure, documents."""

import copy
import dataclasses
import json
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit.enumeration import count_channels, enumerate_subspaces
from pcekit.errors import (
    CapacityError,
    DimensionMismatchError,
    NotAChannelError,
    TracePreservationError,
)
from pcekit.maps import (
    ChoiSpectrum,
    PceMap,
    Subspace,
    channel_spectrum,
    choi_spectrum,
    closure,
    closure_witness,
    compose,
    dump_channel_document,
    is_closed_subspace,
    is_completely_positive,
    load_channel_document,
    map_to_subspace,
    reflect,
    subspace_to_map,
    tau_from_spectrum,
)
from pcekit import maps
from pcekit.maps import _decode, _preserved_code, _preserved_codes, _spectrum_counts
from pcekit.pauli import MultiIndex, sign_transform

# The five single-qubit channels: identity, depolarizing, and the three
# half-preserving flips (tau bitmasks over flat indices 0..3).
SINGLE_QUBIT_CHANNELS = {0b1111, 0b0001, 0b0011, 0b1001, 0b0101}


def test_identity_and_depolarizing_masks():
    assert PceMap.identity(2).tau == (1 << 16) - 1
    assert PceMap.depolarizing(2).tau == 1
    assert PceMap.identity(1).preserved_count == 4
    assert PceMap.depolarizing(3).preserved_indices() == [0]


def test_from_preserved_round_trip():
    m = PceMap.from_preserved(2, [0, 3, 12, 15])
    assert m.preserved_indices() == [0, 3, 12, 15]
    assert [str(i) for i in m.preserved()] == ["00", "30", "03", "33"]
    assert PceMap.from_preserved(2, m.preserved()) == m
    assert PceMap.from_preserved(2, ["00", "30", "03", "33"]) == m
    assert PceMap.from_preserved(2, ["00", MultiIndex(2, 3), 12, "33"]) == m
    with pytest.raises(ValueError):
        PceMap.from_preserved(1, [4])
    for text in ("000", "3", "4a", "-1"):
        with pytest.raises(ValueError):
            PceMap.from_preserved(2, [text])
    with pytest.raises(DimensionMismatchError):
        PceMap.from_preserved(2, ["00", MultiIndex(1, 3)])


def test_tau_vector_layout():
    m = PceMap(2, 0b1000000000000101)
    v = m.tau_vector()
    assert v.shape == (16,)
    assert list(np.nonzero(v)[0]) == [0, 2, 15]
    with pytest.raises(ValueError, match=r"expected 16 bits for n=2, got shape \(15,\)"):
        PceMap.from_bits(2, v[1:])


def test_from_bits_checks_n_first_and_takes_only_0_or_1():
    with pytest.raises(ValueError, match=r"integer qubit count, got n=1\.5"):
        PceMap.from_bits(1.5, [0] * 4)
    with pytest.raises(CapacityError):
        PceMap.from_bits(0, [1])
    for bits, message in (
        ([2, 0, 7, -1], "bit 0 is 2,"),
        ([1, 0, 0.5, 1], "bit 2 is 0.5,"),
        ([1, 0, 0, float("nan")], "bit 3 is nan,"),
        ([1, None, 0, 0], "bit 1 is None,"),
        (["1", "0", "0", "0"], "bit 0 is '1',"),
    ):
        with pytest.raises(ValueError, match=re.escape(message) + " not 0 or 1"):
            PceMap.from_bits(1, bits)
    for bits in ([1.0, 0.0, 0.0, 1.0], [True, False, False, True], np.array([1, 0, 0, 1], np.int8)):
        assert PceMap.from_bits(1, bits) == PceMap(1, 0b1001)


def test_bitmask_capacity_limits():
    with pytest.raises(CapacityError):
        PceMap(14, 1)
    with pytest.raises(CapacityError):
        PceMap(0, 1)
    with pytest.raises(ValueError):
        PceMap(1, 1 << 16)  # mask wider than 4**n
    with pytest.raises(ValueError):
        PceMap(1, -1)


def test_pce_map_tau_must_be_an_integer():
    with pytest.raises(ValueError, match=r"tau bitmask 1\.5 is not an integer"):
        PceMap(1, 1.5)
    # A numpy integer is taken as the Python int that the decoder needs.
    pce = PceMap(1, np.int64(9))
    assert type(pce.tau) is int and pce.tau_vector().tolist() == [1, 0, 0, 1]


def test_identity_checks_n_before_building_the_mask():
    tracemalloc.start()
    try:
        for n in (14, 16):
            with pytest.raises(CapacityError):
                PceMap.identity(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the n = 14 mask alone is 32 MiB


def test_single_qubit_channel_classification_exhaustive():
    channels = set()
    # The n = 2 map {10, 01} erases tau_0 and also the sum 11 of its pair.
    candidates = [PceMap(1, tau) for tau in range(1 << 4)]
    for m in candidates + [PceMap.from_preserved(2, ["10", "01"])]:
        if not m.is_trace_preserving:
            for decide in (is_closed_subspace, closure_witness, map_to_subspace):
                with pytest.raises(TracePreservationError):
                    decide(m)
            continue
        if is_closed_subspace(m):
            channels.add(m.tau)
    assert channels == SINGLE_QUBIT_CHANNELS


def test_closure_witness_frozen_example():
    # Preserved set {(0,0),(1,0),(0,2),(2,2),(3,2)}: first offending pair in
    # ascending flat order is (1,0)+(0,2), whose sum (1,2) is erased.
    m = PceMap.from_preserved(2, [0, 1, 8, 10, 11])
    assert not is_closed_subspace(m)
    a, b, missing = closure_witness(m)
    assert (str(a), str(b), str(missing)) == ("10", "02", "12")
    assert closure_witness(PceMap.identity(2)) is None


def test_map_to_subspace_error_names_witness():
    with pytest.raises(NotAChannelError, match="10 . 02"):
        map_to_subspace(PceMap.from_preserved(2, [0, 1, 8, 10, 11]))


def test_library_and_cli_never_build_the_tau_integer(monkeypatch, tmp_path):
    import contextlib
    import io

    from pcekit.cli import main
    from pcekit.generators import decompose, recompose

    def no_int(self):
        raise AssertionError("PceMap.tau read")

    # A channel at n = 3 (the dense oracle runs in check), and at n = 6 a
    # near-channel with one member erased, sparse enough for the span route.
    channel = subspace_to_map(closure(3, [0b000011, 0b010100, 0b100001]))
    sub = closure(6, [1, 2 << 4, 3 << 8, 1 << 10])
    near = PceMap.from_preserved(6, sub.members()[:-1])
    monkeypatch.setattr(PceMap, "tau", property(no_int))
    for pce, code in ((channel, 0), (near, 1)):
        path = tmp_path / f"n{pce.n}.json"
        path.write_text(json.dumps({"n": pce.n, "preserved": [str(m) for m in pce.preserved()]}))
        for fmt in ("text", "json"):
            for command in ("check", "decompose"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["--format", fmt, command, str(path)]) == code, (pce.n, command)
        assert reflect(reflect(pce, 2), 2) == pce
        dump_channel_document(pce)
    assert recompose(decompose(channel), 3) == channel
    assert subspace_to_map(map_to_subspace(channel)) == channel
    with pytest.raises(NotAChannelError):
        map_to_subspace(near)


def test_closure_decision_scans_tau_once_without_full_elimination(monkeypatch, tmp_path):
    import pcekit.gf2 as gf2
    import pcekit.maps as maps
    from pcekit.cli import main

    rng = np.random.default_rng(12)
    sub = Subspace.from_vectors(9, [int(v) for v in rng.integers(1, 4**9, size=12)])
    assert sub.dim == 12
    channel = subspace_to_map(sub)
    calls = {"decisions": 0, "unpack": 0, "rref_vectors": 0}
    closed_basis, unpack, rref = maps._closed_basis, maps._unpack, gf2.rref

    def counting_closed_basis(n, present, codes):
        calls["decisions"] += 1
        return closed_basis(n, present, codes)

    def counting_unpack(n, packed):  # the one bytes-to-bits step, `tau_vector` included
        calls["unpack"] += 1
        return unpack(n, packed)

    def counting_rref(vectors):
        vectors = list(vectors)
        calls["rref_vectors"] += len(vectors)
        return rref(vectors)

    monkeypatch.setattr(maps, "_closed_basis", counting_closed_basis)
    monkeypatch.setattr(maps, "_unpack", counting_unpack)
    monkeypatch.setattr(gf2, "rref", counting_rref)
    for call, expected in (
        (map_to_subspace, sub),
        (dump_channel_document, dump_channel_document(sub)),
    ):
        calls.update(decisions=0, unpack=0, rref_vectors=0)
        assert call(channel) == expected
        assert (calls["decisions"], calls["unpack"]) == (1, 1), call
        assert calls["rref_vectors"] <= 2 * sub.dim, call

    # Through the CLI: one closure decision and one decode per command.  The
    # witness scan and a non-channel's spectrum read the decision's arrays.
    members = sub.members()
    outsider = min(set(range(4**9)).difference(members))
    cases = (
        (members, 0, {"check": 1, "decompose": 1}),
        (members[:-1] + [outsider], 1, {"check": 1, "decompose": 1}),
        (members[:-1], 1, {"check": 1, "decompose": 1}),
    )
    for indices, code, decodes in cases:
        path = tmp_path / "channel.json"
        preserved = [str(MultiIndex(9, f)) for f in sorted(indices)]
        path.write_text(json.dumps({"n": 9, "preserved": preserved}))
        for command in ("check", "decompose"):
            calls.update(decisions=0, unpack=0)
            assert main([command, str(path)]) == code, command
            assert (calls["decisions"], calls["unpack"]) == (1, decodes[command]), (
                command,
                len(indices),
            )


def test_choi_spectrum_hand_values():
    # tau = (1,1,1,0): sign transform gives (3,1,1,-1), denominator 2.
    spec = choi_spectrum(PceMap(1, 0b0111))
    assert list(spec.numerators) == [3, 1, 1, -1]
    assert spec.value(0) == Fraction(3, 2) and spec.value(3) == Fraction(-1, 2)
    assert spec.min_value() == Fraction(-1, 2)
    assert spec.sum_value() == 2
    assert not spec.is_nonnegative
    # Identity: one eigenvalue 2**n and zeros.
    spec = choi_spectrum(PceMap.identity(1))
    assert list(spec.numerators) == [4, 0, 0, 0]
    # Depolarizing: flat spectrum 1/2**n.
    spec = choi_spectrum(PceMap.depolarizing(1))
    assert list(spec.numerators) == [1, 1, 1, 1]
    # Dephasing: (1,0,0,1) eigenvalues.
    spec = choi_spectrum(PceMap(1, 0b1001))
    assert list(spec.numerators) == [2, 0, 0, 2]


def test_choi_spectrum_numerators_are_integers_of_length_4_to_the_n():
    # Non-integral numerators are refused, not truncated to (3, 1, 1, -1).
    for numerators in ([3.7, 1.2, 1, -1], [3, 1, 1, np.nan], [np.inf, 1, 1, -1]):
        with pytest.raises(ValueError, match="Choi numerators must be integers"):
            ChoiSpectrum(1, numerators)
    with pytest.raises(ValueError, match=r"expected 4 numerators, got shape \(3,\)"):
        ChoiSpectrum(1, [3, 1, 1])
    spec = ChoiSpectrum(1, [3.0, 1.0, 1.0, -1.0])
    assert spec.numerators.dtype == np.int64 and list(spec.numerators) == [3, 1, 1, -1]


def test_choi_spectrum_refuses_numerators_beyond_int64():
    # Python ints past int64 overflowed in the conversion; uint64 ones wrapped.
    big = ([2**70, 0, 0, 0], [-(2**70), 0, 0, 0], np.array([2**63, 0, 0, 0], np.uint64))
    for numerators in big:
        with pytest.raises(ValueError, match="must be integers in the int64 range"):
            ChoiSpectrum(1, numerators)


def test_choi_spectrum_value_counts_sorted():
    spec = choi_spectrum(PceMap(1, 0b0111))
    assert spec.value_counts() == [
        (Fraction(-1, 2), 1),
        (Fraction(1, 2), 2),
        (Fraction(3, 2), 1),
    ]


def test_channel_spectrum_hand_values():
    # Depolarizing (K = 0): flat 1/2**n, no zero entry.
    assert channel_spectrum(1, 0) == [(Fraction(1, 2), 4)]
    # Dephasing (K = 1) and identity (K = 2n): 2**(K-n) on 2**(2n-K) indices.
    assert channel_spectrum(1, 1) == [(Fraction(0), 2), (Fraction(1), 2)]
    assert channel_spectrum(2, 4) == [(Fraction(0), 15), (Fraction(4), 1)]
    for K in (0, 1, 2):
        expected = choi_spectrum(subspace_to_map(closure(1, [1, 2][:K]))).value_counts()
        assert channel_spectrum(1, K) == expected


def test_channel_spectrum_allocates_nothing_of_size_four_to_the_n():
    tracemalloc.start()
    try:
        counts = channel_spectrum(16, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [(Fraction(0), 4**16 - 2**23), (Fraction(1, 128), 2**23)]
    assert sum(v * c for v, c in counts) == 2**16
    assert peak < 1 << 16


def test_channel_spectrum_rejects_bad_arguments():
    with pytest.raises(CapacityError):
        channel_spectrum(17, 0)
    with pytest.raises(CapacityError):
        channel_spectrum(0, 0)
    for K in (-1, 5, 1.0, True, None):
        with pytest.raises(ValueError):
            channel_spectrum(2, K)


def test_spectrum_sum_rule_exhaustive_two_qubits():
    # Every trace-preserving map's Choi eigenvalues sum to exactly 2**n.
    for n in (1, 2):
        masks = np.arange(1 << (4**n - 1), dtype=np.uint64)
        taus = np.zeros((masks.size, 4**n), dtype=np.int64)
        taus[:, 0] = 1
        for b in range(4**n - 1):
            taus[:, b + 1] = (masks >> np.uint64(b)) & np.uint64(1)
        sums = sign_transform(taus)[:, 0]
        assert np.all(sums == taus.sum(axis=1))
        assert int(sign_transform(np.ones(4**n, dtype=np.int64))[0]) == 4**n


def test_tau_from_spectrum_round_trip():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(50):
            tau = int(rng.integers(0, 1 << (4**n if n < 3 else 63)))
            m = PceMap(n, tau)
            assert tau_from_spectrum(choi_spectrum(m)) == m


def test_tau_from_spectrum_round_trip_needs_int64():
    # At n = 8 the numerators reach 4**8, and 4**8 * 4**8 = 2**32 is past
    # both the int32 range and float32's exact integers (2**24): the inverse
    # transform needs a 64-bit working copy.
    rng = np.random.default_rng(29)
    for density in (0.75, 1.0):
        bits = (rng.random(4**8) < density).astype(np.uint8)
        m = PceMap.from_bits(8, bits)
        spectrum = choi_spectrum(m)
        assert int(np.abs(spectrum.numerators).max()) * 4**8 >= 2**31
        assert tau_from_spectrum(spectrum) == m


def test_tau_from_spectrum_rejects_non_pce_spectra():
    with pytest.raises(ValueError, match="flat index"):
        tau_from_spectrum(ChoiSpectrum(1, np.array([3, 1, 1, 1])))


def test_spectrum_nonnegative_iff_closed_random_three_qubits():
    # 10**5 seeded trace-preserving bitmasks at n=3: min eigenvalue >= 0
    # exactly when the preserved set is a subspace.
    rng = np.random.default_rng(2024)
    count = 100_000
    draws = rng.integers(0, 2**64, size=count, dtype=np.uint64) | np.uint64(1)
    bits = np.unpackbits(draws.view(np.uint8).reshape(count, 8), bitorder="little")
    taus = bits.reshape(count, 64).astype(np.int64)
    mins = sign_transform(taus).min(axis=1)
    closed = np.fromiter(
        (is_closed_subspace(PceMap(3, int(d))) for d in draws),
        dtype=bool,
        count=count,
    )
    assert np.array_equal(mins >= 0, closed)
    # Sanity: a few known channels among the draws' complements.
    assert is_closed_subspace(PceMap(3, 1))


def test_subspace_canonicalization_and_equality():
    a = Subspace.from_vectors(2, [0b0011, 0b1100])
    b = Subspace.from_vectors(2, [0b1111, 0b1100, 0])
    assert a == b
    assert a.dim == 2
    assert a.members() == [0, 3, 12, 15]
    assert a.contains(15) and not a.contains(1)
    assert a.contains(MultiIndex(2, 15)) and not a.contains(MultiIndex(2, 1))
    with pytest.raises(DimensionMismatchError):
        Subspace.from_vectors(3, [MultiIndex(2, 5)])
    with pytest.raises(DimensionMismatchError):
        Subspace.from_vectors(2, [MultiIndex(2, 1)]).contains(MultiIndex(1, 1))
    for rows in ((0b0011, 0b1111), (1, 3)):
        with pytest.raises(ValueError, match="canonical reduced row echelon"):
            Subspace(2, rows)
    with pytest.raises(ValueError):
        Subspace(1, (4,))  # out of range


def test_subspace_is_a_frozen_slots_value():
    rng = random.Random(25)
    for n, K in ((1, 0), (1, 2), (2, 3), (4, 5), (9, 7), (16, 20)):
        basis = closure(n, [rng.randrange(4**n) for _ in range(K)]).basis
        trusted, checked = Subspace._canonical(n, basis), Subspace(n, basis)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked) == f"Subspace(n={n}, basis={basis!r})"
        assert not hasattr(trusted, "__dict__")
        for field, value in (("n", n + 1), ("basis", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trusted, field, value)
        assert (trusted.n, trusted.basis) == (n, basis)
        for copied in (pickle.loads(pickle.dumps(trusted)), copy.deepcopy(trusted)):
            assert copied == trusted and hash(copied) == hash(trusted)
            assert repr(copied) == repr(trusted)
    # Enumerated subspaces and their checked copies fall together in a set.
    stream = list(enumerate_subspaces(2, 2))
    assert len(set(stream + [Subspace(s.n, s.basis) for s in stream])) == count_channels(2, 2)


def test_indices_entering_must_be_integers_in_range():
    # Each entry point checks an index once, where it enters: a float is
    # refused, not truncated, and an index out of range is refused, not read
    # as a non-member.
    sub = Subspace.from_vectors(1, [1])
    for build, message in (
        (lambda: PceMap.from_preserved(1, [0, 2.7]), "flat index 2.7 is not an integer"),
        (lambda: Subspace.from_vectors(1, [1.9]), "flat index 1.9 is not an integer"),
        (lambda: Subspace.from_vectors(1, [4]), "flat index 4 out of range for n=1"),
        (lambda: sub.contains(1.2), "flat index 1.2 is not an integer"),
        (lambda: sub.contains(100), "flat index 100 out of range for n=1"),
        (lambda: Subspace(1, (1.0,)), "flat index 1.0 is not an integer"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
    assert sub.contains(np.int64(1)) and not sub.contains(2)
    assert PceMap.from_preserved(1, [np.int64(3)]).tau == 0b1000


def test_closure_builds_span():
    sub = closure(2, [MultiIndex(2, 5), MultiIndex(2, 8)])
    assert sub.members() == [0, 5, 8, 13]


def test_subspace_map_round_trips_all_two_qubit_channels():
    from pcekit.enumeration import enumerate_subspaces

    seen = set()
    for K in range(5):
        for sub in enumerate_subspaces(2, K):
            m = subspace_to_map(sub)
            assert m.preserved_count == 2**K
            assert is_closed_subspace(m)
            assert map_to_subspace(m) == sub
            seen.add(m.tau)
    assert len(seen) == 67


def test_subspace_to_map_capacity():
    big = Subspace.from_vectors(14, [1])
    with pytest.raises(CapacityError):
        subspace_to_map(big)


def test_is_completely_positive_dispatch():
    assert is_completely_positive(Subspace.from_vectors(2, [5]))
    assert is_completely_positive(PceMap.identity(2))
    assert not is_completely_positive(PceMap(2, 0b111))


def test_compose_bitmask_and_subspace_forms_agree():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = closure(2, [int(x) for x in rng.integers(0, 16, size=2)])
        b = closure(2, [int(x) for x in rng.integers(0, 16, size=2)])
        composed = compose(a, b)
        assert set(composed.members()) == set(a.members()) & set(b.members())
        assert compose(subspace_to_map(a), subspace_to_map(b)) == subspace_to_map(
            composed
        )
    with pytest.raises(TypeError):
        compose(PceMap.identity(2), Subspace.from_vectors(2, [1]))
    with pytest.raises(DimensionMismatchError):
        compose(PceMap.identity(1), PceMap.identity(2))


def test_reflect_is_an_involution_that_preserves_channels():
    rng = np.random.default_rng(37)
    for _ in range(50):
        m = PceMap(2, int(rng.integers(0, 1 << 16)))
        for k in (1, 2):
            assert reflect(reflect(m, k), k) == m
    # Reflection permutes indices, so channels stay channels.
    ch = PceMap.from_preserved(2, [0, 3, 12, 15])
    for k in (1, 2):
        assert is_closed_subspace(reflect(ch, k))
    with pytest.raises(ValueError, match="qubit index 3 out of range 1..2"):
        reflect(ch, 3)
    with pytest.raises(ValueError, match=r"qubit index 1\.0 is not an integer"):
        reflect(PceMap(2, 0b1011), 1.0)


def test_reflect_hand_value():
    # Reflecting along qubit 1 swaps digit values 0<->3 and 1<->2 there.
    m = PceMap.from_preserved(2, [MultiIndex.from_string("10")])
    assert reflect(m, 1).preserved_indices() == [MultiIndex.from_string("20").code]
    assert reflect(m, 2).preserved_indices() == [MultiIndex.from_string("13").code]


def test_channel_documents_round_trip():
    # Bitmask channel documents canonicalize to the basis form.
    ch = PceMap.from_preserved(2, [0, 3, 12, 15])
    doc = dump_channel_document(ch)
    assert doc == {"n": 2, "basis": ["0101", "1010"]}
    loaded = load_channel_document(doc)
    assert isinstance(loaded, Subspace)
    assert subspace_to_map(loaded) == ch
    # Non-channel masks stay in the preserved-list form.
    bad = PceMap.from_preserved(2, [0, 1, 8])
    doc = dump_channel_document(bad)
    assert doc == {"n": 2, "preserved": ["00", "10", "02"]}
    assert load_channel_document(doc) == bad


def test_document_validation_errors():
    for doc in (
        "not a dict",
        {},
        {"n": 0, "preserved": []},
        {"n": 1},
        {"n": 1, "preserved": [], "basis": []},
        {"n": 1, "preserved": "0"},
        {"n": 1, "preserved": ["00"]},
        {"n": 1, "preserved": ["4"]},
        {"n": 1, "basis": ["0"]},
        {"n": 1, "basis": [7]},
        {"n": 17, "preserved": []},
    ):
        with pytest.raises(ValueError):
            load_channel_document(doc)


def test_preserved_entry_refusals_name_the_entry():
    for entries, message in (
        ([3], "preserved entry 3 is not 1 base-4 digits"),
        (["0", True], "preserved entry True is not 1 base-4 digits"),
        (["0", None], "preserved entry None is not 1 base-4 digits"),
        (["00", "1"], "preserved entry '1' is not 2 base-4 digits"),
        (["04"], "not a base-4 digit string: '04'"),
    ):
        doc = {"n": len(entries[0]) if isinstance(entries[0], str) else 1}
        with pytest.raises(ValueError) as exc:
            load_channel_document({**doc, "preserved": entries})
        assert str(exc.value) == message
    # Library input may be flat ints; the first one out of range is named.
    for flat, bad in (([0, 16, -1], 16), ([-1], -1), ([2**70], 2**70), ([-(2**70)], -(2**70))):
        with pytest.raises(ValueError) as exc:
            PceMap.from_preserved(2, flat)
        assert str(exc.value) == f"flat index {bad} out of range for n=2"
    assert PceMap.from_preserved(2, []).tau == 0
    assert PceMap.from_preserved(2, ["00", "33", 3, MultiIndex(2, 4)]).tau == 0b1000000000011001


def test_dumped_preserved_list_bytes_are_pinned():
    # The bytes the per-index MultiIndex.to_string writer produced.
    m = PceMap.from_preserved(3, [0, 1, 6, 27, 40, 63])
    assert json.dumps(dump_channel_document(m)) == (
        '{"n": 3, "preserved": ["000", "100", "210", "321", "022", "333"]}'
    )


@st.composite
def non_closed_maps(draw):
    """Maps whose document is a "preserved" list: a drawn index set, or all
    indices but a drawn set (dense masks), on n = 1..8."""
    n = draw(st.integers(1, 8))
    drawn = draw(st.lists(st.integers(0, 4**n - 1), max_size=40))
    if draw(st.booleans()):
        drawn = sorted(set(range(4**n)) - set(drawn))
    m = PceMap.from_preserved(n, drawn)
    if m.is_trace_preserving and is_closed_subspace(m):
        m = PceMap(n, m.tau & ~1)  # erasing tau_0 keeps it a "preserved" document
    return m


@settings(deadline=None, derandomize=True, max_examples=200)
@given(non_closed_maps())
def test_preserved_documents_round_trip(m):
    doc = dump_channel_document(m)
    assert list(doc) == ["n", "preserved"]
    assert doc["preserved"] == [idx.to_string() for idx in m.preserved()]
    assert load_channel_document(json.loads(json.dumps(doc))) == m


# Each kind of bad entry, made from a valid entry of n digits.
_BAD_ENTRIES = {
    "int": lambda text, pos: int(text),
    "none": lambda text, pos: None,
    "list": lambda text, pos: list(text),
    "bool": lambda text, pos: True,
    "short": lambda text, pos: text[1:],
    "long": lambda text, pos: text + "0",
    "digit-4": lambda text, pos: text[:pos] + "4" + text[pos + 1 :],
    "non-ascii-digit": lambda text, pos: text[:pos] + "\u0663" + text[pos + 1 :],
    "space": lambda text, pos: text[:pos] + " " + text[pos + 1 :],
    "plus": lambda text, pos: text[:pos] + "+" + text[pos + 1 :],
    "minus": lambda text, pos: text[:pos] + "-" + text[pos + 1 :],
    "underscore": lambda text, pos: text[:pos] + "_" + text[pos + 1 :],
}


@st.composite
def preserved_lists(draw):
    """A valid "preserved" list on n = 1..12, duplicates allowed."""
    n = draw(st.integers(1, 12))
    digits = st.text(alphabet="0123", min_size=n, max_size=n)
    return n, draw(st.lists(digits, max_size=30))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(preserved_lists())
def test_preserved_decoder_equals_the_per_entry_rule(case):
    n, entries = case
    codes = _preserved_codes(entries, n)
    assert codes.dtype == np.int64
    assert codes.tolist() == [_preserved_code(text, n) for text in entries]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(preserved_lists(), st.sampled_from(sorted(_BAD_ENTRIES)), st.data())
def test_preserved_decoder_refuses_as_the_per_entry_rule(case, kind, data):
    n, entries = case
    at = data.draw(st.integers(0, len(entries)), label="at")
    good = data.draw(st.text(alphabet="0123", min_size=n, max_size=n), label="good")
    pos = data.draw(st.integers(0, n - 1), label="pos")
    entries = entries[:at] + [_BAD_ENTRIES[kind](good, pos)] + entries[at:]
    with pytest.raises(ValueError) as expected:
        [_preserved_code(text, n) for text in entries]
    with pytest.raises(ValueError) as got:
        load_channel_document({"n": n, "preserved": entries})
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_preserved_decoder_edge_lists():
    assert _preserved_codes([], 3).tolist() == []
    assert load_channel_document({"n": 3, "preserved": []}) == PceMap(3, 0)
    assert _preserved_codes(["12", "12", "00"], 2).tolist() == [9, 9, 0]
    assert load_channel_document({"n": 2, "preserved": ["12", "12"]}) == PceMap(2, 1 << 9)
    assert _preserved_codes(["3" * 16], 16).tolist() == [4**16 - 1]


def test_preserved_entries_are_refused_before_the_capacity_error():
    entries = ["0" * 14, "0" * 13 + "4"]
    with pytest.raises(ValueError, match="not a base-4 digit string: '0{13}4'"):
        load_channel_document({"n": 14, "preserved": entries})
    with pytest.raises(ValueError, match="preserved entry '0' is not 14 base-4 digits"):
        load_channel_document({"n": 14, "preserved": ["0" * 14, "0"]})
    with pytest.raises(CapacityError):
        load_channel_document({"n": 14, "preserved": entries[:1]})


def test_basis_document_uses_low_then_high_bit_halves():
    # Bit string j_1..j_n k_1..k_n: "0110" has j = (0,1), k = (1,0), so the
    # digits are (0 + 2*1, 1 + 2*0) = (2, 1).
    loaded = load_channel_document({"n": 2, "basis": ["0110"]})
    assert loaded.basis == (MultiIndex.from_string("21").code,)


@st.composite
def spectrum_maps(draw):
    """Masks on n = 1..7 of every kind `check` counts: dense and sparse
    random, near-channels (members erased or indices added), trace-preserving
    or not, and the zero, depolarizing and identity maps."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["dense", "sparse", "erase", "add", "zero", "depolarizing", "identity"]))
    if kind == "dense":
        tau = draw(st.integers(0, (1 << 4**n) - 1))
    elif kind == "sparse":
        tau = PceMap.from_preserved(n, draw(st.lists(st.integers(0, 4**n - 1), max_size=20))).tau
    elif kind in ("erase", "add"):
        rows = draw(st.lists(st.integers(0, 4**n - 1), max_size=2 * n))
        members = subspace_to_map(closure(n, rows)).preserved_indices()
        flips = draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=3))
        if kind == "erase":
            flips = [members[f % len(members)] for f in flips]
        tau = PceMap.from_preserved(n, set(members).symmetric_difference(flips)).tau
    else:
        tau = {"zero": 0, "depolarizing": 1, "identity": (1 << 4**n) - 1}[kind]
    if draw(st.booleans()):
        tau &= ~1  # not trace-preserving
    return PceMap(n, tau)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(spectrum_maps())
def test_spectrum_counts_equal_the_full_spectrum(pce):
    expected = choi_spectrum(pce).value_counts()
    for listed in (True, False):
        assert _spectrum_counts(pce.n, *_decode(pce, listed)) == expected
        # The span route at every n, not only at n >= _SPAN_MIN_QUBITS.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(maps, "_SPAN_MIN_QUBITS", 1)
            assert _spectrum_counts(pce.n, *_decode(pce, listed)) == expected


def test_check_of_a_map_without_tau_0_lists_no_set_positions():
    # The dense n = 10 map with tau_0 erased takes the tau-vector route: its
    # 4**10 - 1 set positions would be 8 MiB of int64 that nothing reads.
    pce = PceMap(10, (1 << 4**10) - 2)
    tracemalloc.start()
    try:
        report = maps._symbolic_report(pce)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report["is_pce"], report["is_channel"], report["popcount"]) == (False, False, 4**10 - 1)
    assert "witness" not in report
    values = [{"value": str(v), "count": c} for v, c in choi_spectrum(pce).value_counts()]
    assert report["spectrum"]["values"] == values
    assert peak < 21 << 20


def test_near_channel_spectrum_transforms_only_the_span():
    rng = random.Random(11)
    members = []
    while len(members) != 2**8:
        rows = [rng.randrange(4**11) for _ in range(8)]
        members = subspace_to_map(closure(11, rows)).preserved_indices()
    outside = 0
    while outside in members:
        outside = rng.randrange(4**11)
    sizes = []

    def recording(vec):
        sizes.append(np.size(vec))
        return sign_transform(vec)

    for near, dim in ((members[:-1], 8), (members + [outside], 9)):
        pce = PceMap.from_preserved(11, near)
        expected = choi_spectrum(pce).value_counts()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(maps, "sign_transform", recording)
            assert _spectrum_counts(11, *_decode(pce)) == expected
        assert sizes.pop() == 4 ** ((dim + 1) // 2) <= 4**5
        assert sizes == []
