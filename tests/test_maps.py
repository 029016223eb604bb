"""PCE maps: bitmask/basis forms, Choi spectra, closure, documents."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

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


def test_tau_vector_layout():
    m = PceMap(2, 0b1000000000000101)
    v = m.tau_vector()
    assert v.shape == (16,)
    assert list(np.nonzero(v)[0]) == [0, 2, 15]


def test_bitmask_capacity_limits():
    with pytest.raises(CapacityError):
        PceMap(14, 1)
    with pytest.raises(CapacityError):
        PceMap(0, 1)
    with pytest.raises(ValueError):
        PceMap(1, 1 << 16)  # mask wider than 4**n
    with pytest.raises(ValueError):
        PceMap(1, -1)


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
    for tau in range(1 << 4):
        m = PceMap(1, tau)
        if not m.is_trace_preserving:
            with pytest.raises(TracePreservationError):
                is_closed_subspace(m)
            continue
        if is_closed_subspace(m):
            channels.add(tau)
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


def test_closure_decision_scans_tau_once_without_full_elimination(monkeypatch):
    import pcekit.gf2 as gf2

    rng = np.random.default_rng(12)
    sub = Subspace.from_vectors(9, [int(v) for v in rng.integers(1, 4**9, size=12)])
    assert sub.dim == 12
    channel = subspace_to_map(sub)
    counts = {"decodes": 0, "rref_vectors": 0}
    decode, rref = PceMap.tau_vector, gf2.rref

    def counting_decode(self):
        counts["decodes"] += 1
        return decode(self)

    def counting_rref(vectors):
        vectors = list(vectors)
        counts["rref_vectors"] += len(vectors)
        return rref(vectors)

    monkeypatch.setattr(PceMap, "tau_vector", counting_decode)
    monkeypatch.setattr(gf2, "rref", counting_rref)
    for call, expected in (
        (map_to_subspace, sub),
        (dump_channel_document, dump_channel_document(sub)),
    ):
        counts.update(decodes=0, rref_vectors=0)
        assert call(channel) == expected
        assert counts["decodes"] == 1, call
        assert counts["rref_vectors"] <= 2 * sub.dim, call


def test_choi_spectrum_hand_values():
    # tau = (1,1,1,0): sign transform gives (3,1,1,-1), denominator 2.
    spec = choi_spectrum(PceMap(1, 0b0111))
    assert list(spec.numerators) == [3, 1, 1, -1]
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
    # the int32 range of the inverse transform.
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
    for rows in ((0b0011, 0b1111), (1, 3)):
        with pytest.raises(ValueError, match="canonical reduced row echelon"):
            Subspace(2, rows)
    with pytest.raises(ValueError):
        Subspace(1, (4,))  # out of range


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
    with pytest.raises(ValueError):
        reflect(ch, 3)


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


def test_basis_document_uses_low_then_high_bit_halves():
    # Bit string j_1..j_n k_1..k_n: "0110" has j = (0,1), k = (1,0), so the
    # digits are (0 + 2*1, 1 + 2*0) = (2, 1).
    loaded = load_channel_document({"n": 2, "basis": ["0110"]})
    assert loaded.basis == (MultiIndex.from_string("21").code,)
