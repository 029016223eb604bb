"""Semigroup evolution, Lindbladian consistency, and the collision model."""

import itertools

import numpy as np
import pytest

from pcekit.dense import (
    apply_generator_kraus,
    apply_pce,
    from_pauli_components,
    pauli_components,
)
from pcekit.dynamics import (
    CollisionSchedule,
    DissipativeProcess,
    collide,
    collision_unitary,
    decay_rates,
    evolve,
    evolve_components,
    fixed_point_components,
    lindbladian_apply,
    pce_limit,
    process_from_json_dict,
    process_to_json_dict,
    rk4_evolve,
    schedule_from_json_dict,
    schedule_to_json_dict,
    semigroup_apply,
)
from pcekit.errors import CapacityError, DimensionMismatchError
from pcekit.generators import generator_map, recompose
from pcekit.maps import PceMap
from pcekit.pauli import MultiIndex


def _random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def test_process_validation():
    with pytest.raises(ValueError):
        DissipativeProcess.from_terms([])
    with pytest.raises(ValueError):
        DissipativeProcess.from_terms([("3", -0.5)])
    with pytest.raises(ValueError):
        DissipativeProcess.from_terms([("3", 0.0)])
    with pytest.raises(ValueError):
        DissipativeProcess.from_terms([("3", float("inf"))])
    # Each rate is finite, but Y anticommutes with both terms: its decay rate
    # would be inf, and evolve_components would compute -0.0 * inf at t = 0.
    with pytest.raises(ValueError, match="the rates must add up to a finite number"):
        DissipativeProcess.from_terms([("1", 1e308), ("3", 1e308)])
    proc = DissipativeProcess.from_terms([("1", 1e308), ("3", 7e307)])
    assert np.isfinite(decay_rates(proc)).all()
    with pytest.raises(DimensionMismatchError):
        DissipativeProcess.from_terms([("3", 1.0), ("33", 1.0)])
    with pytest.raises(ValueError, match="labels and gammas must have equal length"):
        DissipativeProcess(1, (MultiIndex(1, 3),), (1.0, 2.0))
    proc = DissipativeProcess.from_terms([("03", 1.5), ("33", 0.5)])
    assert proc.n == 2
    assert [str(v) for v in proc.labels] == ["03", "33"]


def test_decay_rates_single_term():
    proc = DissipativeProcess.from_terms([("3", 2.0)])
    # Z-conjugation damps the X and Y components at the full rate.
    assert np.array_equal(decay_rates(proc), [0.0, 2.0, 2.0, 0.0])


def test_decay_rates_additive_over_terms():
    proc = DissipativeProcess.from_terms([("1", 0.25), ("3", 1.0)])
    assert np.array_equal(decay_rates(proc), [0.0, 1.0, 1.25, 0.25])


def test_semigroup_apply_closed_form():
    rho = _random_state(1, 3)
    label = MultiIndex(1, 3)
    out = semigroup_apply(label, 1.0, np.log(2), rho)
    w = (1 + 0.5) / 2  # e^{-gamma t} = 1/2
    sigma = np.diag([1.0, -1.0])
    expected = w * rho + (1 - w) * sigma @ rho @ sigma
    assert np.abs(out - expected).max() < 1e-12
    with pytest.raises(ValueError):
        semigroup_apply(label, -1.0, 1.0, rho)
    with pytest.raises(ValueError):
        semigroup_apply(label, 1.0, -1.0, rho)
    for gamma, t in ((float("nan"), 1.0), (float("inf"), 0.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            semigroup_apply(label, gamma, t, rho)
    # t = inf is the elementary channel itself.
    limit = semigroup_apply(label, 1.0, float("inf"), rho)
    assert np.abs(limit - (rho + sigma @ rho @ sigma) / 2).max() < 1e-12


def test_rk4_rejects_bad_steps_and_times():
    proc = DissipativeProcess.from_terms([("3", 1.0)])
    rho = _random_state(1, 5)
    for t, steps in ((1.0, 0), (1.0, -3), (float("nan"), 10), (float("inf"), 10), (-1.0, 10)):
        with pytest.raises(ValueError):
            rk4_evolve(proc, rho, t, steps)
    assert np.abs(rk4_evolve(proc, rho, 0.0, 1) - rho).max() == 0


def test_semigroup_law_composition_in_time():
    proc = DissipativeProcess.from_terms([("13", 0.8), ("22", 0.4)])
    rho = _random_state(2, 7)
    r0 = pauli_components(rho)
    for s, t in ((0.3, 0.9), (0.0, 1.0), (2.0, 2.0)):
        stepwise = evolve_components(proc, evolve_components(proc, r0, s), t)
        direct = evolve_components(proc, r0, s + t)
        assert np.abs(stepwise - direct).max() < 1e-12


def test_evolve_components_takes_an_array_of_times(monkeypatch):
    import pcekit.dynamics as dynamics

    proc = DissipativeProcess.from_terms([("13", 0.8), ("22", 0.4), ("30", 1.3)])
    r0 = pauli_components(_random_state(2, 7))
    times = 3.7 * np.arange(8) / 7
    calls = []
    rates = dynamics.decay_rates
    monkeypatch.setattr(dynamics, "decay_rates", lambda p: calls.append(p) or rates(p))
    rows = evolve_components(proc, r0, times)
    assert len(calls) == 1
    # Row i is bit for bit the one-time call at times[i].
    assert rows.shape == (8, 16)
    for t, row in zip(times.tolist(), rows):
        assert np.array_equal(row, evolve_components(proc, r0, t))
    for bad, shown in (([0.0, -0.1], "-0.1"), ([0.0, float("nan"), -1.0], "nan")):
        # Only the first bad time is named.
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {shown}$"):
            evolve_components(proc, r0, np.array(bad))
    # A time is a number: not a string, a bool or a 2-D array.
    for bad in ("1.0", True, np.array([[0.0, 1.0]])):
        with pytest.raises(ValueError, match="time must be a number or a 1-D array"):
            evolve_components(proc, r0, bad)


def test_single_term_evolution_matches_semigroup_apply():
    proc = DissipativeProcess.from_terms([("31", 0.6)])
    rho = _random_state(2, 11)
    dense = semigroup_apply(MultiIndex.from_string("31"), 0.6, 1.7, rho)
    exact = evolve(proc, rho, 1.7)
    assert np.abs(dense - exact).max() < 1e-12


def test_evolve_validation():
    proc = DissipativeProcess.from_terms([("3", 1.0)])
    with pytest.raises(ValueError):
        evolve_components(proc, np.ones(4), -0.1)
    with pytest.raises(ValueError):
        evolve_components(proc, np.ones(4), float("nan"))
    with pytest.raises(DimensionMismatchError):
        evolve_components(proc, np.ones(16), 1.0)


def test_closed_form_matches_rk4_integrator():
    proc = DissipativeProcess.from_terms([("03", 1.0), ("33", 0.5), ("12", 0.25)])
    rho = _random_state(2, 19)
    t = 1.3
    exact = evolve(proc, rho, t)
    stepped = rk4_evolve(proc, rho, t, steps=200)
    assert np.abs(exact - stepped).max() < 1e-8


def test_lindbladian_is_the_time_derivative():
    proc = DissipativeProcess.from_terms([("13", 0.9), ("20", 0.3)])
    rho = _random_state(2, 23)
    derivative = pauli_components(lindbladian_apply(proc, rho))
    expected = -decay_rates(proc) * pauli_components(rho)
    assert np.abs(derivative - expected).max() < 1e-12


def test_long_time_limit_is_the_composed_channel_fixed_point():
    proc = DissipativeProcess.from_terms([("03", 1.0), ("33", 1.0)])
    rho = _random_state(2, 29)
    r0 = pauli_components(rho)
    limit_channel = pce_limit(proc)
    # The composition of the term generators is the same channel.
    assert limit_channel == recompose(list(proc.labels))
    assert limit_channel == PceMap.from_preserved(2, [0, 3, 12, 15])
    fixed = fixed_point_components(proc, r0)
    assert np.array_equal(fixed, apply_pce(limit_channel, r0))
    # A schedule with the same labels reaches the same components.
    schedule = CollisionSchedule(2, proc.labels)
    assert np.array_equal(fixed_point_components(schedule, r0), fixed)
    # gamma t = 50 is numerically "infinite" at tolerance 1e-10.
    assert np.abs(evolve_components(proc, r0, 50.0) - fixed).max() < 1e-10
    # And the fixed point really is stationary.
    assert np.abs(evolve_components(proc, fixed, 3.0) - fixed).max() < 1e-12


def test_erased_components_decay_strictly_and_monotonically():
    proc = DissipativeProcess.from_terms([("3", 1.0)])
    r0 = np.array([1.0, 0.7, -0.5, 0.4])
    rates = decay_rates(proc)
    previous = np.abs(r0)
    for t in (0.2, 0.5, 1.1, 3.0):
        r = np.abs(evolve_components(proc, r0, t))
        assert np.all(r[rates > 0] < previous[rates > 0])
        assert np.array_equal(r[rates == 0], previous[rates == 0])
        previous = r


def test_collision_unitary_is_unitary():
    for code in (1, 7, 15):
        U = collision_unitary(MultiIndex(2, code))
        assert U.shape == (8, 8)
        assert np.abs(U @ U.conj().T - np.eye(8)).max() < 1e-12
    with pytest.raises(CapacityError):
        collision_unitary(MultiIndex(5, 1))


def test_single_collision_equals_generator_kraus_pair():
    # One collision with a fresh ancilla implements (rho + sigma rho sigma)/2.
    rho = _random_state(2, 31)
    for code in (0, 3, 9, 14):
        label = MultiIndex(2, code)
        out = collide(CollisionSchedule(2, (label,)), rho)
        assert np.abs(out - apply_generator_kraus(label, rho)).max() < 1e-12
    one_qubit = _random_state(1, 31)
    with pytest.raises(DimensionMismatchError, match="state dimension 2 does not match n=2"):
        apply_generator_kraus(label, one_qubit)
    with pytest.raises(DimensionMismatchError, match="state dimension 2 does not match n=2"):
        collide(CollisionSchedule(2, (label,)), one_qubit)


def test_collision_schedule_composes_generator_masks():
    rho = _random_state(2, 37)
    labels = tuple(MultiIndex.from_string(s) for s in ("03", "33", "12"))
    out = collide(CollisionSchedule(2, labels), rho)
    mask = PceMap.identity(2)
    for label in labels:
        mask = PceMap(2, mask.tau & generator_map(label).tau)
    expected = from_pauli_components(apply_pce(mask, pauli_components(rho)))
    assert np.abs(out - expected).max() < 1e-12
    assert abs(np.trace(out).real - 1) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_collision_order_invariance():
    rho = _random_state(2, 41)
    labels = [MultiIndex.from_string(s) for s in ("10", "23", "31")]
    outputs = [
        collide(CollisionSchedule(2, perm), rho)
        for perm in itertools.permutations(labels)
    ]
    for other in outputs[1:]:
        assert np.abs(outputs[0] - other).max() < 1e-12


def test_empty_schedule_is_identity():
    rho = _random_state(1, 43)
    out = collide(CollisionSchedule(1, ()), rho)
    assert np.abs(out - rho).max() < 1e-12


def test_process_json_round_trip():
    proc = DissipativeProcess.from_terms([("03", 1.5), ("33", 0.5)])
    doc = process_to_json_dict(proc)
    assert doc == {
        "n": 2,
        "terms": [
            {"alpha": "03", "gamma": 1.5},
            {"alpha": "33", "gamma": 0.5},
        ],
    }
    assert process_from_json_dict(doc) == proc
    for bad in (
        {},
        {"n": 2, "terms": []},
        {"n": 2, "terms": [{"alpha": "03"}]},
        {"n": 2, "terms": [{"alpha": "3", "gamma": 1.0}]},
        {"n": 2, "terms": [{"alpha": "03", "gamma": -1.0}]},
    ):
        with pytest.raises((ValueError, DimensionMismatchError)):
            process_from_json_dict(bad)


def test_schedule_json_round_trip():
    sched = CollisionSchedule(2, tuple(MultiIndex.from_string(s) for s in ("03", "33")))
    doc = schedule_to_json_dict(sched)
    assert doc == {"n": 2, "labels": ["03", "33"]}
    assert schedule_from_json_dict(doc) == sched
    empty = schedule_from_json_dict({"n": 3, "labels": []})
    assert empty == CollisionSchedule(3, ())
    with pytest.raises(ValueError):
        schedule_from_json_dict({"labels": []})  # empty needs explicit n
    with pytest.raises(ValueError):
        schedule_from_json_dict({"n": 1, "labels": ["03"]})  # n conflict
    with pytest.raises(CapacityError):
        CollisionSchedule(17, ())
    with pytest.raises(DimensionMismatchError, match="schedule labels have mixed qubit counts"):
        CollisionSchedule(2, (MultiIndex(2, 3), MultiIndex(1, 3)))


def test_evolve_components_past_the_float_range_decays_to_exact_zero():
    # t * rate = 2e308 leaves the float range: the decayed components are
    # exactly 0, with no overflow warning (the suite turns one into an error).
    proc = DissipativeProcess.from_terms([("1", 1e308)])
    r0 = np.array([1.0, 0.5, -0.25, 0.5])
    out = evolve_components(proc, r0, np.array([0.0, 2.0]))
    assert np.array_equal(out, [r0, [1.0, 0.5, 0.0, 0.0]])
