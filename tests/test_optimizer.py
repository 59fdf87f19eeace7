import math

import numpy as np
import pytest

from helpers import one_bit_real_channel, random_real_input
from wiretap_adc import (
    ComplexGain,
    DiscreteInput,
    EqualGainError,
    OptimizeConfig,
    ValidationError,
    WiretapChannel,
    achieve,
    check_support_condition,
    fold_input,
    folding_gap,
    kkt_check,
    one_bit_pair,
    optimize_wyner_rate,
    reflect_input,
    secrecy_rate,
)

EASY = WiretapChannel(
    w1=ComplexGain(2.0), w2=ComplexGain(1.0),
    legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
)

FAST = OptimizeConfig(restarts=3, seed=0)


def test_optimize_finds_positive_rate_within_budget():
    res = optimize_wyner_rate(EASY, 2.0, FAST)
    assert res.report.rs > 0.05
    assert res.report.power <= 2.0 * (1.0 + 1e-9)
    assert res.power_budget == 2.0
    # reported rate is exact for the reported input
    again = secrecy_rate(EASY, res.input)
    assert again.rs == res.report.rs


def test_trace_schema_and_running_best():
    res = optimize_wyner_rate(EASY, 2.0, FAST)
    assert len(res.trace) == FAST.restarts
    for row in res.trace:
        seed, restart, iterations, rs, power = row
        assert seed == FAST.seed
        assert iterations > 0
        assert power <= 2.0 * (1.0 + 1e-9)
    assert res.report.rs == max(row[3] for row in res.trace)


def test_determinism_and_restart_monotonicity():
    a = optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=4, seed=7))
    b = optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=4, seed=7))
    assert a.input == b.input
    assert a.report.rs == b.report.rs
    more = optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=6, seed=7))
    assert more.report.rs >= a.report.rs


def test_optimizer_beats_duty_cycled_construction():
    rng = np.random.default_rng(31)
    for _ in range(4):
        chan = one_bit_real_channel(rng, legit_weaker=bool(rng.integers(0, 2)))
        j = float(rng.uniform(0.5, 3.0))
        target = achieve(chan, power_budget=j).effective_rate
        res = optimize_wyner_rate(chan, j, OptimizeConfig(restarts=4, seed=1))
        assert res.report.rs >= target - 1e-9


def test_real_mode_required():
    chan = WiretapChannel(
        w1=ComplexGain(2.0, 0.1), w2=ComplexGain(1.0),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="complex",
    )
    with pytest.raises(ValidationError):
        optimize_wyner_rate(chan, 1.0, FAST)
    with pytest.raises(ValidationError):
        optimize_wyner_rate(EASY, 0.0, FAST)


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizeConfig(support_size=0)
    with pytest.raises(ValidationError):
        OptimizeConfig(support_size=65)
    with pytest.raises(ValidationError):
        OptimizeConfig(restarts=0)


def test_fold_input_merges_magnitudes_exactly():
    dist = DiscreteInput((-1.5, -0.25, 0.25, 2.0), (0.1, 0.2, 0.3, 0.4))
    folded = fold_input(dist)
    assert folded.points == (0.25 + 0j, 1.5 + 0j, 2.0 + 0j)
    assert folded.probs == pytest.approx((0.5, 0.1, 0.4))
    with pytest.raises(ValidationError):
        fold_input(DiscreteInput((1j,), (1.0,)))


def test_reflect_input_splits_mass_exactly():
    dist = DiscreteInput((-1.5, 0.0, 0.25, 1.5), (0.1, 0.2, 0.3, 0.4))
    reflected = reflect_input(dist)
    assert reflected.points == (-1.5 + 0j, -0.25 + 0j, 0j, 0.25 + 0j, 1.5 + 0j)
    # +/-1.5 each get half of 0.1 and half of 0.4; the zero atom stays whole
    assert reflected.probs == (0.25, 0.15, 0.2, 0.15, 0.25)
    with pytest.raises(ValidationError):
        reflect_input(DiscreteInput((1j,), (1.0,)))


def test_folding_gap_signs():
    rng = np.random.default_rng(13)
    weaker = one_bit_real_channel(rng, legit_weaker=True)
    stronger = one_bit_real_channel(rng, legit_weaker=False)
    for _ in range(10):
        mixed = random_real_input(rng, mixed=True)
        assert folding_gap(weaker, mixed) >= -1e-12
        assert folding_gap(stronger, mixed) <= 1e-12
        single = random_real_input(rng, mixed=False)
        assert abs(folding_gap(weaker, single)) <= 1e-10
        assert abs(folding_gap(stronger, single)) <= 1e-10


def test_folding_gap_preconditions():
    chan = one_bit_real_channel(np.random.default_rng(1), legit_weaker=True)
    with pytest.raises(ValidationError):
        folding_gap(chan, DiscreteInput((1.0,), (1.0,)))
    # an off-center threshold is rejected
    from wiretap_adc import AdcSpec, ComplexAdcPair, one_bit
    multi = WiretapChannel(
        w1=chan.w1, w2=chan.w2,
        legit_adc=ComplexAdcPair(AdcSpec((0.5,), (-1.0, 1.0)), one_bit()),
        eave_adc=one_bit_pair(), mode="real",
    )
    with pytest.raises(ValidationError):
        folding_gap(multi, DiscreteInput((-1.0, 1.0), (0.5, 0.5)))


def test_support_condition_verdicts():
    weaker = WiretapChannel(
        w1=ComplexGain(0.5), w2=ComplexGain(1.5),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    stronger = WiretapChannel(
        w1=ComplexGain(1.5), w2=ComplexGain(0.5),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    single = DiscreteInput((0.5, 2.0), (0.5, 0.5))
    mixed = DiscreteInput((-1.0, 2.0), (0.5, 0.5))
    v = check_support_condition(single, weaker)
    assert v.passed and v.gain_order == "legit_weaker"
    assert not check_support_condition(mixed, weaker).passed
    # the stronger ordering forbids strictly single-signed interiors
    assert not check_support_condition(single, stronger).passed
    assert check_support_condition(mixed, stronger).passed
    # zero atoms sit on the boundary of both half-lines
    with_zero = DiscreteInput((0.0, 1.0), (0.5, 0.5))
    assert check_support_condition(with_zero, weaker).passed
    assert check_support_condition(with_zero, stronger).passed
    json_keys = set(v.to_json())
    assert {"passed", "gain_order", "n_positive", "n_negative", "n_zero"} <= json_keys
    equal = WiretapChannel(
        w1=ComplexGain(1.0), w2=ComplexGain(-1.0),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    with pytest.raises(EqualGainError):
        check_support_condition(single, equal)


def test_kkt_check_on_optimized_point():
    res = optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=4, seed=2))
    report = kkt_check(EASY, res.input, 2.0)
    assert report.max_slack_violation <= 1e-3
    assert report.support_residual <= 1e-3
    assert report.slackness_residual <= 1e-9
    assert report.grid_points == 2001
    radius = 3.0 * max(max(abs(z.real) for z in res.input.points), math.sqrt(2.0), 1.0)
    assert report.grid_radius == pytest.approx(radius)
    payload = report.to_json()
    assert "lambda" in payload and "max_slack_violation" in payload


def test_kkt_inactive_budget_gives_zero_multiplier():
    # a deliberately wasteful budget leaves the constraint slack
    dist = DiscreteInput((-0.5, 0.5), (0.5, 0.5))
    report = kkt_check(EASY, dist, 100.0)
    assert report.lambda_ == 0.0
    assert report.slackness_residual == 0.0
    assert report.mean_square == pytest.approx(0.25)


def test_kkt_unseen_output_is_never_certified():
    # at x = 40 both receivers' lower cells underflow to 0, so every grid point
    # x < 0 has infinite density at both receivers and D(x) = inf - inf
    chan = WiretapChannel(
        w1=ComplexGain(1.0), w2=ComplexGain(2.0),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    report = kkt_check(chan, DiscreteInput((40.0,), (1.0,)), 1600.0)
    assert report.max_slack_violation == math.inf


def test_kkt_degenerate_support_fallback():
    # all points share |x|^2 = E: the least-squares slope is undefined
    dist = DiscreteInput((-1.0, 1.0), (0.5, 0.5))
    report = kkt_check(EASY, dist, 1.0)
    assert math.isfinite(report.lambda_)
    assert report.lambda_ >= 0.0
    assert report.slackness_residual <= 1e-9
