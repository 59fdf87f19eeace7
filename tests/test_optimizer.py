import math
import warnings

import numpy as np
import pytest

import oracles
from helpers import one_bit_real_channel, random_real_input, wide_case
from wiretap_adc import (
    AdcSpec,
    ComplexAdcPair,
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
    one_bit,
    one_bit_pair,
    optimize_wyner_rate,
    reflect_input,
    secrecy_rate,
)
from wiretap_adc import achievability, channel
from wiretap_adc import infotheory as infotheory_mod
from wiretap_adc import optimizer as optimizer_mod
from wiretap_adc.infotheory import _rate_arrays
from wiretap_adc.optimizer import (
    _KKT_STEP,
    KKT_GRID_POINTS,
    _better,
    _cell_ranges,
    _densities,
    _interval_bounds,
    _rate_and_gradient,
)

EASY = WiretapChannel(
    w1=ComplexGain(2.0), w2=ComplexGain(1.0),
    legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
)

FAST = OptimizeConfig(restarts=3, seed=0)


def gap_cell_channels(lo):
    """A legitimate cell (lo, lo + 2) that GAP_INPUT, at means -1000 and 1000, never reaches.

    Grid points that put mass there read D = +inf with the one-bit
    eavesdropper and NaN with the same cell at the eavesdropper.
    """
    cell = AdcSpec((lo, lo + 2.0), (0, 1, 2))
    return [
        WiretapChannel(w1=ComplexGain(1000.0), w2=ComplexGain(w2),
                       legit_adc=ComplexAdcPair(cell, one_bit()), eave_adc=eave, mode="real")
        for w2, eave in ((1.0, one_bit_pair()), (999.0, ComplexAdcPair(cell, one_bit())))
    ]


GAP_INPUT = DiscreteInput((-1.0, 1.0), (0.5, 0.5))


def test_optimize_finds_positive_rate_within_budget():
    res = optimize_wyner_rate(EASY, 2.0, FAST)
    assert res.report.rs > 0.05
    assert res.report.power <= 2.0 * (1.0 + 1e-9)
    assert res.power_budget == 2.0
    # reported rate is exact for the reported input
    again = secrecy_rate(EASY, res.input)
    assert again.rs == res.report.rs


def test_trace_schema_and_running_best():
    for config in (FAST, OptimizeConfig(restarts=4, seed=2)):
        res = optimize_wyner_rate(EASY, 2.0, config)
        assert len(res.trace) == config.restarts
        for row in res.trace:
            seed, restart, iterations, rs, power = row
            assert seed == config.seed
            assert iterations > 0
            assert power <= 2.0 * (1.0 + 1e-9)
        # the selection rule, not the maximum rate: rates within the tie
        # tolerance go to the lower power.  The trace has no points, so a row
        # tying the report on rate and power counts as not beating it.
        best = (res.report.rs, res.report.power)
        assert best in [(row[3], row[4]) for row in res.trace]
        pts = tuple(z.real for z in res.input.points)
        assert not any(_better((row[3], row[4], pts), (*best, pts)) for row in res.trace)


def test_early_stop_still_meets_the_budget():
    # after two SLSQP iterations one restart's iterate is 25 % above the budget
    res = optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=3, seed=0, max_iterations=2))
    assert all(row[4] <= 2.0 for row in res.trace)
    assert res.input.power <= 2.0


def test_slack_budget_keeps_the_tight_budget_optimum():
    # the J = 2 optimum has E[X^2] = 1.004, so it is feasible at J = 400 too;
    # starts at +-sqrt(400) would sit where every cell slope is below round-off
    tight = optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=4, seed=5))
    slack = optimize_wyner_rate(EASY, 400.0, OptimizeConfig(restarts=4, seed=5))
    assert slack.report.rs >= tight.report.rs - 1e-12


def test_unseen_outputs_keep_the_gradient_finite():
    # restart 2 here meets a zero-probability point whose row has mass on
    # outputs no other point produces at either receiver; its densities are
    # infinite at both, and their difference would be inf - inf.  The
    # iteration cap only shortens restart 1, which stalls at a one-point input.
    chan = WiretapChannel(
        w1=ComplexGain(-2.54), w2=ComplexGain(-0.33),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    config = OptimizeConfig(restarts=3, seed=33, max_iterations=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize_wyner_rate(chan, 143.6, config)
    assert res.input.power <= 143.6


def test_rate_gradient_matches_central_differences():
    # 4-level eavesdropper; the outer points sit in the tails (|w x| = 4.8)
    chan = WiretapChannel(
        w1=ComplexGain(1.2), w2=ComplexGain(-0.9),
        legit_adc=one_bit_pair(),
        eave_adc=ComplexAdcPair(AdcSpec((-1.0, 0.2, 1.5), (0.0, 1.0, 2.0, 3.0)), one_bit()),
        mode="real",
    )
    xs = np.array([-4.0, -0.3, 0.8, 3.5])
    ps = np.array([0.1, 0.3, 0.4, 0.2])
    h = 1e-5
    for receiver in ("legit", "eave"):
        fd = (
            channel.transition_rows(chan, receiver, xs + h)
            - channel.transition_rows(chan, receiver, xs - h)
        ) / (2.0 * h)
        np.testing.assert_allclose(channel._cell_slopes(chan, receiver, xs), fd, rtol=1e-6)

    def rs(x, p):
        i1, i2 = _rate_arrays(chan, x, p)
        return i1 - i2

    # the rate is a function of unnormalised probabilities too, so each
    # coordinate is perturbed on its own
    steps = h * np.eye(len(xs))
    fd = [(rs(xs + e, ps) - rs(xs - e, ps)) / (2.0 * h) for e in steps]
    fd += [(rs(xs, ps + e) - rs(xs, ps - e)) / (2.0 * h) for e in steps]
    rate, grad = _rate_and_gradient(chan, xs, ps)
    assert rate == rs(xs, ps)
    np.testing.assert_allclose(grad, fd, rtol=1e-6)


def test_rate_evaluations_per_call_stay_small(monkeypatch):
    calls = []
    rows = channel.transition_rows

    def counted(*args):
        calls.append(1)
        return rows(*args)

    monkeypatch.setattr(channel, "transition_rows", counted)
    optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=4, seed=2))
    assert 0 < len(calls) <= 1000


@pytest.mark.parametrize("restarts, builds", [(1, 0), (2, 0), (3, 1)])
def test_construction_seed_is_built_only_when_restart_2_runs(monkeypatch, restarts, builds):
    # restart 2 alone starts from the construction's points
    calls = []
    achieve_ = achievability.achieve
    monkeypatch.setattr(achievability, "achieve",
                        lambda *args: calls.append(args) or achieve_(*args))
    optimize_wyner_rate(EASY, 2.0, OptimizeConfig(restarts=restarts, seed=0))
    assert len(calls) == builds


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
    # numpy would only refuse a negative seed once the optimizer runs
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        OptimizeConfig(seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [("support_size", 2.5), ("restarts", True), ("seed", True), ("max_iterations", 1.5)],
)
def test_config_refuses_bools_and_fractions(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        OptimizeConfig(**{field: value})


def test_config_reads_integral_floats_as_ints():
    config = OptimizeConfig(support_size=3.0, restarts=2.0, seed=7.0, max_iterations=5.0)
    assert {type(v) for v in vars(config).values()} == {int}
    assert config == OptimizeConfig(support_size=3, restarts=2, seed=7, max_iterations=5)


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


def test_kkt_unseen_output_reads_infinite_density():
    # at x = 40 the legitimate receiver's lower cell underflows to 0, while the
    # weak eavesdropper's never does: every grid point x < 0 puts mass on an
    # output the legitimate P_Y never produces, so D(x) = +inf - finite
    chan = WiretapChannel(
        w1=ComplexGain(1.0), w2=ComplexGain(0.01),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    report = kkt_check(chan, DiscreteInput((40.0,), (1.0,)), 1600.0)
    assert report.max_slack_violation == math.inf


def test_wide_real_cases_read_their_rate_from_the_support_rows_of_every_kernel_call(monkeypatch):
    # the 20 real cases of the wide digest: 8-64-level ADCs, 2-5 support points
    calls = []
    kernel = infotheory_mod._information

    def counted(laws, rows, *args, **kwargs):
        calls.append(np.array(rows))
        return kernel(laws, rows, *args, **kwargs)

    for module in (infotheory_mod, optimizer_mod):
        monkeypatch.setattr(module, "_information", counted)
    grid_rows = []
    for case in range(40, 60):
        chan, dist, budget = wide_case(case)
        want = secrecy_rate(chan, dist)
        n = len(dist.points)
        support = [channel.transition_rows(chan, r, dist.real_points()) for r in channel.RECEIVERS]
        calls.clear()
        report = kkt_check(chan, dist, budget)
        # receivers alternate, each call led by that receiver's n support rows
        assert len(calls) % 2 == 0
        for k, rows in enumerate(calls):
            assert rows[:n].tobytes() == support[k % 2].tobytes()
        grid_rows.append(sum(len(rows) - n for rows in calls[::2]))
        assert repr(report.rate) == repr(want)
        calls.clear()
        rs, _ = _rate_and_gradient(chan, dist.real_points(), np.asarray(dist.probs))
        assert len(calls) == 2 and all(len(rows) == n for rows in calls)
        assert rs.hex() == want.rs.hex()
    # rows are built where the bound allows, not on the whole grid
    assert np.median(grid_rows) <= 600 < KKT_GRID_POINTS


def test_kkt_check_keeps_the_bits_of_the_full_grid():
    negative = WiretapChannel(
        w1=ComplexGain(-2.0), w2=ComplexGain(1.0),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    unseen = [
        WiretapChannel(w1=ComplexGain(1.0), w2=ComplexGain(w2), legit_adc=one_bit_pair(),
                       eave_adc=one_bit_pair(), mode="real")
        for w2 in (2.0, 0.01)
    ]
    cases = [wide_case(case) for case in range(40, 60)] + [
        (EASY, DiscreteInput((-0.5, 0.5), (0.5, 0.5)), 100.0),  # inactive budget
        (EASY, DiscreteInput((-1.0, 1.0), (0.5, 0.5)), 1.0),  # every |x|^2 = E
        (EASY, DiscreteInput((1.5,), (1.0,)), 2.25),  # one point
        (negative, DiscreteInput((-0.3, 0.2, 1.4), (0.2, 0.5, 0.3)), 1.0),
    ] + [(chan, DiscreteInput((40.0,), (1.0,)), 1600.0) for chan in unseen] + [  # NaN, +inf
        # on kkt_check's grid only points 996-1020, strictly between two coarse points
        (chan, GAP_INPUT, 1.0) for chan in gap_cell_channels(23.0)
    ]
    for chan, dist, budget in cases:
        assert repr(kkt_check(chan, dist, budget)) == repr(oracles.kkt_full_grid(chan, dist, budget))


def test_interval_bounds_hold_at_every_grid_point():
    # wide real cases, and narrow legitimate cells whose peak (x = 0, grid
    # point 1000) falls between coarse points
    narrow = [
        WiretapChannel(
            w1=ComplexGain(w1), w2=ComplexGain(0.5),
            legit_adc=ComplexAdcPair(AdcSpec(t, tuple(range(len(t) + 1))), one_bit()),
            eave_adc=one_bit_pair(), mode="real",
        )
        for w1, t in ((4.0, (-0.05, 0.05)), (-3.0, (-0.02, 0.0, 0.01, 1.0)))
    ]
    cases = [wide_case(case) for case in range(40, 60)] + [
        (chan, DiscreteInput(pts, (0.5, 0.5)), 2.0)
        for chan in narrow for pts in ((-1.5, 1.5), (0.7, 1.9))
    ] + [
        # cell (108.5, 110.5) lies 36.5 deviations from coarse point 1024 (mean
        # 72), whose row has mass there: the interval ending at that point
        # reads +inf by the mass reach alone
        (chan, GAP_INPUT, 1.0) for lo in (23.0, 108.5) for chan in gap_cell_channels(lo)
    ]
    for chan, dist, budget in cases:
        xs, probs = dist.real_points(), np.asarray(dist.probs)
        n = len(xs)
        radius = 3.0 * max(float(np.max(np.abs(xs))), math.sqrt(budget), 1.0)
        grid = np.linspace(-radius, radius, KKT_GRID_POINTS)
        coarse = np.append(np.arange(0, KKT_GRID_POINTS - 1, _KKT_STEP), KKT_GRID_POINTS - 1)
        _, d, rows, pys = _densities(chan, xs, probs, grid[coarse])
        bounds = _interval_bounds(chan, grid[coarse], [w[n:] for w in rows], pys)
        d_grid = _densities(chan, xs, probs, grid)[1][n:]
        for k, (start, end) in enumerate(zip(coarse[:-1], coarse[1:])):
            # an interval that holds D = +inf or NaN must read +inf
            assert bounds[k] == math.inf or d_grid[start:end + 1].max() < bounds[k]
        # each cell's probability stays inside the range the bound reads
        for receiver, w in zip(channel.RECEIVERS, rows):
            low, high, _ = _cell_ranges(chan, receiver, grid[coarse], w[n:])
            fine = channel.transition_rows(chan, receiver, grid)
            for k, (start, end) in enumerate(zip(coarse[:-1], coarse[1:])):
                assert (low[k] <= fine[start:end + 1]).all() and (fine[start:end + 1] <= high[k]).all()


def test_kkt_degenerate_support_fallback():
    # all points share |x|^2 = E: the least-squares slope is undefined
    dist = DiscreteInput((-1.0, 1.0), (0.5, 0.5))
    report = kkt_check(EASY, dist, 1.0)
    assert math.isfinite(report.lambda_)
    assert report.lambda_ >= 0.0
    assert report.slackness_residual <= 1e-9
