import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import oracles
from helpers import random_adc
from wiretap_adc import channel as channel_mod
from wiretap_adc import (
    AdcSpec,
    ComplexAdcPair,
    ComplexGain,
    DiscreteInput,
    ValidationError,
    WiretapChannel,
    achieve,
    apply_power_constraint,
    choose_amplitude,
    crossover_probs,
    folding_functions,
    kkt_check,
    one_bit,
    one_bit_pair,
    q_function,
    shift_thresholds,
    transition_row,
    transition_rows,
)

ROW_SUM_TOL = 1e-12


def cells_of(specs, means):
    """channel._cells of the ADCs in specs side by side."""
    return channel_mod._cells(channel_mod._edge_layout(specs), means)


def make_channel(mode="real", w1=1.0, w2=2.0, legit=None, eave=None):
    return WiretapChannel(
        w1=ComplexGain(*w1) if isinstance(w1, tuple) else ComplexGain(w1),
        w2=ComplexGain(*w2) if isinstance(w2, tuple) else ComplexGain(w2),
        legit_adc=legit or one_bit_pair(),
        eave_adc=eave or one_bit_pair(),
        mode=mode,
    )


def test_q_function_matches_oracle():
    # 37 is near the edge of normal doubles for the tail
    for x in (-37.0, -10.0, -2.0, -0.3, 0.0, 0.3, 1.0, 2.0, 10.0, 37.0):
        assert q_function(x) == pytest.approx(oracles.q_oracle(x), rel=1e-13)
    assert q_function(1.0) == pytest.approx(oracles.Q_OF_1, rel=1e-15)
    assert q_function(-2.0) == pytest.approx(oracles.Q_OF_MINUS_2, rel=1e-15)


def test_q_function_rejects_non_finite():
    with pytest.raises(ValidationError):
        q_function(float("nan"))
    with pytest.raises(ValidationError):
        q_function(float("inf"))


def unit_gain_row(spec, mean):
    """Legitimate row of a real channel with gain 1, so each entry is a cell probability."""
    chan = make_channel(mode="real", w1=1.0, legit=ComplexAdcPair(spec, spec))
    return transition_row(chan, "legit", mean)


def test_cell_probability_against_quadrature():
    spec = AdcSpec((-1.0, 0.25, 2.0), (0.0, 1.0, 2.0, 3.0))
    edges = [None, -1.0, 0.25, 2.0, None]
    for mean in (-3.0, -0.4, 0.0, 1.7, 6.0):
        row = unit_gain_row(spec, mean)
        for l in range(spec.levels):
            lo, hi = edges[l], edges[l + 1]
            want = oracles.cell_oracle(lo, hi, mean)
            assert row[l] == pytest.approx(want, rel=1e-12, abs=1e-280)


def test_cell_probability_frozen_middle_cell():
    spec = AdcSpec((-1.0, 1.0), (0.0, 1.0, 2.0))
    assert unit_gain_row(spec, 0.0)[1] == pytest.approx(
        oracles.CELL_MINUS1_1_MEAN0, rel=1e-15
    )


def test_cell_probability_underflow_clamps_to_zero():
    spec = AdcSpec((-1.0, 1.0), (0.0, 1.0, 2.0))
    # at mean 42 the middle cell is far below the underflow floor
    row = unit_gain_row(spec, 42.0)
    assert row[1] == 0.0
    assert row[2] == pytest.approx(1.0)


def test_real_mode_row_uses_real_component_only():
    chan = make_channel(mode="real", w1=0.8, w2=-1.5)
    row = transition_row(chan, "legit", 1.0)
    assert row.shape == (2,)
    assert row[1] == pytest.approx(oracles.q_oracle(-0.8), rel=1e-14)
    assert row.sum() == pytest.approx(1.0, abs=ROW_SUM_TOL)
    # the eavesdropper's negative gain flips the sign of the mean
    row2 = transition_row(chan, "eave", 1.0)
    assert row2[1] == pytest.approx(oracles.q_oracle(1.5), rel=1e-14)


def test_complex_mode_row_is_component_product():
    legit = ComplexAdcPair(AdcSpec((-0.5, 0.5), (0.0, 1.0, 2.0)), one_bit())
    chan = make_channel(mode="complex", w1=(1.0, 0.5), w2=2.0, legit=legit)
    x = complex(0.7, -0.2)
    wx = complex(1.0, 0.5) * x
    row = transition_row(chan, "legit", x)
    assert row.shape == (6,)
    lo_r = [None, -0.5, 0.5]
    hi_r = [-0.5, 0.5, None]
    for ir in range(3):
        pr = oracles.cell_oracle(lo_r[ir], hi_r[ir], wx.real)
        for ii, edge in enumerate(((None, 0.0), (0.0, None))):
            pi = oracles.cell_oracle(edge[0], edge[1], wx.imag)
            # joint index is row-major: real cell index times imag levels
            assert row[ir * 2 + ii] == pytest.approx(pr * pi, rel=1e-12)


def test_transition_rows_matches_single_row():
    rng = np.random.default_rng(7)
    eave = ComplexAdcPair(random_adc(rng), random_adc(rng))
    chan = make_channel(mode="complex", w1=(0.3, -1.1), w2=(1.2, 0.4), eave=eave)
    xs = [complex(0.0), complex(1.5, -0.5), complex(-2.0, 3.0)]
    stacked = transition_rows(chan, "eave", xs)
    for k, x in enumerate(xs):
        np.testing.assert_array_equal(stacked[k], transition_row(chan, "eave", x))
    assert np.allclose(stacked.sum(axis=1), 1.0, atol=ROW_SUM_TOL)


def test_complex_means_use_the_scalar_gain_product():
    # numpy's vectorised complex product rounds differently from Python's on
    # some inputs; the rows must be the cells of the scalar products, bit for bit
    rng = np.random.default_rng(23)
    eave = ComplexAdcPair(random_adc(rng), random_adc(rng))
    w2 = complex(*rng.normal(size=2))
    xs = (rng.normal(size=64) + 1j * rng.normal(size=64)).tolist()
    means = np.array([w2 * x for x in xs])
    assert (w2 * np.array(xs) != means).any()
    chan = make_channel(mode="complex", w2=(w2.real, w2.imag), eave=eave)
    specs = (eave.real_part, eave.imag_part)
    cells = cells_of(specs, np.stack((means.real, means.imag), axis=1))
    k = eave.real_part.levels
    want = (cells[:, :k, None] * cells[:, None, k:]).reshape(len(xs), -1)
    np.testing.assert_array_equal(transition_rows(chan, "eave", xs), want)


@pytest.mark.parametrize("seed", range(8))
def test_edge_shared_tails_keep_the_per_cell_bits(seed, caplog):
    # 2-64 levels, one ADC or two side by side, means out to +/-40 (and on
    # thresholds): every cell and slope equals the per-cell formulas bit for bit
    rng = np.random.default_rng(seed)
    for n_specs in (1, 2):
        specs = tuple(random_adc(rng, max_levels=64) for _ in range(n_specs))
        means = rng.uniform(-40.0, 40.0, size=(int(rng.integers(1, 200)), n_specs))
        means[0] = [spec.thresholds[0] for spec in specs]
        # a mean on every threshold runs both the lo == mean and hi == mean branches
        on_edges = max(spec.levels - 1 for spec in specs)
        means = np.vstack(
            [means, [[s.thresholds[i % (s.levels - 1)] for s in specs] for i in range(on_edges)]]
        )
        with caplog.at_level(logging.DEBUG, logger=channel_mod.__name__):
            cells = cells_of(specs, means)
        assert np.array_equal(cells, oracles.six_tail_cells(specs, means))
        assert cells.flags.c_contiguous
    assert "clamped" in caplog.text
    chan = make_channel(w2=float(rng.normal()), eave=ComplexAdcPair(specs[0], specs[1]))
    xs = rng.uniform(-40.0, 40.0, size=100)
    want = oracles.two_exp_cell_slopes(chan.w2.re, specs[0], xs)
    assert np.array_equal(channel_mod._cell_slopes(chan, "eave", xs), want)
    # signed zeros: means +0.0 and -0.0 on thresholds 0.0 and -0.0
    specs = (AdcSpec((-1.0, 0.0, 2.0), (0, 1, 2, 3)), AdcSpec((-0.0,), (0, 1)))
    means = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]])
    assert np.array_equal(cells_of(specs, means), oracles.six_tail_cells(specs, means))
    # a kkt_check-sized call: 2,005 means on a 64-level ADC
    specs = (random_adc(rng, min_levels=64, max_levels=64),)
    means = rng.uniform(-40.0, 40.0, size=(2005, 1))
    assert np.array_equal(cells_of(specs, means), oracles.six_tail_cells(specs, means))


def test_cells_hold_no_negative_zeros():
    # cells left of the mean are t_hi - t_lo formed afresh: negating t_lo - t_hi
    # would keep the values but turn the far tails' zeros into -0.0
    rng = np.random.default_rng(14)
    specs = (random_adc(rng, max_levels=64), random_adc(rng, max_levels=64))
    means = rng.uniform(-40.0, 40.0, size=(200, 2))
    cells = cells_of(specs, means)
    assert np.array_equal(cells, oracles.six_tail_cells(specs, means))
    assert (cells == 0.0).any() and not np.signbit(cells).any()


def test_cells_evaluate_one_tail_table_per_call(monkeypatch):
    calls = []

    def counting_ndtr(x, *args, **kwargs):
        calls.append(np.shape(x))
        return ndtr(x, *args, **kwargs)

    monkeypatch.setattr(channel_mod, "ndtr", counting_ndtr)
    rng = np.random.default_rng(3)
    specs = (random_adc(rng, max_levels=64), random_adc(rng, max_levels=64))
    means = rng.normal(size=(50, 2))
    cells_of(specs, means)
    assert calls == [(50, specs[0].levels + specs[1].levels + 2)]


def test_cells_of_no_means_keep_the_row_shape():
    rng = np.random.default_rng(6)
    specs = (random_adc(rng), random_adc(rng))
    assert cells_of(specs, np.zeros((0, 2))).shape == (0, sum(s.levels for s in specs))
    chan = make_channel(eave=ComplexAdcPair(*specs))
    assert transition_rows(chan, "eave", []).shape == (0, specs[0].levels)
    chan = make_channel(mode="complex", w2=(1.0, 0.5), eave=ComplexAdcPair(*specs))
    assert transition_rows(chan, "eave", []).shape == (0, specs[0].levels * specs[1].levels)


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("wide", [None, "legit", "eave"])
def test_both_receivers_rows_keep_the_per_receiver_bits(mode, wide):
    # one _cells call for both receivers' ADCs side by side: each receiver's
    # rows are its own transition_rows bit for bit, and C-contiguous
    rng = np.random.default_rng([17, mode == "complex", (None, "legit", "eave").index(wide)])

    def adc():
        return ComplexAdcPair(random_adc(rng, min_levels=8, max_levels=64),
                              random_adc(rng, min_levels=8, max_levels=64))

    def gain():
        return tuple(rng.normal(size=2)) if mode == "complex" else float(rng.normal())

    chan = make_channel(
        mode=mode, w1=gain(), w2=gain(),
        legit=adc() if wide == "legit" else None, eave=adc() if wide == "eave" else None,
    )
    for n in (0, 1, 40):
        xs = rng.uniform(-4.0, 4.0, size=n)
        if mode == "complex":
            xs = xs + 1j * rng.uniform(-4.0, 4.0, size=n)
        rows = channel_mod._rows(chan, channel_mod.RECEIVERS, xs)
        assert len(rows) == len(channel_mod.RECEIVERS)
        for receiver, got in zip(channel_mod.RECEIVERS, rows):
            want = transition_rows(chan, receiver, xs)
            assert got.shape == want.shape == (n, want.shape[1])
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and want.flags.c_contiguous


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_transition_rows_are_c_contiguous(mode):
    rng = np.random.default_rng(5)
    chan = make_channel(mode=mode, eave=ComplexAdcPair(random_adc(rng), random_adc(rng)))
    xs = rng.normal(size=16) * (1.0 if mode == "real" else 1.0 + 1.0j)
    for receiver in ("legit", "eave"):
        assert transition_rows(chan, receiver, xs).flags.c_contiguous


@pytest.mark.parametrize(
    "mode, xs",
    [
        ("real", [float("nan"), 1.0]),
        ("real", [float("-inf")]),
        ("complex", [complex(float("nan"), 0.0)]),
        ("complex", [1.0, complex(0.5, float("inf"))]),
    ],
)
def test_transition_rows_rejects_non_finite_inputs(mode, xs):
    chan = make_channel(mode=mode)
    with pytest.raises(ValidationError, match="finite"):
        transition_rows(chan, "legit", xs)


BPSK = DiscreteInput((-1.0, 1.0), (0.5, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ComplexGain(True),
        lambda: kkt_check(make_channel(), BPSK, True),
        lambda: achieve(make_channel(), power_budget=True),
        lambda: q_function(True),
        lambda: shift_thresholds(one_bit(), True),
        lambda: folding_functions(BPSK, True),
        lambda: ComplexGain("1"),
        lambda: q_function("1"),
        lambda: achieve(make_channel(), power_budget="1"),
        lambda: kkt_check(make_channel(), BPSK, "2"),
        lambda: apply_power_constraint(achieve(make_channel()), None),
        lambda: choose_amplitude(make_channel(mode="complex")),
        lambda: crossover_probs(make_channel(mode="complex"), None, 1.0),
        # numpy's complex scalars convert to float as their real part
        lambda: ComplexGain(np.complex128(1 + 2j)),
        lambda: q_function(np.complex64(1 + 2j)),
        lambda: achieve(make_channel(), power_budget=np.clongdouble(4 + 1j)),
    ],
    ids=["ComplexGain", "kkt_check", "achieve", "q_function", "shift_thresholds",
         "folding_functions", "ComplexGain-str", "q_function-str", "achieve-str",
         "kkt_check-str", "apply_power_constraint-None", "choose_amplitude-None",
         "crossover_probs-None", "ComplexGain-complex128", "q_function-complex64",
         "achieve-clongdouble"],
)
def test_numbers_refuse_bools(call):
    # bool is an int subclass: True would otherwise read as 1.0; a string or
    # None is refused as a number too, not left to fail as a TypeError
    with pytest.raises(ValidationError, match="must be a number"):
        call()


def test_real_mode_rejects_complex_inputs_and_gains():
    chan = make_channel(mode="real")
    with pytest.raises(ValidationError):
        transition_row(chan, "legit", complex(1.0, 0.5))
    with pytest.raises(ValidationError):
        make_channel(mode="real", w1=(1.0, 0.2))
    with pytest.raises(ValidationError):
        make_channel(mode="real", w1=0.0)


def test_receiver_name_validation():
    chan = make_channel(mode="real")
    with pytest.raises(ValidationError):
        transition_row(chan, "warden", 1.0)


def test_channel_json_round_trip():
    eave = ComplexAdcPair(AdcSpec((-0.5, 1.0), (0.0, 1.0, 2.0)), one_bit())
    chan = make_channel(mode="complex", w1=(0.2, -1.0), w2=(2.0, 0.1), eave=eave)
    assert WiretapChannel.from_json(chan.to_json()) == chan
    with pytest.raises(ValidationError):
        WiretapChannel.from_json({"mode": "complex"})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-30, 30))
def test_rows_always_sum_to_one(seed, mean_scale):
    rng = np.random.default_rng(seed)
    spec = random_adc(rng)
    chan = WiretapChannel(
        w1=ComplexGain(1.0),
        w2=ComplexGain(2.0),
        legit_adc=ComplexAdcPair(spec, spec),
        eave_adc=one_bit_pair(),
        mode="real",
    )
    row = transition_row(chan, "legit", mean_scale)
    assert abs(row.sum() - 1.0) <= ROW_SUM_TOL
    assert (row >= 0.0).all()
