import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import random_adc
from wiretap_adc import (
    ROW_SUM_TOL,
    AdcSpec,
    ComplexAdcPair,
    ComplexGain,
    DiscreteInput,
    TransitionMatrix,
    ValidationError,
    WiretapChannel,
    one_bit,
    one_bit_pair,
    output_alphabet,
    q_function,
    transition_matrix,
    transition_row,
    transition_rows,
)


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


def test_output_alphabet_layout():
    legit = ComplexAdcPair(AdcSpec((0.0,), (-1.0, 1.0)), AdcSpec((0.0,), (-1.0, 1.0)))
    chan = make_channel(mode="complex", legit=legit)
    assert output_alphabet(chan, "legit") == (
        complex(-1, -1), complex(-1, 1), complex(1, -1), complex(1, 1),
    )
    chan_r = make_channel(mode="real")
    assert output_alphabet(chan_r, "legit") == (-1.0, 1.0)


def test_transition_rows_matches_single_row():
    rng = np.random.default_rng(7)
    eave = ComplexAdcPair(random_adc(rng), random_adc(rng))
    chan = make_channel(mode="complex", w1=(0.3, -1.1), w2=(1.2, 0.4), eave=eave)
    xs = [complex(0.0), complex(1.5, -0.5), complex(-2.0, 3.0)]
    stacked = transition_rows(chan, "eave", xs)
    for k, x in enumerate(xs):
        np.testing.assert_array_equal(stacked[k], transition_row(chan, "eave", x))
    assert np.allclose(stacked.sum(axis=1), 1.0, atol=ROW_SUM_TOL)


def test_transition_matrix_alignment_and_validation():
    chan = make_channel(mode="real")
    dist = DiscreteInput((-1.0, 2.0), (0.5, 0.5))
    mat = transition_matrix(chan, "legit", dist)
    assert mat.inputs == dist.points
    assert mat.probs.shape == (2, 2)
    with pytest.raises(ValidationError):
        TransitionMatrix(inputs=(0.0,), output_alphabet=(0.0, 1.0),
                         probs=np.array([[0.7, 0.2]]))


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
