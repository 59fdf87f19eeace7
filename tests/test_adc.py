from dataclasses import replace

import numpy as np
import pytest

from wiretap_adc import (
    MAX_LEVELS,
    AdcSpec,
    ComplexAdcPair,
    ComplexGain,
    ValidationError,
    WiretapChannel,
    is_symmetric_one_bit,
    one_bit,
    one_bit_pair,
    shift_thresholds,
    transition_rows,
)


def test_one_bit_is_the_sign_quantizer():
    spec = one_bit()
    assert spec.thresholds == (0.0,)
    assert spec.outputs == (-1.0, 1.0)


def test_shift_thresholds_commutes_with_translation():
    spec = AdcSpec((-0.5, 1.25), (0.0, 1.0, 2.0))
    shifted = shift_thresholds(spec, 0.75)
    assert shifted.thresholds == (-1.25, 0.5)
    assert shifted.outputs == spec.outputs
    # gain 1 and dyadic thresholds, shift and inputs: every edge-minus-mean
    # difference is exact, so the rows must match bit for bit
    chan = WiretapChannel(
        w1=ComplexGain(1.0),
        w2=ComplexGain(2.0),
        legit_adc=ComplexAdcPair(spec, spec),
        eave_adc=one_bit_pair(),
        mode="real",
    )
    moved = replace(chan, legit_adc=ComplexAdcPair(shifted, shifted))
    xs = np.array([-2.0, -0.5, 0.0, 1.25, 3.0])
    rows = transition_rows(chan, "legit", xs)
    assert np.array_equal(transition_rows(moved, "legit", xs - 0.75), rows)


def test_symmetric_one_bit_predicate():
    assert is_symmetric_one_bit(one_bit())
    assert not is_symmetric_one_bit(AdcSpec((0.1,), (-1.0, 1.0)))
    assert not is_symmetric_one_bit(AdcSpec((-1.0, 1.0), (0.0, 1.0, 2.0)))


def test_one_bit_pair_components():
    pair = one_bit_pair()
    assert pair.real_part == one_bit()
    assert pair.imag_part == one_bit()
    assert pair.joint_levels == 4


@pytest.mark.parametrize(
    "thresholds,outputs",
    [
        ((1.0, 0.0), (0.0, 1.0, 2.0)),      # not increasing
        ((0.0, 0.0), (0.0, 1.0, 2.0)),      # tie
        ((0.0,), (1.0,)),                   # too few outputs
        ((0.0,), (0.0, 1.0, 2.0)),          # too many outputs
        ((float("nan"),), (0.0, 1.0)),      # non-finite threshold
        ((0.0,), (1.0, 1.0)),               # duplicate labels
    ],
)
def test_adc_spec_validation(thresholds, outputs):
    with pytest.raises(ValidationError):
        AdcSpec(thresholds, outputs)


def test_level_cap():
    n = MAX_LEVELS + 1
    with pytest.raises(ValidationError):
        AdcSpec(tuple(float(i) for i in range(n - 1)), tuple(float(i) for i in range(n)))


def test_adc_json_round_trip():
    spec = AdcSpec((-0.25, 0.75), (3.0, 1.0, 2.0))
    assert AdcSpec.from_json(spec.to_json()) == spec
    pair = ComplexAdcPair(spec, one_bit())
    assert ComplexAdcPair.from_json(pair.to_json()) == pair
    # a bare scalar spec applies to both components
    both = ComplexAdcPair.from_json(spec.to_json())
    assert both.real_part == spec and both.imag_part == spec
    with pytest.raises(ValidationError):
        AdcSpec.from_json({"thresholds": [0.0]})
