import wiretap_adc


def test_every_public_name_resolves():
    missing = [name for name in wiretap_adc.__all__ if not hasattr(wiretap_adc, name)]
    assert not missing
    exec("from wiretap_adc import *", {})


def test_value_types_have_no_instance_dict():
    spec = wiretap_adc.AdcSpec((0.0, 1.0), (0.0, 1.0, 2.0))
    pair = wiretap_adc.ComplexAdcPair(spec, wiretap_adc.one_bit())
    chan = wiretap_adc.WiretapChannel(
        w1=wiretap_adc.ComplexGain(2.0),
        w2=wiretap_adc.ComplexGain(1.0, 0.5),
        legit_adc=wiretap_adc.one_bit_pair(),
        eave_adc=pair,
    )
    dist = wiretap_adc.DiscreteInput((-1.0, 1.0), (0.5, 0.5))
    instances = (
        spec,
        pair,
        chan.w2,
        chan,
        dist,
        wiretap_adc.secrecy_rate(chan, dist),
        wiretap_adc.achieve(chan),
    )
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
