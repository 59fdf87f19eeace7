import wiretap_adc


def test_every_public_name_resolves():
    missing = [name for name in wiretap_adc.__all__ if not hasattr(wiretap_adc, name)]
    assert not missing
    exec("from wiretap_adc import *", {})
