"""Plumbing checks for the self-verification runner.

The suites' numeric content is exercised through the CLI verify tests and the
acceptance run; here we only pin the registry and the runner's contract.
"""

import logging
import math
from dataclasses import replace

import pytest

from wiretap_adc import ValidationError
from wiretap_adc import verification

EXPECTED_SUITES = (
    "z_rate_monotone",
    "entropy_identity",
    "entropy_gap_monotone",
    "fold_conditional_entropy",
    "folding_gap_signs",
    "construction_positivity",
    "limit_convergence",
    "qpsk",
    "closed_forms",
    "mi_oracle",
    "support_condition",
    "kkt",
)


def test_registry_names_are_frozen():
    assert tuple(name for name, *_ in verification.SUITES) == EXPECTED_SUITES


def test_subset_run_and_result_shape():
    results = verification.run_verification(seed=2, names=["closed_forms"])
    assert len(results) == 1
    res = results[0]
    assert res.passed
    assert res.cases > 0
    assert res.worst is not None and res.worst < 1e-10
    payload = res.to_json()
    assert set(payload) == {"name", "passed", "worst", "detail", "cases"}


def test_unknown_suite_name_rejected():
    with pytest.raises(ValidationError):
        verification.run_verification(names=["closed_forms", "spectral"])


def test_names_are_checked_before_any_suite_runs(monkeypatch):
    def ran(*args):
        raise AssertionError("closed_forms ran before the names were checked")

    monkeypatch.setattr(verification, "qpsk_bound", ran)
    with pytest.raises(ValidationError, match="spectral"):
        verification.run_verification(names=["closed_forms", "spectral"])
    # a bare string is not a list of one name
    with pytest.raises(ValidationError):
        verification.run_verification(names="kkt")
    # bad seeds and non-string names are refused, not left to numpy or sorted
    for kwargs in ({"seed": -1}, {"seed": 1.5}, {"names": [1, "x"]}):
        with pytest.raises(ValidationError):
            verification.run_verification(**{"names": ["closed_forms"], **kwargs})


def test_same_seed_same_worst():
    a = verification.run_verification(seed=7, names=["entropy_identity"])[0]
    b = verification.run_verification(seed=7, names=["entropy_identity"])[0]
    assert a.worst == b.worst


def test_broken_sign_invariant_is_caught(monkeypatch):
    import wiretap_adc.optimizer as optimizer

    real_gap = optimizer.folding_gap
    monkeypatch.setattr(
        optimizer, "folding_gap", lambda chan, dist: -real_gap(chan, dist)
    )
    res = verification.run_verification(names=["folding_gap_signs"])[0]
    assert not res.passed


def test_support_misses_that_folding_cannot_escape_are_caught(monkeypatch, caplog):
    # every support verdict misses; the first three reports read rate -inf,
    # which folding beats, and the last three +inf, which nothing beats: the
    # suite counts those three as hard failures
    optimize, support = verification.optimize_wyner_rate, verification.check_support_condition
    rates = iter([-math.inf] * 3 + [math.inf] * 3)

    def optimized(*args):
        result = optimize(*args)
        return replace(result, report=replace(result.report, rs=next(rates)))

    monkeypatch.setattr(verification, "optimize_wyner_rate", optimized)
    monkeypatch.setattr(verification, "check_support_condition",
                        lambda *args: replace(support(*args), passed=False))
    caplog.set_level(logging.INFO, logger=verification.__name__)
    res = verification.run_verification(names=["support_condition"])[0]
    assert (res.worst, res.cases, res.passed) == (3.0, 6, False)
    assert sum("folding found a better input" in r.message for r in caplog.records) == 3


def test_kkt_slackness_above_its_bound_is_caught(monkeypatch):
    # a slackness residual above 1e-9 reads as worst 1.0
    kkt = verification.kkt_check
    monkeypatch.setattr(verification, "kkt_check",
                        lambda *args: replace(kkt(*args), slackness_residual=2e-9))
    res = verification.run_verification(names=["kkt"])[0]
    assert (res.worst, res.cases, res.passed) == (1.0, 2, False)
