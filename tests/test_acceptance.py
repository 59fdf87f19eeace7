"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every criterion draws its cases from the seed path [1, <criterion>, <case>],
so reruns are bit-reproducible. Criterion 1 holds the binary construction to
the paper's promise: every returned input must clear the 1e-9 rate floor, and
a complex-mode channel must return one. A real-mode channel may exhaust the
search only when an independent two-point search finds no binary input above
the floor and the canonical construction's Z-channel limit rate, computed at
50 digits, is positive; each such channel is printed with both numbers.
"""

import math
import time
import tracemalloc
from math import fsum

import mpmath as mp
import numpy as np
import pytest

import oracles
from helpers import (
    c1_channel,
    c1_outcome,
    criterion1_channel,
    one_bit_real_channel,
    random_adc,
    random_adc_pair,
    random_gain,
    random_real_input,
    random_stochastic_matrix,
    sha256_lines,
)
from wiretap_adc import (
    AdcSpec,
    ComplexAdcPair,
    ConstructOptions,
    DiscreteInput,
    OptimizeConfig,
    WiretapChannel,
    binary_entropy,
    check_support_condition,
    choose_amplitude,
    fold_input,
    folding_gap,
    kkt_check,
    one_bit_pair,
    optimize_wyner_rate,
    q_function,
    qpsk_bound,
    reduce_to_symmetric,
    reflect_input,
    secrecy_rate,
    z_rate,
)
from wiretap_adc.achievability import PHI_GRID
from wiretap_adc.infotheory import _information
from wiretap_adc.verification import _limit_deviation

SEED = 1


def rng_for(criterion, case):
    return np.random.default_rng([SEED, criterion, case])


def verdict(number, name, passed, detail):
    # leading newline: pytest's progress dots leave the cursor mid-line
    print(f"\nC{number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


@pytest.fixture(scope="module")
def construction_runs():
    """200 seeded constructions, shared between criteria 1 and 3."""
    runs = []
    start = time.perf_counter()
    for case in range(200):
        chan = c1_channel(case)
        outcome = c1_outcome(chan)
        diag = outcome if isinstance(outcome, dict) else None
        runs.append((case, chan, None if diag else outcome, diag))
    return runs, time.perf_counter() - start


def _certify_exhaustion(chan, best_rate):
    """Whether a real-mode exhaustion is certified, and the numbers behind it.

    Certified: no two-point input clears the floor, the search sees at least
    what the construction saw, and the canonical limit rate is positive.
    """
    two_point, _ = oracles.real_two_point_max(chan)
    limit = oracles.canonical_limit_rate(chan, choose_amplitude(chan), PHI_GRID)
    ok = best_rate - 1e-12 <= two_point <= 1e-9 and limit > 0
    return ok, f"two-point max={two_point:.3e} limit rate={mp.nstr(limit, 3)}"


def test_c01_construction_positivity(construction_runs):
    runs, elapsed = construction_runs
    above = 0
    failures = []
    certified = []
    for case, chan, result, diag in runs:
        if result is not None:
            if result.exact_rate.rs > 1e-9:
                above += 1
            else:
                failures.append((case, chan, f"rs={result.exact_rate.rs:.3e}"))
        elif chan.mode == "complex":
            failures.append((case, chan, f"exhausted, best_rate={diag['best_rate']:.3e}"))
        else:
            ok, detail = _certify_exhaustion(chan, diag["best_rate"])
            line = (case, chan, f"exhausted, best_rate={diag['best_rate']:.3e} {detail}")
            (certified if ok else failures).append(line)
    ok = not failures and elapsed < 120.0
    verdict(
        1,
        "binary construction positivity",
        ok,
        f"{above}/{len(runs)} above 1e-9 in {elapsed:.1f}s; "
        f"{len(certified)} certified real-mode exhaustions",
    )
    for label, lines in (("certified", certified), ("FAILED", failures)):
        for case, chan, detail in lines:
            print(
                f"  {label} config {case}: mode={chan.mode} |w1|={chan.w1.magnitude:.6f} "
                f"|w2|={chan.w2.magnitude:.6f} {detail}"
            )
    assert elapsed < 120.0
    assert not failures


def test_c01_reported_rates_equal_fresh_secrecy_rates(construction_runs):
    """The construction's rates, evaluated from shared rows, are secrecy_rate's bits."""
    runs, _ = construction_runs
    returned = [(case, chan, result) for case, chan, result, _ in runs if result is not None]
    assert returned
    for case, chan, result in returned:
        fresh = secrecy_rate(chan, result.input)
        for field in ("i1", "i2", "rs", "power"):
            assert getattr(result.exact_rate, field) == getattr(fresh, field), (case, field)


# sha256 over the repr of every C1 result (exhaustion diagnostics for an
# exhausted config), one per line: the 200 default constructions, the first
# 100 in mode "best" with the trace kept, the 200 in mode "first" with the
# trace kept, and the 200 in mode "best" without a trace (the trace turns the
# scan's pair skip off).  A construction speedup must keep every bit of them.
C1_RESULTS_SHA256 = "e706ea6df233adb6e9e5c9fb905d2faabb83b48bed65e11c57b2b43dd53d31ab"
C1_BEST_TRACED_SHA256 = "68fd48fc6b7b39bf98473e6b2bce9a7bb7e452015b6af80eb2e388b8997d3d52"
C1_FIRST_TRACED_SHA256 = "80b9bab6e133af588828ac4261f78b75e64c70e9a4a190763037d93b0265e95a"
C1_BEST_SHA256 = "ecf04e86cf693d417b00bcb86cdf6ac6f0ed158053d133bbaae425e9840b1dff"


def test_c01_results_are_byte_identical_to_frozen_digests(construction_runs):
    runs, _ = construction_runs
    reprs = [repr(diag if result is None else result) for _, _, result, diag in runs]
    assert sha256_lines(reprs) == C1_RESULTS_SHA256
    for configs, options, expected in (
        (range(100), ConstructOptions(mode="best", keep_trace=True), C1_BEST_TRACED_SHA256),
        (range(200), ConstructOptions(keep_trace=True), C1_FIRST_TRACED_SHA256),
        (range(200), ConstructOptions(mode="best"), C1_BEST_SHA256),
    ):
        reprs = [repr(c1_outcome(c1_channel(case), options)) for case in configs]
        assert sha256_lines(reprs) == expected


# sha256 over repr(to_json()) of results, one per line; repr pins the key
# order too.  C1: every C1 config with no power budget and with 0.5
# (exhaustion diagnostics for an exhausted config).  Reduced: C1-family
# channels whose one-bit legitimate ADC is off-centre, so the reduction sets
# translation and reduced_rate.  QPSK/KKT: criterion 8's QPSK bounds and KKT
# reports of seeded real inputs.
C1_JSON_SHA256 = "5c6f93a4ad4b37fc92b9a9781a57d22e84fd46037623d6b2c082f06990ceb836"
REDUCED_JSON_SHA256 = "1db8eb4114f1021f64651775bf8edf2074cf35390b559dfffe65abf4fcf2f3f1"
QPSK_KKT_JSON_SHA256 = "9630aeb572c5817582911f59b64ddf0053370bdf2a704b9076736ec12021417b"


def _achieve_json_repr(chan, power_budget):
    outcome = c1_outcome(chan, power_budget=power_budget)
    return repr(outcome if isinstance(outcome, dict) else outcome.to_json())


def test_result_json_is_byte_identical_to_frozen_digests():
    chans = [c1_channel(case) for case in range(200)]
    reprs = [_achieve_json_repr(chan, pb) for chan in chans for pb in (None, 0.5)]
    assert sha256_lines(reprs) == C1_JSON_SHA256
    reprs = []
    for case in range(20):
        rng = rng_for(2, 100 + case)
        chan = criterion1_channel(rng, "real" if case % 2 else "complex")
        offsets = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.05, 1.0, 2)
        legit = ComplexAdcPair(*(AdcSpec((float(t),), (-1.0, 1.0)) for t in offsets))
        chan = WiretapChannel(w1=chan.w1, w2=chan.w2, legit_adc=legit,
                              eave_adc=chan.eave_adc, mode=chan.mode)
        reprs.append(_achieve_json_repr(chan, 0.5 if case % 4 < 2 else None))
    assert sum("'reduced_rate': {" in r for r in reprs) > 10
    assert sha256_lines(reprs) == REDUCED_JSON_SHA256
    reprs = []
    for case in range(20):
        rng = rng_for(8, case)
        m2 = float(rng.uniform(0.1, 1.2))
        chan = WiretapChannel(
            w1=random_gain(rng, m2 + float(rng.uniform(0.1, 2.5)), "complex"),
            w2=random_gain(rng, m2, "complex"),
            legit_adc=one_bit_pair(),
            eave_adc=one_bit_pair(),
            mode="complex",
        )
        reprs.append(repr(qpsk_bound(chan, float(rng.uniform(0.5, 4.0))).to_json()))
    for case in range(5):
        rng = rng_for(10, 100 + case)
        chan = one_bit_real_channel(rng, legit_weaker=bool(case % 2))
        dist = random_real_input(rng)
        reprs.append(repr(kkt_check(chan, dist, float(rng.uniform(0.5, 4.0))).to_json()))
    assert sha256_lines(reprs) == QPSK_KKT_JSON_SHA256


# A construction keeps every point's rows and scores pairs in chunks; this
# caps the temporaries those chunks may hold (the worst, config 168, reads ~675 KB)
C1_OP_PEAK_BYTES = 1 << 20


def test_c01_per_op_memory_peak_stays_bounded():
    peaks = []
    tracemalloc.start()
    try:
        for case in range(200):
            chan = c1_channel(case)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            c1_outcome(chan)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    worst = max(range(200), key=peaks.__getitem__)
    assert peaks[worst] <= C1_OP_PEAK_BYTES, (worst, peaks[worst])


def _random_complex_input(rng):
    n = int(rng.integers(2, 5))
    while True:
        pts = np.round(rng.uniform(-2.0, 2.0, n), 6) + 1j * np.round(
            rng.uniform(-2.0, 2.0, n), 6
        )
        if len(set(pts.tolist())) == n:
            break
    probs = rng.dirichlet(np.ones(n))
    return DiscreteInput(tuple(pts.tolist()), tuple(float(p) for p in probs))


def _c2_channel(rng, mode, legit_adc):
    return WiretapChannel(
        w1=random_gain(rng, float(rng.uniform(0.3, 3.0)), mode),
        w2=random_gain(rng, float(rng.uniform(0.3, 3.0)), mode),
        legit_adc=legit_adc,
        eave_adc=random_adc_pair(rng),
        mode=mode,
    )


def _translated(dist, translation):
    return DiscreteInput(
        tuple(z + translation for z in dist.points), dist.probs
    )


def test_c02_threshold_translation():
    worst_eq = 0.0
    worst_gain = math.inf
    for case in range(50):
        rng = rng_for(2, case)
        mode = "real" if case % 2 else "complex"
        offset = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0))
        legit = ComplexAdcPair(
            AdcSpec((offset,), (-1.0, 1.0)),
            AdcSpec((float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0)),),
                    (-1.0, 1.0)),
        )
        chan = _c2_channel(rng, mode, legit)
        dist = random_real_input(rng) if mode == "real" else _random_complex_input(rng)
        reduced, translation = reduce_to_symmetric(chan)
        rs_reduced = secrecy_rate(reduced, dist).rs
        rs_original = secrecy_rate(chan, _translated(dist, translation)).rs
        worst_eq = max(worst_eq, abs(rs_original - rs_reduced))
    for case in range(50, 75):
        rng = rng_for(2, case)
        mode = "real" if case % 2 else "complex"
        legit = ComplexAdcPair(
            random_adc(rng, lo=-1.5, hi=1.5, min_levels=3, max_levels=4),
            random_adc(rng, lo=-1.5, hi=1.5, min_levels=3, max_levels=4),
        )
        chan = _c2_channel(rng, mode, legit)
        dist = random_real_input(rng) if mode == "real" else _random_complex_input(rng)
        reduced, translation = reduce_to_symmetric(chan)
        rs_reduced = secrecy_rate(reduced, dist).rs
        rs_original = secrecy_rate(chan, _translated(dist, translation)).rs
        worst_gain = min(worst_gain, rs_original - rs_reduced)
    ok = worst_eq <= 1e-10 and worst_gain >= -1e-12
    verdict(
        2,
        "threshold translation equivalence",
        ok,
        f"one-bit max |diff| {worst_eq:.3e}; multi-level min gain {worst_gain:.3e}",
    )
    assert worst_eq <= 1e-10
    assert worst_gain >= -1e-12


def test_c03_limit_agreement(construction_runs):
    runs, _ = construction_runs
    worst = 0.0
    checked = 0
    for _, chan, result, _ in runs:
        if result is None:
            continue
        dev, n = _limit_deviation(chan, result)
        if dev is None or n == 0:
            continue
        worst = max(worst, dev)
        checked += n
    ok = checked > 0 and worst <= 1e-6
    verdict(
        3,
        "large-amplitude limit agreement",
        ok,
        f"max |exact - limit| {worst:.3e} over {checked} amplitudes",
    )
    assert checked > 0
    assert worst <= 1e-6


def test_c04_one_bit_closed_forms():
    worst = 0.0
    mags = np.linspace(0.25, 2.5, 10)
    budgets = np.linspace(0.4, 4.0, 10)
    for w, j in zip(mags, budgets):
        w, j = float(w), float(j)
        root = math.sqrt(j)
        chan = WiretapChannel(
            w1=random_gain(np.random.default_rng(0), w, "real"),
            w2=random_gain(np.random.default_rng(1), w + 1.0, "real"),
            legit_adc=one_bit_pair(),
            eave_adc=one_bit_pair(),
            mode="real",
        )
        bpsk = DiscreteInput((-root, root), (0.5, 0.5))
        closed = 1.0 - binary_entropy(q_function(abs(chan.w1.re) * root))
        worst = max(worst, abs(secrecy_rate(chan, bpsk).i1 - closed))

        chan_c = WiretapChannel(
            w1=random_gain(np.random.default_rng(2), w, "complex"),
            w2=random_gain(np.random.default_rng(3), w + 1.0, "complex"),
            legit_adc=one_bit_pair(),
            eave_adc=one_bit_pair(),
            mode="complex",
        )
        closed_c = 2.0 * (1.0 - binary_entropy(q_function(w * math.sqrt(j / 2.0))))
        worst = max(worst, abs(qpsk_bound(chan_c, j).i1 - closed_c))
    ok = worst <= 1e-12
    verdict(4, "one-bit closed forms", ok, f"max |rate - closed form| {worst:.3e}")
    assert worst <= 1e-12


def test_c05_monotonicity_grids():
    grid = np.round(np.arange(0.01, 0.995, 0.01), 10)
    min_drop = math.inf
    for phi in grid:
        vals = [z_rate(float(phi), float(p)) for p in grid]
        min_drop = min(min_drop, min(lo - hi for lo, hi in zip(vals[:-1], vals[1:])))

    def gap(c, d):
        return binary_entropy(c - d) - binary_entropy(c + d)

    cd = [v for v in grid if v < 0.5]
    min_c_rise = math.inf
    min_d_drop = math.inf
    for d in cd:
        vals = [gap(float(c), float(d)) for c in cd if c > d]
        if len(vals) > 1:
            min_c_rise = min(
                min_c_rise, min(hi - lo for lo, hi in zip(vals[:-1], vals[1:]))
            )
    for c in cd:
        vals = [gap(float(c), float(d)) for d in cd if d < c]
        if len(vals) > 1:
            min_d_drop = min(
                min_d_drop, min(lo - hi for lo, hi in zip(vals[:-1], vals[1:]))
            )
    ok = min_drop > 0.0 and min_c_rise > 0.0 and min_d_drop > 0.0
    verdict(
        5,
        "rate and entropy-gap monotonicity",
        ok,
        f"min steps {min_drop:.3e} / {min_c_rise:.3e} / {min_d_drop:.3e}",
    )
    assert min_drop > 0.0
    assert min_c_rise > 0.0
    assert min_d_drop > 0.0


def _mixed_input(rng):
    while True:
        dist = random_real_input(rng, mixed=True)
        xs = dist.real_points()
        neg = fsum(p for x, p in zip(xs, dist.probs) if x < 0.0)
        pos = fsum(p for x, p in zip(xs, dist.probs) if x > 0.0)
        if neg >= 0.05 and pos >= 0.05:
            return dist


def test_c06_folding_gap_signs():
    worst_mixed = math.inf
    worst_single = 0.0
    for ordering, legit_weaker in enumerate((True, False)):
        for case in range(500):
            rng = rng_for(6, ordering * 500 + case)
            chan = one_bit_real_channel(rng, legit_weaker)
            if case % 2 == 0:
                gap = folding_gap(chan, _mixed_input(rng))
                signed = gap if legit_weaker else -gap
                worst_mixed = min(worst_mixed, signed)
            else:
                gap = folding_gap(chan, random_real_input(rng, mixed=False))
                worst_single = max(worst_single, abs(gap))
    ok = worst_mixed > 1e-8 and worst_single <= 1e-10
    verdict(
        6,
        "folding gap signs",
        ok,
        f"min mixed |gap| {worst_mixed:.3e}; max single-sign |gap| {worst_single:.3e}",
    )
    assert worst_mixed > 1e-8
    assert worst_single <= 1e-10


def test_c07_optimizer_support_pattern():
    hard_failures = 0
    soft_failures = 0
    cases = 0
    notes = []
    for ordering, legit_weaker in enumerate((True, False)):
        for case in range(20):
            rng = rng_for(7, ordering * 20 + case)
            chan = one_bit_real_channel(rng, legit_weaker)
            j = float(rng.uniform(0.5, 4.0))
            config = OptimizeConfig(restarts=4, seed=int(rng.integers(0, 2**31)))
            result = optimize_wyner_rate(chan, j, config)
            cases += 1
            if check_support_condition(result.input, chan).passed:
                continue
            rs = result.report.rs
            escapes = [
                ("folded", secrecy_rate(chan, fold_input(result.input)).rs),
                ("reflected", secrecy_rate(chan, reflect_input(result.input)).rs),
            ]
            kind, better = max(escapes, key=lambda e: e[1])
            if better > rs:
                soft_failures += 1
                notes.append(
                    f"  config {ordering * 20 + case}: support check failed at "
                    f"rs={rs:.6f}; {kind} input improves to {better:.6f}"
                )
            else:
                hard_failures += 1
                notes.append(
                    f"  config {ordering * 20 + case}: support check failed at "
                    f"rs={rs:.6f} and no folding escape found"
                )
    ok = hard_failures == 0
    verdict(
        7,
        "optimizer support pattern",
        ok,
        f"{cases - soft_failures - hard_failures}/{cases} clean, "
        f"{soft_failures} escaped by refolding, {hard_failures} hard",
    )
    for line in notes:
        print(line)
    assert hard_failures == 0


def test_c08_qpsk_bound_domination():
    worst_margin = math.inf
    worst_bound = math.inf
    for case in range(20):
        rng = rng_for(8, case)
        m2 = float(rng.uniform(0.1, 1.2))
        m1 = m2 + float(rng.uniform(0.1, 2.5))
        chan = WiretapChannel(
            w1=random_gain(rng, m1, "complex"),
            w2=random_gain(rng, m2, "complex"),
            legit_adc=one_bit_pair(),
            eave_adc=one_bit_pair(),
            mode="complex",
        )
        res = qpsk_bound(chan, float(rng.uniform(0.5, 4.0)))
        worst_margin = min(worst_margin, res.rs - (res.bound - 1e-10))
        worst_bound = min(worst_bound, res.bound)
    ok = worst_margin >= 0.0 and worst_bound > 0.0
    verdict(
        8,
        "qpsk bound domination",
        ok,
        f"min rs-bound margin {worst_margin:.3e}; min bound {worst_bound:.3e}",
    )
    assert worst_margin >= 0.0
    assert worst_bound > 0.0


def test_c09_mutual_information_oracle():
    worst_mi = 0.0
    worst_density = 0.0
    for case in range(100):
        rng = rng_for(9, case)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 17))
        rows = random_stochastic_matrix(rng, n, m)
        probs = tuple(float(p) for p in rng.dirichlet(np.ones(n)))
        (mi,), (densities,), _ = _information([probs], rows)
        worst_mi = max(worst_mi, abs(mi - oracles.brute_mi(probs, rows.tolist())))
        mean_density = fsum(p * d for p, d in zip(probs, densities))
        worst_density = max(worst_density, abs(mean_density - mi))
    ok = worst_mi <= 1e-12 and worst_density <= 1e-12
    verdict(
        9,
        "mutual information oracle",
        ok,
        f"max |mi - brute| {worst_mi:.3e}; max density identity {worst_density:.3e}",
    )
    assert worst_mi <= 1e-12
    assert worst_density <= 1e-12


@pytest.fixture(scope="module")
def kkt_problems():
    """Ten seeded optimizer outputs, shared between criterion 10 and its budget check."""
    runs = []
    for case in range(10):
        rng = rng_for(10, case)
        chan = one_bit_real_channel(rng, legit_weaker=bool(case % 2))
        j = float(rng.uniform(0.5, 4.0))
        config = OptimizeConfig(restarts=4, seed=int(rng.integers(0, 2**31)))
        runs.append((chan, j, optimize_wyner_rate(chan, j, config)))
    return runs


def test_c10_kkt_residuals(kkt_problems):
    worst_support = 0.0
    worst_slack = 0.0
    worst_compl = 0.0
    for chan, j, result in kkt_problems:
        report = kkt_check(chan, result.input, j)
        assert report.grid_points == 2001
        worst_support = max(worst_support, report.support_residual)
        worst_slack = max(worst_slack, report.max_slack_violation)
        worst_compl = max(worst_compl, report.slackness_residual)
    ok = worst_support <= 1e-3 and worst_slack <= 1e-3 and worst_compl <= 1e-9
    verdict(
        10,
        "kkt residuals",
        ok,
        f"support {worst_support:.3e}; off-support {worst_slack:.3e}; "
        f"slackness {worst_compl:.3e}",
    )
    assert worst_support <= 1e-3
    assert worst_slack <= 1e-3
    assert worst_compl <= 1e-9


def test_c10_kkt_check_keeps_the_bits_of_the_full_grid(kkt_problems):
    # the active-budget path: each multiplier candidate reads the rows it needs
    for chan, j, result in kkt_problems:
        want = oracles.kkt_full_grid(chan, result.input, j)
        assert repr(kkt_check(chan, result.input, j)) == repr(want)


# sha256 over repr((input, report, trace)) of every C10 optimizer result
C10_RESULTS_SHA256 = "4b75087c4518ef97b1a847810a224b307670747da530c0a4d1fc3af837777c3d"


def test_c10_results_are_byte_identical_to_frozen_digest(kkt_problems):
    for chan, _, result in kkt_problems:
        # the whole report, as a fresh evaluation of the returned input gives it
        assert secrecy_rate(chan, result.input) == result.report
    reprs = [repr((result.input, result.report, result.trace)) for _, _, result in kkt_problems]
    assert sha256_lines(reprs) == C10_RESULTS_SHA256


def test_c10_optimizer_outputs_meet_the_budget(kkt_problems):
    # E[X^2] as DiscreteInput.power computes it, with no tolerance, for the
    # returned input and for the power each per-restart trace row records
    over = [
        (case, result.input.power, j)
        for case, (_, j, result) in enumerate(kkt_problems)
        if result.input.power > j
    ]
    over += [
        (case, row, j)
        for case, (_, j, result) in enumerate(kkt_problems)
        for row in result.trace
        if row[4] > j
    ]
    assert not over
