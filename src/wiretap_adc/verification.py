"""Self-check suites exercising the library's analytic identities.

SUITES holds one row per suite: its name, the suite, its pass rule and a
one-line detail.  Each suite draws its own seeded cases, checks one family of
claims (Z-rate monotonicity, entropy identities, folding behaviour,
construction positivity, limit convergence, closed forms, oracle
equivalence, support conditions, KKT residuals), and returns (worst, cases):
a worst-case margin and the number of cases checked.  The row's rule reads
those two numbers and decides pass or fail.  The default case distributions
are deliberately benign: moderate gain gaps, few quantizer levels, and
thresholds well inside the noise scale, so a healthy build passes every
suite.

The CLI's verify subcommand runs all suites and maps any failure to a
non-zero exit code.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import optimizer as optimizer_mod
from .achievability import (
    _canonical_direction,
    _far_points,
    _ray_limits,
    achieve,
    qpsk_bound,
)
from .adc import AdcSpec, ComplexAdcPair, one_bit_pair
from .channel import ComplexGain, WiretapChannel, q_function, transition_rows
from .errors import SweepExhaustedError, ValidationError
from .infotheory import (
    DiscreteInput,
    _information,
    _rate_arrays,
    binary_entropy,
    folding_functions,
    secrecy_rate,
    z_rate,
)
from .optimizer import (
    OptimizeConfig,
    check_support_condition,
    fold_input,
    kkt_check,
    optimize_wyner_rate,
    reflect_input,
)
from .util import json_fields, require_integer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float | None
    detail: str
    cases: int

    def to_json(self):
        return json_fields(self)


def _random_adc_spec(rng):
    k = int(rng.integers(2, 5))
    while True:
        th = np.sort(rng.uniform(-1.5, 1.5, k - 1))
        if k == 2 or np.all(np.diff(th) > 0.0):
            break
    return AdcSpec(tuple(float(t) for t in th), tuple(float(i) for i in range(k)))


def _random_pair(rng):
    return ComplexAdcPair(_random_adc_spec(rng), _random_adc_spec(rng))


def _random_gains(rng, gap_low=0.8, gap_high=1.6):
    base = float(rng.uniform(0.2, 1.2))
    gap = float(rng.uniform(gap_low, gap_high))
    if rng.integers(0, 2):
        return base, base + gap
    return base + gap, base


def _safe_channel(rng, mode):
    """Benign configuration: large gain gap, tame eavesdropper thresholds."""
    m1, m2 = _random_gains(rng)
    if mode == "real":
        w1 = ComplexGain(m1 * (1.0 if rng.integers(0, 2) else -1.0))
        w2 = ComplexGain(m2 * (1.0 if rng.integers(0, 2) else -1.0))
    else:
        a1, a2 = rng.uniform(-math.pi, math.pi, 2)
        w1 = ComplexGain(m1 * math.cos(a1), m1 * math.sin(a1))
        w2 = ComplexGain(m2 * math.cos(a2), m2 * math.sin(a2))
    if rng.integers(0, 3) == 0:
        # asymmetric one-bit legitimate ADC exercises the reduction path
        legit = ComplexAdcPair(
            AdcSpec((float(rng.uniform(-0.5, 0.5)),), (-1.0, 1.0)),
            AdcSpec((float(rng.uniform(-0.5, 0.5)),), (-1.0, 1.0)),
        )
    else:
        legit = one_bit_pair()
    return WiretapChannel(w1=w1, w2=w2, legit_adc=legit, eave_adc=_random_pair(rng), mode=mode)


def _one_bit_channel(w1, w2, mode):
    return WiretapChannel(w1=w1, w2=w2, legit_adc=one_bit_pair(), eave_adc=one_bit_pair(),
                          mode=mode)


def _one_bit_real_channel(rng, legit_weaker):
    m1, m2 = _random_gains(rng, gap_low=0.1, gap_high=1.5)
    if legit_weaker != (m1 < m2):
        m1, m2 = m2, m1
    s1 = 1.0 if rng.integers(0, 2) else -1.0
    s2 = 1.0 if rng.integers(0, 2) else -1.0
    return _one_bit_channel(ComplexGain(s1 * m1), ComplexGain(s2 * m2), "real")


def _random_real_input(rng, mixed):
    n = int(rng.integers(2, 6))
    while True:
        xs = np.round(rng.uniform(0.1, 3.0, n), 6) * rng.choice([-1.0, 1.0], n)
        if len(set(np.abs(xs))) == n:
            break
    if mixed:
        xs[0] = abs(xs[0])
        xs[1] = -abs(xs[1])
    else:
        xs = np.abs(xs) * (1.0 if rng.integers(0, 2) else -1.0)
    probs = rng.dirichlet(np.ones(n))
    if mixed:
        # guarantee at least 5% mass strictly on each side
        probs = 0.8 * probs
        probs[0] += 0.1
        probs[1] += 0.1
    probs = probs / probs.sum()
    return DiscreteInput(tuple(complex(x) for x in xs), tuple(float(p) for p in probs))


def _suite_z_rate_monotone(rng):
    worst = math.inf
    cases = 0
    ps = np.arange(0.0, 1.0 + 1e-12, 0.02)
    for phi in np.arange(0.1, 0.95, 0.1):
        vals = [z_rate(float(phi), float(p)) for p in ps]
        for lo, hi in zip(vals[:-1], vals[1:]):
            worst = min(worst, lo - hi)
            cases += 1
    return worst, cases


def _suite_entropy_identity(rng):
    worst = 0.0
    cases = 0
    for p in rng.uniform(0.0, 1.0, 50):
        worst = max(worst, abs(binary_entropy(float(p)) - binary_entropy(float(1.0 - p))))
        cases += 1
    worst = max(worst, abs(binary_entropy(0.0)), abs(binary_entropy(1.0)))
    worst = max(worst, abs(binary_entropy(0.5) - 1.0))
    for phi in rng.uniform(0.05, 0.95, 20):
        worst = max(worst, abs(z_rate(float(phi), 0.0) - binary_entropy(float(phi))))
        worst = max(worst, abs(z_rate(float(phi), 1.0)))
        cases += 2
    return worst, cases


def _suite_entropy_gap_monotone(rng):
    worst = math.inf
    cases = 0
    grid = np.arange(0.02, 0.5, 0.02)

    def gap(c, d):
        return binary_entropy(c - d) - binary_entropy(c + d)

    for d in grid:
        cs = [c for c in grid if c > d]
        vals = [gap(float(c), float(d)) for c in cs]
        for lo, hi in zip(vals[:-1], vals[1:]):
            worst = min(worst, hi - lo)  # increasing in c
            cases += 1
    for c in grid:
        ds = [d for d in grid if d < c]
        vals = [gap(float(c), float(d)) for d in ds]
        for lo, hi in zip(vals[:-1], vals[1:]):
            worst = min(worst, lo - hi)  # decreasing in d
            cases += 1
    return worst, cases


def _suite_fold_conditional_entropy(rng):
    worst = 0.0
    cases = 0
    for _ in range(20):
        dist = _random_real_input(rng, mixed=bool(rng.integers(0, 2)))
        w = float(rng.uniform(0.1, 3.0))
        c, d, f = folding_functions(dist, w)
        xs = dist.real_points()
        probs = np.asarray(dist.probs)
        q_signed = float(np.dot(probs, ndtr(-(w * xs))))
        q_folded = float(np.dot(probs, ndtr(-(w * np.abs(xs)))))
        worst = max(worst, abs((c + d) - q_signed), abs((c - d) - q_folded))
        if d < -1e-15 or d > c + 1e-15 or c > 0.5 + 1e-15:
            worst = max(worst, 1.0)
        direct = binary_entropy(min(max(q_folded, 0.0), 1.0)) - binary_entropy(
            min(max(q_signed, 0.0), 1.0)
        )
        worst = max(worst, abs(f - direct))
        cases += 1
    return worst, cases


def _suite_folding_gap_signs(rng):
    worst = math.inf
    cases = 0
    for legit_weaker in (True, False):
        for _ in range(10):
            chan = _one_bit_real_channel(rng, legit_weaker)
            mixed = _random_real_input(rng, mixed=True)
            gap = optimizer_mod.folding_gap(chan, mixed)
            margin = gap if legit_weaker else -gap
            worst = min(worst, margin - 1e-8)
            single = _random_real_input(rng, mixed=False)
            gap0 = optimizer_mod.folding_gap(chan, single)
            worst = min(worst, 1e-10 - abs(gap0))
            cases += 2
    return worst, cases


def _suite_construction_positivity(rng):
    worst = math.inf
    cases = 0
    for mode in ("real", "complex"):
        for _ in range(6):
            chan = _safe_channel(rng, mode)
            result = achieve(chan)
            worst = min(worst, result.exact_rate.rs)
            cases += 1
    return worst, cases


def _convergence_threshold(chan, result):
    """Far amplitude beyond which the limit approximation must be tight."""
    w_min = min(chan.w1.magnitude, chan.w2.magnitude)
    if chan.mode == "real":
        return 8.0 / w_min
    span = min(math.cos(result.theta), math.sin(result.theta))
    return 8.0 / (w_min * span)


def _limit_deviation(chan, result):
    """Worst |exact - limit| over schedule amplitudes past the threshold."""
    if result.regime != "limit":
        return None, 0
    threshold = _convergence_threshold(chan, result)
    direction = _canonical_direction(chan, result.theta)
    near = result.input.points[0]
    worst = 0.0
    checked = 0
    for far_amp, far in _far_points(result.a, direction, _ray_limits(chan, direction)[1]):
        if far_amp >= threshold and far != near:
            i1, i2 = _rate_arrays(chan, (near, far), (result.phi, 1.0 - result.phi))
            worst = max(worst, abs((i1 - i2) - result.limit_rate))
            checked += 1
    return worst, checked


def _suite_limit_convergence(rng):
    worst = 0.0
    cases = 0
    attempts = 0
    while cases < 4 and attempts < 20:
        attempts += 1
        chan = _safe_channel(rng, "complex" if attempts % 2 else "real")
        if not chan.has_symmetric_one_bit("legit"):
            continue
        # exhaustions and "searched" results have no limit to check
        try:
            result = achieve(chan)
        except SweepExhaustedError:
            continue
        dev, checked = _limit_deviation(chan, result)
        if dev is None or checked == 0:
            continue
        worst = max(worst, dev)
        cases += 1
    return worst, cases


def _suite_qpsk(rng):
    worst = math.inf
    cases = 0
    for _ in range(8):
        m2 = float(rng.uniform(0.1, 1.0))
        m1 = m2 + float(rng.uniform(0.3, 2.0))
        a1, a2 = rng.uniform(-math.pi, math.pi, 2)
        chan = _one_bit_channel(ComplexGain(m1 * math.cos(a1), m1 * math.sin(a1)),
                                ComplexGain(m2 * math.cos(a2), m2 * math.sin(a2)), "complex")
        res = qpsk_bound(chan, float(rng.uniform(0.5, 4.0)))
        worst = min(worst, res.rs - (res.bound - 1e-10), res.bound)
        cases += 1
    return worst, cases


def _suite_closed_forms(rng):
    worst = 0.0
    cases = 0
    for _ in range(5):
        w = float(rng.uniform(0.2, 2.5))
        j = float(rng.uniform(0.3, 4.0))
        root = math.sqrt(j)
        chan = _one_bit_channel(ComplexGain(w), ComplexGain(w + 1.0), "real")
        bpsk = DiscreteInput((complex(-root), complex(root)), (0.5, 0.5))
        report = secrecy_rate(chan, bpsk)
        closed = 1.0 - binary_entropy(q_function(w * root))
        worst = max(worst, abs(report.i1 - closed))
        cases += 1

        res = qpsk_bound(_one_bit_channel(ComplexGain(w), ComplexGain(0.0, w + 1.0), "complex"), j)
        closed_c = 2.0 * (1.0 - binary_entropy(q_function(w * math.sqrt(j / 2.0))))
        worst = max(worst, abs(res.i1 - closed_c))
        cases += 1
    return worst, cases


def _brute_force_mi(probs, rows):
    """Plain double-sum mutual information in bits; no vectorization."""
    n, k = len(probs), len(rows[0])
    p_out = [math.fsum(probs[i] * rows[i][y] for i in range(n)) for y in range(k)]
    total = 0.0
    for i in range(n):
        for y in range(k):
            w = rows[i][y]
            if probs[i] > 0.0 and w > 0.0:
                total += probs[i] * w * math.log2(w / p_out[y])
    return max(0.0, total)


def _suite_mi_oracle(rng):
    worst = 0.0
    cases = 0
    for _ in range(20):
        mode = "real" if rng.integers(0, 2) else "complex"
        chan = _safe_channel(rng, mode)
        n = int(rng.integers(2, 6))
        if mode == "real":
            pts = rng.uniform(-3.0, 3.0, n).astype(complex)
        else:
            pts = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
        if len(set(pts.tolist())) < n:
            continue
        probs = rng.dirichlet(np.ones(n))
        dist = DiscreteInput(tuple(pts.tolist()), tuple(float(p) for p in probs))
        for receiver in ("legit", "eave"):
            rows = transition_rows(chan, receiver, dist.points)
            (mi,), (densities,), _ = _information([dist.probs], rows)
            brute = _brute_force_mi(
                [float(p) for p in dist.probs],
                [list(map(float, row)) for row in rows],
            )
            worst = max(worst, abs(mi - brute))
            mean_density = math.fsum(p * d for p, d in zip(dist.probs, densities))
            worst = max(worst, abs(mean_density - mi))
            cases += 1
    return worst, cases


def _suite_support_condition(rng):
    hard_failures = 0
    cases = 0
    config = OptimizeConfig(restarts=4, seed=int(rng.integers(0, 2**31)))
    for legit_weaker in (True, False):
        for _ in range(3):
            chan = _one_bit_real_channel(rng, legit_weaker)
            j = float(rng.uniform(0.5, 4.0))
            result = optimize_wyner_rate(chan, j, config)
            verdict = check_support_condition(result.input, chan)
            cases += 1
            if verdict.passed:
                continue
            if _escapes_by_folding(chan, result):
                logger.info(
                    "support condition failed but folding found a better input: %s",
                    verdict.message,
                )
                continue
            hard_failures += 1
    return float(hard_failures), cases


def _escapes_by_folding(chan, result):
    """True when folding or reflecting the input strictly beats it."""
    return any(
        secrecy_rate(chan, move(result.input)).rs > result.report.rs
        for move in (fold_input, reflect_input)
    )


def _suite_kkt(rng):
    worst = 0.0
    cases = 0
    config = OptimizeConfig(restarts=4, seed=int(rng.integers(0, 2**31)))
    for _ in range(2):
        chan = _one_bit_real_channel(rng, legit_weaker=bool(rng.integers(0, 2)))
        j = float(rng.uniform(0.5, 4.0))
        result = optimize_wyner_rate(chan, j, config)
        report = kkt_check(chan, result.input, j)
        worst = max(worst, report.max_slack_violation, report.support_residual)
        if report.slackness_residual > 1e-9:
            worst = max(worst, 1.0)
        cases += 1
    return worst, cases


# (name, suite(rng) -> (worst, cases), passes(worst, cases), detail)
SUITES = (
    ("z_rate_monotone", _suite_z_rate_monotone, lambda worst, cases: worst > 0.0,
     "min decrease of the Z-channel rate over consecutive crossovers"),
    ("entropy_identity", _suite_entropy_identity, lambda worst, cases: worst <= 1e-12,
     "binary entropy symmetry and Z-rate endpoint identities"),
    ("entropy_gap_monotone", _suite_entropy_gap_monotone, lambda worst, cases: worst > 0.0,
     "strict monotonicity of h(c-d) - h(c+d) in c and d"),
    ("fold_conditional_entropy", _suite_fold_conditional_entropy,
     lambda worst, cases: worst <= 1e-12,
     "folding half-sum/half-difference identities and F consistency"),
    ("folding_gap_signs", _suite_folding_gap_signs, lambda worst, cases: worst >= 0.0,
     "folding gap sign per gain ordering; zero gap on single-signed supports"),
    ("construction_positivity", _suite_construction_positivity,
     lambda worst, cases: worst > 1e-9, "achieved exact secrecy rate above the rate floor"),
    ("limit_convergence", _suite_limit_convergence,
     lambda worst, cases: cases > 0 and worst <= 1e-6,
     "exact rate vs Z-channel limit on far schedule amplitudes"),
    ("qpsk", _suite_qpsk, lambda worst, cases: worst > 0.0,
     "QPSK exact rate above its closed-form bound; bound positive"),
    ("closed_forms", _suite_closed_forms, lambda worst, cases: worst <= 1e-12,
     "BPSK and aligned-QPSK one-bit rates vs closed forms"),
    ("mi_oracle", _suite_mi_oracle, lambda worst, cases: cases > 0 and worst <= 1e-12,
     "library MI vs brute-force double sum; density expectation identity"),
    # worst counts the hard failures
    ("support_condition", _suite_support_condition, lambda worst, cases: worst == 0.0,
     "optimizer supports match the gain-ordering sign pattern (soft)"),
    ("kkt", _suite_kkt, lambda worst, cases: worst <= 1e-3,
     "KKT stationarity residuals on optimizer outputs"),
)


def run_verification(seed=0, names=None):
    """Run the named suites (default: all) in table order; suite i draws from [seed, i].

    The seed and names are checked before any suite runs.
    """
    seed = require_integer("verify seed", seed)
    if seed < 0:
        raise ValidationError(f"verify seed must be >= 0, got {seed}")
    if isinstance(names, str):
        raise ValidationError(f"verification suites must be a collection of names, got {names!r}")
    known = [name for name, *_ in SUITES]
    wanted = known if names is None else list(names)
    if not all(isinstance(name, str) for name in wanted):
        raise ValidationError(f"verification suite names must be strings, got {wanted!r}")
    wanted = set(wanted)
    if not wanted:
        raise ValidationError("no verification suites selected")
    unknown = wanted.difference(known)
    if unknown:
        raise ValidationError(f"unknown verification suites: {sorted(unknown)}")
    results = []
    for index, (name, suite, passes, detail) in enumerate(SUITES):
        if name in wanted:
            worst, cases = suite(np.random.default_rng([seed, index]))
            results.append(SuiteResult(name, passes(worst, cases), worst, detail, cases))
    return results
