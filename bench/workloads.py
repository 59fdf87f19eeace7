"""Seeded inputs, operations and output checks for the three bench workloads.

The samplers are a private copy of the distributions in the test helpers, so
the bench never imports test code.  Every input of operation ``i`` comes from
``numpy.random.default_rng([seed, family, i])``; with seed 1 the first
``construct`` inputs are the C1 acceptance configs and the first ``optimize``
problems are the C10 ones.

Each workload object has:

- ``build(seed)``: the operation inputs, built once per run;
- ``run(op)``: one operation, calling the library only through module
  attributes so the layer tracer can intercept it;
- ``check(op, outcome)``: the output check, run outside the timed region;
- ``record(outcome)``: the canonical text of the outcome for the digest;
- ``oracle_inputs(op, outcome)``: (channel, input, reported rate) for the
  independent oracle, or None;
- ``summary(ops, outcomes)``: the workload's own quality metrics.
"""

import math
from dataclasses import dataclass

import numpy as np

from wiretap_adc import achievability, adc, channel, infotheory, optimizer
from wiretap_adc.errors import SweepExhaustedError

RATE_FLOOR = 1e-9
NEAR_ZERO = 1e-12
# C10 acceptance bounds on the KKT residuals.
KKT_SUPPORT_TOL = 1e-3
KKT_SLACK_TOL = 1e-3
KKT_SLACKNESS_TOL = 1e-9

CONSTRUCT_FAMILY = 1
OPTIMIZE_FAMILY = 10
WIDE_FAMILY = 100


# --- samplers (same distributions as the test helpers) ---------------------


def random_adc(rng, lo=-3.0, hi=3.0, min_levels=2, max_levels=8):
    levels = int(rng.integers(min_levels, max_levels + 1))
    ths = np.sort(rng.uniform(lo, hi, levels - 1))
    return adc.AdcSpec(
        thresholds=tuple(float(t) for t in ths),
        outputs=tuple(float(i) for i in range(levels)),
    )


def random_adc_pair(rng, **kwargs):
    return adc.ComplexAdcPair(real_part=random_adc(rng, **kwargs),
                              imag_part=random_adc(rng, **kwargs))


def random_gain(rng, magnitude, mode):
    if mode == "complex":
        angle = float(rng.uniform(-np.pi, np.pi))
        return channel.ComplexGain(magnitude * np.cos(angle), magnitude * np.sin(angle))
    sign = float(rng.choice([-1.0, 1.0]))
    return channel.ComplexGain(magnitude * sign, 0.0)


def c1_channel(rng, mode):
    """One-bit legitimate receiver, 2-8 level eavesdropper, gain gap >= 0.05."""
    while True:
        m1 = float(rng.uniform(0.1, 4.0))
        m2 = float(rng.uniform(0.1, 4.0))
        if abs(m1 - m2) >= 0.05:
            break
    return channel.WiretapChannel(
        w1=random_gain(rng, m1, mode),
        w2=random_gain(rng, m2, mode),
        legit_adc=adc.one_bit_pair(),
        eave_adc=random_adc_pair(rng),
        mode=mode,
    )


def one_bit_real_channel(rng, legit_weaker):
    """Both receivers one-bit, real mode, strict magnitude ordering."""
    lo = float(rng.uniform(0.2, 1.2))
    hi = lo + float(rng.uniform(0.1, 1.5))
    m1, m2 = (lo, hi) if legit_weaker else (hi, lo)
    return channel.WiretapChannel(
        w1=random_gain(rng, m1, "real"),
        w2=random_gain(rng, m2, "real"),
        legit_adc=adc.one_bit_pair(),
        eave_adc=adc.one_bit_pair(),
        mode="real",
    )


def random_real_input(rng):
    """2-5 real points with distinct magnitudes; atoms never below 0.2/n."""
    n = int(rng.integers(2, 6))
    while True:
        mags = np.round(rng.uniform(0.05, 2.5, n), 6)
        if len(set(mags)) == n:
            break
    signs = rng.choice([-1.0, 1.0], n)
    probs = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    return infotheory.DiscreteInput(
        tuple(float(m) * float(s) for m, s in zip(mags, signs)),
        tuple(float(p) for p in probs),
    )


def random_complex_input(rng, n):
    """n distinct complex points in the box [-2, 2]^2 with floored probabilities."""
    while True:
        pts = np.round(rng.uniform(-2.0, 2.0, n), 6) + 1j * np.round(rng.uniform(-2.0, 2.0, n), 6)
        if len(set(pts.tolist())) == n:
            break
    probs = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    return infotheory.DiscreteInput(tuple(pts.tolist()), tuple(float(p) for p in probs))


# --- outcomes and checks ----------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What one operation returned: "ok", "exhausted" (legitimate) or "error"."""

    status: str
    value: object


def _call(fn, *args):
    try:
        return Outcome("ok", fn(*args))
    except SweepExhaustedError as exc:
        return Outcome("exhausted", exc.diagnostics)
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        return Outcome("error", f"{type(exc).__name__}: {exc}")


def rate_problems(report):
    """Invariants every RateReport must satisfy; returns a list of problems."""
    problems = []
    values = (report.i1, report.i2, report.rs)
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite rate {values!r}")
    elif report.i1 < 0.0 or report.i2 < 0.0:
        problems.append(f"negative mutual information {values!r}")
    if report.rs != report.i1 - report.i2:
        problems.append(f"rs {report.rs!r} != i1 - i2 {report.i1 - report.i2!r}")
    return problems


def fresh_rate_problems(chan, dist, report):
    """The reported rate must equal a fresh secrecy_rate of the returned input."""
    fresh = infotheory.secrecy_rate(chan, dist)
    got = (report.i1, report.i2, report.rs)
    want = (fresh.i1, fresh.i2, fresh.rs)
    return [] if got == want else [f"reported {got!r} != fresh secrecy_rate {want!r}"]


def kkt_problems(report, rate):
    problems = []
    residuals = (report.support_residual, report.max_slack_violation, report.slackness_residual)
    if not all(math.isfinite(v) and v >= 0.0 for v in residuals):
        problems.append(f"bad KKT residuals {residuals!r}")
    if not math.isfinite(report.lambda_) or report.lambda_ < 0.0:
        problems.append(f"bad KKT multiplier {report.lambda_!r}")
    if report.grid_points != 2001:
        problems.append(f"KKT grid has {report.grid_points} points, expected 2001")
    if report.rate != rate:
        problems.append(f"KKT rate {report.rate!r} != {rate!r}")
    return problems


def kkt_passes(report):
    return (
        report.support_residual <= KKT_SUPPORT_TOL
        and report.max_slack_violation <= KKT_SLACK_TOL
        and report.slackness_residual <= KKT_SLACKNESS_TOL
    )


def _floats(values):
    return tuple(repr(float(v)) for v in values)


def _input_record(dist):
    return (tuple(repr(complex(z)) for z in dist.points), _floats(dist.probs))


def _report_record(report):
    return _floats((report.i1, report.i2, report.rs, report.power))


def _kkt_record(report):
    return _floats((report.lambda_, report.max_slack_violation,
                    report.support_residual, report.slackness_residual))


# --- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class ConstructOp:
    index: int
    chan: object


@dataclass(frozen=True)
class OptimizeOp:
    index: int
    chan: object
    budget: float
    seed: int


@dataclass(frozen=True)
class RateOp:
    index: int
    chan: object
    dist: object


@dataclass(frozen=True)
class KktOp:
    index: int
    chan: object
    dist: object
    budget: float


class Construct:
    """achieve() on C1-family channels: one-bit legit, 2-8 level eavesdropper."""

    name = "construct"
    pool = 2000        # distinct channels built per run; the timed loop cycles past them
    digest_ops = 200   # the digest and the workload summary cover this prefix
    trace_ops = 200    # each traced or untraced pass of a traced run
    oracle_ops = 8

    def build(self, seed):
        ops = []
        for i in range(self.pool):
            rng = np.random.default_rng([seed, CONSTRUCT_FAMILY, i])
            ops.append(ConstructOp(i, c1_channel(rng, "real" if i % 2 else "complex")))
        return ops

    def run(self, op):
        return _call(achievability.achieve, op.chan)

    def check(self, op, outcome):
        if outcome.status == "exhausted":
            best = outcome.value.get("best_rate")
            if best is None or not math.isfinite(best) or best > RATE_FLOOR:
                return [f"exhausted with best rate {best!r}"]
            return []
        if outcome.status != "ok":
            return [outcome.value]
        result = outcome.value
        return rate_problems(result.exact_rate) + fresh_rate_problems(
            op.chan, result.input, result.exact_rate)

    def record(self, outcome):
        if outcome.status == "ok":
            return (outcome.status, _report_record(outcome.value.exact_rate),
                    _input_record(outcome.value.input))
        if outcome.status == "exhausted":
            return (outcome.status, repr(outcome.value.get("best_rate")))
        return (outcome.status, outcome.value)

    def oracle_inputs(self, op, outcome):
        if outcome.status != "ok":
            return None
        return op.chan, outcome.value.input, outcome.value.exact_rate

    def summary(self, ops, outcomes):
        """floor_cleared_frac, rs_mean_bits, near_zero and the exhausted configs."""
        cleared, rates, near_zero, exhausted = 0, [], 0, []
        for op, out in zip(ops, outcomes):
            if out.status == "ok":
                rs = out.value.exact_rate.rs
                rates.append(rs)
                cleared += rs > RATE_FLOOR
                near_zero += abs(rs) <= NEAR_ZERO
            elif out.status == "exhausted":
                best = out.value.get("best_rate")
                exhausted.append({"config": op.index, "mode": op.chan.mode, "best_rate": best})
                near_zero += best is not None and abs(best) <= NEAR_ZERO
        n = max(1, len(outcomes))
        return {
            "floor_cleared_frac": cleared / n,
            "rs_mean_bits": math.fsum(rates) / max(1, len(rates)),
            "near_zero": near_zero,
            "exhausted": exhausted,
        }


class Optimize:
    """optimize_wyner_rate(restarts=4, support_size=4) then kkt_check, C10 family."""

    name = "optimize"
    pool = 200
    digest_ops = 10
    trace_ops = 4
    oracle_ops = 10

    def build(self, seed):
        ops = []
        for i in range(self.pool):
            rng = np.random.default_rng([seed, OPTIMIZE_FAMILY, i])
            chan = one_bit_real_channel(rng, legit_weaker=bool(i % 2))
            budget = float(rng.uniform(0.5, 4.0))
            ops.append(OptimizeOp(i, chan, budget, int(rng.integers(0, 2**31))))
        return ops

    def run(self, op):
        config = optimizer.OptimizeConfig(restarts=4, support_size=4, seed=op.seed)
        solved = _call(optimizer.optimize_wyner_rate, op.chan, op.budget, config)
        if solved.status != "ok":
            return solved
        kkt = _call(optimizer.kkt_check, op.chan, solved.value.input, op.budget)
        if kkt.status != "ok":
            return kkt
        return Outcome("ok", (solved.value, kkt.value))

    def check(self, op, outcome):
        if outcome.status != "ok":
            return [f"{outcome.status}: {outcome.value}"]
        result, kkt = outcome.value
        problems = rate_problems(result.report)
        if not result.input.power <= op.budget:
            problems.append(f"E[X^2] = {result.input.power!r} exceeds J = {op.budget!r}")
        problems += fresh_rate_problems(op.chan, result.input, result.report)
        return problems + kkt_problems(kkt, result.report)

    def record(self, outcome):
        if outcome.status != "ok":
            return (outcome.status, repr(outcome.value))
        result, kkt = outcome.value
        return (_report_record(result.report), _input_record(result.input), _kkt_record(kkt))

    def oracle_inputs(self, op, outcome):
        if outcome.status != "ok":
            return None
        result, _ = outcome.value
        return op.chan, result.input, result.report

    def summary(self, ops, outcomes):
        ok = [out.value for out in outcomes if out.status == "ok"]
        n = max(1, len(outcomes))
        return {
            "kkt_pass_frac": sum(kkt_passes(kkt) for _, kkt in ok) / n,
            "rs_mean_bits": math.fsum(r.report.rs for r, _ in ok) / max(1, len(ok)),
        }


class Wide:
    """secrecy_rate on 8-64 level complex channels, kkt_check on 8-64 level real ones."""

    name = "wide"
    pool = 1200
    digest_ops = 200
    trace_ops = 200
    oracle_ops = 3

    def build(self, seed):
        ops = []
        for i in range(self.pool):
            rng = np.random.default_rng([seed, WIDE_FAMILY, i])
            # Two rate ops per KKT op, so the median op lies inside the rate
            # ops' broad cost range instead of on the gap between the two kinds.
            mode = "real" if i % 3 == 2 else "complex"
            levels = {"min_levels": 8, "max_levels": 64}
            chan = channel.WiretapChannel(
                w1=random_gain(rng, float(rng.uniform(0.1, 4.0)), mode),
                w2=random_gain(rng, float(rng.uniform(0.1, 4.0)), mode),
                legit_adc=random_adc_pair(rng, **levels),
                eave_adc=random_adc_pair(rng, **levels),
                mode=mode,
            )
            if mode == "complex":
                dist = random_complex_input(rng, int(rng.integers(16, 65)))
                ops.append(RateOp(i, chan, dist))
            else:
                dist = random_real_input(rng)
                ops.append(KktOp(i, chan, dist, float(rng.uniform(0.5, 4.0))))
        return ops

    def run(self, op):
        if isinstance(op, RateOp):
            return _call(infotheory.secrecy_rate, op.chan, op.dist)
        return _call(optimizer.kkt_check, op.chan, op.dist, op.budget)

    def _rate(self, op, outcome):
        return outcome.value if isinstance(op, RateOp) else outcome.value.rate

    def check(self, op, outcome):
        if outcome.status != "ok":
            return [f"{outcome.status}: {outcome.value}"]
        rate = self._rate(op, outcome)
        if isinstance(op, RateOp):
            # The op is secrecy_rate itself: a rerun of the op and the oracle check it.
            return rate_problems(rate)
        return (rate_problems(rate) + fresh_rate_problems(op.chan, op.dist, rate)
                + kkt_problems(outcome.value, rate))

    def record(self, outcome):
        if outcome.status != "ok":
            return (outcome.status, repr(outcome.value))
        value = outcome.value
        if isinstance(value, infotheory.RateReport):
            return _report_record(value)
        return (_report_record(value.rate), _kkt_record(value))

    def oracle_inputs(self, op, outcome):
        if outcome.status != "ok":
            return None
        return op.chan, op.dist, self._rate(op, outcome)

    def summary(self, ops, outcomes):
        return {}


WORKLOADS = {wl.name: wl for wl in (Construct(), Optimize(), Wide())}
