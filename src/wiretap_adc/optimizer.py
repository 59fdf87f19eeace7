"""Numerical search for good secrecy-rate inputs on real-mode channels.

The optimizer runs one SLSQP solve per restart over the points and
probabilities of a fixed-size support, on the rate's exact gradient.  Bounds
keep each probability in [0, 1]; the constraints are that the probabilities
sum to 1 and that E[X^2] <= J.  Restart 0 starts from a symmetric grid,
restart 1 from a single-signed grid, restart 2 from a duty-cycled version of
the constructive scheme's two points when one exists, and the rest from
seeded random draws.  The constructive start matters: near/far inputs with
strongly skewed probabilities sit in a basin random starts rarely reach.
Each restart cleans its solution up (merge, prune) into one DiscreteInput,
scores it and its fold/reflect moves once each, scales the best radially onto
the budget (scoring it again only if it moved) and offers that input with its
RateReport as the restart's candidate; the winner is not scored again.

The module also carries the analysis tools used to audit optimizer outputs:
exact input folding, the folding-gap sign diagnostic, the sign-pattern
support condition, and a KKT stationarity check with an estimated multiplier.
That check reads the exact extremes over a fixed 2001-point grid, but builds
transition rows only at points where an interval bound on the information
density says an extreme can lie.
"""

import logging
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr

from .channel import RECEIVERS, _cell_slopes
from .errors import EqualGainError, SweepExhaustedError, ValidationError
from .infotheory import (
    DiscreteInput,
    RateReport,
    _information,
    _rate_arrays,
    _receiver_rows,
    secrecy_rate,
)
from .util import json_fields, require_budget, require_integer

logger = logging.getLogger(__name__)

# Points of kkt_check's symmetric audit grid; its answers are those of all
# 2001, though it builds rows only where a bound says an extreme can lie
KKT_GRID_POINTS = 2001
# kkt_check builds every _KKT_STEP-th grid point first and bounds D between them
_KKT_STEP = 32
# Q(38) < 1e-315: a cell this many deviations from a mean holds 0 after UNDERFLOW_FLOOR
_MASS_REACH = 38.0

MAX_SUPPORT = 64
_MERGE_TOL = 1e-9
_PRUNE_TOL = 1e-12
_RS_TIE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizeConfig:
    support_size: int = 4
    restarts: int = 8
    seed: int = 0
    max_iterations: int = 2000  # SLSQP maxiter per restart

    def __post_init__(self):
        for field in fields(self):
            value = require_integer(field.name, getattr(self, field.name))
            object.__setattr__(self, field.name, value)
        if not 1 <= self.support_size <= MAX_SUPPORT:
            raise ValidationError(
                f"support_size must lie in [1, {MAX_SUPPORT}], got {self.support_size}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")


@dataclass(frozen=True)
class OptimizeResult:
    input: DiscreteInput
    report: RateReport
    power_budget: float
    trace: tuple  # rows (seed, restart, iterations, rs, power)

    def to_json(self):
        return json_fields(self, skip=("trace",), rename={"report": "rate_report"})


def _require_real(chan, what):
    if chan.mode != "real":
        raise ValidationError(f"{what} needs a real-mode channel")


def _rate_and_gradient(chan, points, probs):
    """Secrecy rate and its gradient in (points, probs), from one row build.

    One _information call per receiver gives its rate I, the information
    densities D(x_i) and log2(W/P_Y) of its rows W.  dI/dx_i is
    p_i sum_y W'(y|x_i) log2(W(y|x_i)/P_Y(y)), and dI/dp_i is D(x_i) less
    1/ln 2, a constant that cancels in i1 - i2.  Outputs P_Y never produces
    read P_Y = 1, not +inf: only rows with p_i = 0 reach them, where i1 - i2
    would read inf - inf.
    """
    rs, grad = 0.0, np.zeros(2 * len(points))
    for sign, receiver, w in zip((1.0, -1.0), RECEIVERS, _receiver_rows(chan, points)):
        (rate,), (densities,), _, (log_ratio,) = _information([probs], w, log_ratios=True)
        slope_terms = _cell_slopes(chan, receiver, points) * log_ratio
        grad += sign * np.concatenate([probs * slope_terms.sum(axis=1), densities])
        rs += sign * rate
    return rs, grad


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call: nothing else in the package loads it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _cleanup(points, probs):
    """Merge near-coincident points and drop negligible probabilities; sorted ascending."""
    order = np.argsort(points)
    merged_pts, merged_probs = [], []
    for x, p in zip(points[order], probs[order]):
        if merged_pts and x - merged_pts[-1] <= _MERGE_TOL:
            total = merged_probs[-1] + p
            if total > 0.0:
                merged_pts[-1] = (merged_pts[-1] * merged_probs[-1] + x * p) / total
            merged_probs[-1] = total
        else:
            merged_pts.append(x)
            merged_probs.append(p)
    probs = np.asarray(merged_probs)
    keep = probs > _PRUNE_TOL
    if not keep.any():
        keep = probs == probs.max()
    probs = probs[keep]
    return DiscreteInput(np.asarray(merged_pts)[keep], probs / probs.sum())


def _better(cand, best):
    """Tie-break: higher rate, then lower power, then lexicographic support."""
    rs_c, power_c, pts_c = cand
    rs_b, power_b, pts_b = best
    if rs_c > rs_b + _RS_TIE_TOL:
        return True
    if rs_c < rs_b - _RS_TIE_TOL:
        return False
    if power_c < power_b - _RS_TIE_TOL:
        return True
    if power_c > power_b + _RS_TIE_TOL:
        return False
    return tuple(pts_c) < tuple(pts_b)


_SEED_DUTY_CYCLES = (0.5, 0.7, 0.9, 0.95, 0.98, 0.99, 0.999)
_SEED_NEAR_SCALES = (1.0, 0.75, 0.5, 0.25)


def _construct_seed(chan, power_budget, n):
    """Starting point derived from the constructive scheme's two points.

    The construction itself usually overshoots the power budget, and its
    duty-cycled form is a time-sharing rate, not the rate of an explicit
    mixture.  So the seed re-fits the far point to the budget over a grid of
    near-point probabilities and near amplitudes (small budgets leave no
    residual for the far point unless the near point shrinks too) and keeps
    the best candidate by exact rate.  Returns (points, probs) arrays of
    length n, or None when the scheme does not apply to this channel.
    """
    from .achievability import achieve

    try:
        result = achieve(chan)
    except (ValidationError, EqualGainError, SweepExhaustedError):
        return None
    near, far = (x.real for x in result.input.points)
    candidates = [((near, far), (result.phi, 1.0 - result.phi))]
    for duty in _SEED_DUTY_CYCLES:
        for scale in _SEED_NEAR_SCALES:
            shrunk = scale * near
            residual = power_budget - duty * shrunk * shrunk
            if residual <= 0.0:
                continue
            refit = math.copysign(math.sqrt(residual / (1.0 - duty)), far)
            candidates.append(((shrunk, refit), (duty, 1.0 - duty)))
    pts, probs = max(candidates, key=lambda c: np.subtract(*_rate_arrays(chan, *c)))
    reps = -(-n // len(pts))
    probs_full = np.tile(probs, reps)[:n]
    return np.tile(pts, reps)[:n], probs_full / probs_full.sum()


def optimize_wyner_rate(chan, power_budget, config=None):
    """Maximize the secrecy rate over discrete real inputs of bounded support.

    Returns the best input found across restarts together with its exact
    rates and a per-restart trace.  The search is deterministic for a fixed
    config seed.
    """
    config = config or OptimizeConfig()
    _require_real(chan, "optimize_wyner_rate")
    j = require_budget(power_budget)
    n = config.support_size
    # starts scale with sqrt(J), but not past where every threshold of both
    # receivers is 8 noise deviations from w*x: cell slopes there are below
    # phi(8) = 5e-15, and SLSQP cannot move a point
    amplitude = min(math.sqrt(j), max(
        (8.0 + max(map(abs, chan.adc_for(r).real_part.thresholds))) / chan.gain_for(r).magnitude
        for r in RECEIVERS
    ))

    def negated(vec):
        rs, grad = _rate_and_gradient(chan, vec[:n], vec[n:])
        return -rs, -grad

    from scipy.optimize import LinearConstraint, NonlinearConstraint
    bounds = [(None, None)] * n + [(0.0, 1.0)] * n
    simplex = LinearConstraint(np.concatenate([np.zeros(n), np.ones(n)]), 1.0, 1.0)
    budget = NonlinearConstraint(
        lambda vec: vec[n:] @ (vec[:n] * vec[:n]), -np.inf, j,
        jac=lambda vec: np.concatenate([2.0 * vec[n:] * vec[:n], vec[:n] * vec[:n]]),
    )

    best = None  # (_better's (rs, power, points) tuple, input, report)
    trace = []
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        probs0 = np.full(n, 1.0 / n)
        if restart == 0:
            pts0 = np.linspace(-1.0, 1.0, n) * amplitude if n > 1 else np.array([amplitude])
        elif restart == 1:
            pts0 = np.linspace(0.1, 1.0, n) * amplitude
        elif restart == 2 and (seed_start := _construct_seed(chan, j, n)) is not None:
            pts0, probs0 = seed_start
        else:
            pts0 = rng.uniform(-1.25 * amplitude, 1.25 * amplitude, n)
            probs0 = rng.dirichlet(np.ones(n))
        res = minimize(
            negated,
            np.concatenate([pts0, probs0]),
            jac=True,
            method="SLSQP",
            bounds=bounds,
            constraints=(simplex, budget),
            options={"maxiter": config.max_iterations, "ftol": 1e-15},
        )
        dist = _cleanup(res.x[:n], res.x[n:])
        # fold/reflect moves escape sign-pattern local optima; the first of equal rates wins
        moves = [dist]
        folded, reflected = fold_input(dist), reflect_input(dist)
        if folded != dist:
            moves.append(folded)
        if len(reflected.points) <= n:
            moves.append(reflected)
        rates = [_rate_arrays(chan, m.points, m.probs) for m in moves]
        (i1, i2), moved = max(zip(rates, moves), key=lambda t: t[0][0] - t[0][1])
        if moved is not dist:
            logger.debug("restart %d: fold/reflect move improved rate to %.3e", restart, i1 - i2)

        # SLSQP meets E[X^2] <= J only to its tolerance, or not at all when it
        # stops early: scale radially, then step down past the last ulp
        pts, probs = moved.real_points(), np.asarray(moved.probs)
        power = float(probs @ (pts * pts))
        scale = math.sqrt(j / power) if power > j else 1.0
        while (scaled := DiscreteInput(scale * pts, moved.probs)).power > j:
            scale = math.nextafter(scale, 0.0)
        if scale != 1.0:
            i1, i2 = _rate_arrays(chan, scaled.points, scaled.probs)
        report = RateReport(i1=i1, i2=i2, rs=i1 - i2, power=scaled.power)

        trace.append((config.seed, restart, int(res.nit), report.rs, report.power))
        cand = (report.rs, report.power, tuple(scale * pts))
        if best is None or _better(cand, best[0]):
            best = (cand, scaled, report)

    return OptimizeResult(input=best[1], report=best[2], power_budget=j, trace=tuple(trace))


def _moved_input(input_dist, move):
    """Send the mass p of each point x of a real input to the (point, mass) pairs move(|x|, p).

    Exactly equal points merge; the result is sorted ascending.
    """
    mass = {}
    for z, p in zip(input_dist.real_points().tolist(), input_dist.probs):
        for x, share in move(abs(z), p):
            mass[x] = mass.get(x, 0.0) + share
    xs = sorted(mass)
    return DiscreteInput(tuple(complex(x) for x in xs), tuple(mass[x] for x in xs))


def fold_input(input_dist):
    """Push a real input onto its magnitudes; equal ones merge, sorted ascending."""
    return _moved_input(input_dist, lambda x, p: ((x, p),))


def reflect_input(input_dist):
    """Split each nonzero point's mass evenly over +|x| and -|x|; sorted ascending."""
    return _moved_input(
        input_dist, lambda x, p: ((x, p),) if x == 0.0 else ((x, p / 2.0), (-x, p / 2.0))
    )


def folding_gap(chan, input_dist):
    """Secrecy-rate change from replacing the input by its magnitude fold.

    Positive means folding helps.  Requires a real-mode channel with
    symmetric one-bit ADCs at both receivers and an input with at least two
    points, which is the regime where the sign of the gap is pinned by the
    gain ordering.
    """
    _require_real(chan, "folding_gap")
    if not all(chan.has_symmetric_one_bit(receiver) for receiver in RECEIVERS):
        raise ValidationError("folding_gap needs symmetric one-bit ADCs at both receivers")
    if len(input_dist.points) < 2:
        raise ValidationError("folding_gap needs an input with at least two points")
    original = secrecy_rate(chan, input_dist)
    folded = secrecy_rate(chan, fold_input(input_dist))
    return folded.rs - original.rs


@dataclass(frozen=True)
class SupportVerdict:
    """Sign-pattern check of an input support against the gain ordering."""

    passed: bool
    gain_order: str  # "legit_weaker" (|w1| < |w2|) or "legit_stronger"
    n_positive: int
    n_negative: int
    n_zero: int
    message: str

    def to_json(self):
        return json_fields(self)


def check_support_condition(input_dist, chan):
    """Necessary sign pattern of optimal supports under each gain ordering.

    A weaker legitimate gain requires a single-signed support (all >= 0 or
    all <= 0); a stronger one forbids supports strictly inside one open
    half-line.  Magnitudes within 1e-12 of zero (relative to the support
    scale) count as zero.
    """
    _require_real(chan, "check_support_condition")
    xs = input_dist.real_points()
    if chan.w1.magnitude == chan.w2.magnitude:
        raise EqualGainError("support condition is undefined for equal gain magnitudes")
    snap = 1e-12 * max(1.0, float(np.max(np.abs(xs))))
    n_zero = int(np.sum(np.abs(xs) <= snap))
    n_pos = int(np.sum(xs > snap))
    n_neg = int(np.sum(xs < -snap))
    if chan.w1.magnitude < chan.w2.magnitude:
        order = "legit_weaker"
        passed = n_pos == 0 or n_neg == 0
        message = (
            "support is single-signed" if passed else "support mixes strict signs"
        )
    else:
        order = "legit_stronger"
        one_sided = (n_pos > 0 and n_neg == 0 and n_zero == 0) or (
            n_neg > 0 and n_pos == 0 and n_zero == 0
        )
        passed = not one_sided
        message = (
            "support is not confined to an open half-line"
            if passed
            else "support sits strictly inside one open half-line"
        )
    return SupportVerdict(
        passed=passed,
        gain_order=order,
        n_positive=n_pos,
        n_negative=n_neg,
        n_zero=n_zero,
        message=message,
    )


@dataclass(frozen=True, slots=True)
class KktReport:
    """Stationarity audit of a candidate input at a power budget."""

    lambda_: float
    rate: RateReport
    mean_square: float
    power_budget: float
    max_slack_violation: float
    support_residual: float
    slackness_residual: float
    grid_points: int
    grid_radius: float

    def to_json(self):
        return json_fields(self, rename={"lambda_": "lambda", "rate": "rate_report"})


def kkt_check(chan, input_dist, power_budget):
    """Check the first-order optimality of an input at a power budget.

    Estimates the multiplier (zero when the power constraint is inactive,
    else the better-certifying of a least-squares fit on the support and a
    feasibility-interval candidate), then reports the worst constraint
    violation over a symmetric grid of KKT_GRID_POINTS points, the on-support
    stationarity residual, and the complementary slackness residual.

    Every number is the exact one over all grid points, but rows are built
    only where one can matter: first the support and every _KKT_STEP-th grid
    point, then only the points whose bound (_interval_bounds) on the density
    D1 - D2 can reach or tie an extreme the report reads (the largest ratio
    above and smallest below that _lambda_from_feasibility reads, then each
    candidate's largest slack).  The bound rests on two facts: a cell's
    probability is unimodal in x, and W log2(W/P_Y) is convex in W.  Points
    never built read D = -inf, which no extreme reads.  A row's density does
    not depend on the rows built beside it, and the rate is read from the
    support rows that lead every kernel call, so each build keeps the bits of
    one call over the whole grid.
    """
    _require_real(chan, "kkt_check")
    xs = input_dist.real_points()
    j = require_budget(power_budget)

    probs = np.asarray(input_dist.probs)
    n = len(xs)
    mean_square = float(np.dot(probs, xs * xs))
    radius = 3.0 * max(float(np.max(np.abs(xs))), math.sqrt(j), 1.0)
    grid = np.linspace(-radius, radius, KKT_GRID_POINTS)

    coarse = np.append(np.arange(0, KKT_GRID_POINTS - 1, _KKT_STEP), KKT_GRID_POINTS - 1)
    (i1, i2), d, rows, pys = _densities(chan, xs, probs, grid[coarse])
    report = RateReport(i1=i1, i2=i2, rs=i1 - i2, power=input_dist.power)
    d_support = d[:n]
    d_grid = np.full(KKT_GRID_POINTS, -math.inf)
    d_grid[coarse] = d[n:]
    built = np.zeros(KKT_GRID_POINTS, dtype=bool)
    built[coarse] = True
    # each point's bound is its interval's; the last point is built
    bound = np.append(np.repeat(
        _interval_bounds(chan, grid[coarse], [w[n:] for w in rows], pys), np.diff(coarse)
    ), -math.inf)

    def build(need):
        todo = np.flatnonzero(need & ~built)
        if todo.size:
            d_grid[todo] = _densities(chan, xs, probs, grid[todo])[1][n:]
            built[todo] = True

    def reaching(values, where, floor=-math.inf):
        """Unbuilt points of where whose values at the bound reach the built points' max (or floor).

        values must be monotone nondecreasing in D, bit for bit, as each
        rounded subtraction and division by a fixed number is.  A +inf bound
        reaches any max but NaN, so a point whose D may be +inf or NaN is
        built unless a NaN max is already the answer, whatever the other
        points read.
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            top = np.max(values(d_grid), where=where & built, initial=-math.inf)
            return where & ~built & (values(bound) >= np.maximum(top, floor))

    def slack(lam):
        return lambda dg: dg - lam * (grid * grid - mean_square) - report.rs

    if mean_square < j - 1e-9 * max(1.0, j):
        candidates = [0.0]
    else:
        # stationarity is existential in the multiplier: any nonnegative value
        # satisfying all residual bounds certifies the input, so try the
        # least-squares fit and the feasibility-interval candidate and keep
        # whichever certifies better.  A non-stationary input has no feasible
        # multiplier, so neither candidate can hide it.
        denom = xs * xs - mean_square
        scale = max(1.0, mean_square)
        candidates = []
        if float(np.max(np.abs(denom))) > 1e-9 * scale:
            num = float(np.dot(d_support - report.rs, denom))
            den = float(np.dot(denom, denom))
            candidates.append(max(0.0, num / den))
        grid_denom, above, below = _feasibility_sides(grid, mean_square, scale)
        # _lambda_from_feasibility reads max(0, largest ratio above) and the
        # smallest below; the least-squares candidate's slack rides along
        need = (reaching(lambda dg: (dg - report.rs) / grid_denom, above, 0.0)
                | reaching(lambda dg: (report.rs - dg) / grid_denom, below))
        for lam in candidates:
            need |= reaching(slack(lam), True, 0.0)
        build(need)
        candidates.append(
            _lambda_from_feasibility(grid, d_grid, report.rs, mean_square, scale)
        )

    def _residuals(lam):
        build(reaching(slack(lam), True, 0.0))  # the report reads max(0, largest slack)
        slack_grid = slack(lam)(d_grid)
        slack_support = d_support - lam * (xs * xs - mean_square) - report.rs
        worst = float(np.max(slack_grid))  # NaN where both densities are +inf
        return (
            math.inf if math.isnan(worst) else max(0.0, worst),
            float(np.max(np.abs(slack_support))),
            abs(lam * (mean_square - j)),
        )

    lam, residuals = min(
        ((lam, _residuals(lam)) for lam in candidates), key=lambda t: max(t[1])
    )
    return KktReport(
        lambda_=lam,
        rate=report,
        mean_square=mean_square,
        power_budget=j,
        max_slack_violation=residuals[0],
        support_residual=residuals[1],
        slackness_residual=residuals[2],
        grid_points=KKT_GRID_POINTS,
        grid_radius=radius,
    )


def _densities(chan, xs, probs, points):
    """((i1, i2), D1 - D2, each receiver's rows, each P_Y) of the support xs, then points.

    One kernel call per receiver, the support rows first: the rates and P_Y
    read those alone.  A row meeting an output P_Y lacks has density +inf.
    """
    rates, dens, rows, pys = [], [], [], []
    for w in _receiver_rows(chan, np.concatenate([xs, points])):
        (rate,), (densities,), (py,) = _information([probs], w)
        rates.append(rate)
        dens.append(np.where((w[:, py == 0.0] > 0.0).any(axis=1), math.inf, densities))
        rows.append(w)
        pys.append(py)
    with np.errstate(invalid="ignore"):  # inf - inf is handled in _residuals
        return tuple(rates), dens[0] - dens[1], rows, pys


def _f_terms(w, py):
    """w log2(w/P_Y) per cell, 0 where w is 0 or P_Y is 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = w * np.log2(w / np.where(py > 0.0, py, 1.0))
    return np.where((w > 0.0) & (py > 0.0), terms, 0.0)


def _interval_bounds(chan, points, rows, pys):
    """Upper bound of D1 - D2 on each interval between neighbouring points; +inf where unbounded.

    f(W) = W log2(W/P_Y) is convex with its minimum at P_Y/e, so over the
    range _cell_ranges gives each cell, the sum of max f bounds D1 above and
    the sum of f at P_Y/e clipped to the range bounds D2 below.  A cell P_Y
    lacks adds 0: at the eavesdropper a row with mass there reads D2 = +inf,
    below any bound, and at the legitimate receiver the bound is +inf wherever
    a mean comes within _MASS_REACH of the cell, as it is for any cell whose
    W/P_Y may overflow.  The bound adds 1e-9 of a bound on the terms'
    magnitudes (|f(W)| <= 1 + W |log2 P_Y| per cell), far past any rounding,
    so no point left unbuilt can reach or tie an extreme.
    """
    bound = magnitude = 0.0
    for receiver, w, py in zip(RECEIVERS, rows, pys):
        low, high, gap = _cell_ranges(chan, receiver, points, w)
        magnitude = magnitude + len(py) + high @ np.abs(np.log2(np.where(py > 0.0, py, 1.0)))
        if receiver == "legit":
            bound = bound + np.maximum(_f_terms(low, py), _f_terms(high, py)).sum(axis=1)
            unbounded = np.where(py > 0.0, high > 1e300 * py, gap < _MASS_REACH).any(axis=1)
        else:
            bound = bound - _f_terms(np.clip(py / math.e, low, high), py).sum(axis=1)
    return np.where(unbounded, math.inf, bound + 1e-9 * magnitude)


def _cell_ranges(chan, receiver, points, w):
    """(lowest W, highest W, distance from mean to cell) of each cell between neighbouring points.

    w holds the receiver's rows at points.  Real mode reads one ADC per
    receiver, and its cell probability W(y|x) is unimodal in the mean w x,
    peaking where w x is the cell's midpoint (the end cells are monotone): on
    an interval W lies between its smaller end value and its larger one, or
    the cell's peak when that midpoint lies inside.  The ranges widen by
    1e-9, far past any rounding.
    """
    edges = np.array([-np.inf, *chan.adc_for(receiver).real_part.thresholds, np.inf])
    means = points * chan.gain_for(receiver).re
    m_lo = np.minimum(means[:-1], means[1:])[:, None]
    m_hi = np.maximum(means[:-1], means[1:])[:, None]
    mode = 0.5 * (edges[:-1] + edges[1:])  # -inf, inf at the end cells
    peak = np.where((m_lo <= mode) & (mode <= m_hi), 1.0 - 2.0 * ndtr(-0.5 * np.diff(edges)), 0.0)
    high = np.maximum(np.maximum(w[:-1], w[1:]), peak) * (1.0 + 1e-9)
    low = np.minimum(w[:-1], w[1:]) * (1.0 - 1e-9)
    return low, high, np.maximum(edges[:-1] - m_hi, m_lo - edges[1:])


def _feasibility_sides(grid, mean_square, scale):
    """(x^2 - E[X^2], points above, points below) of the grid, beyond 1e-9 * scale."""
    denom = grid * grid - mean_square
    margin = 1e-9 * scale
    return denom, denom > margin, denom < -margin


def _lambda_from_feasibility(grid, d_grid, rs, mean_square, scale):
    """Multiplier from the feasibility interval when the support pins E[X^2].

    Every grid point imposes a one-sided bound on lambda; the smallest
    feasible nonnegative value is preferred, falling back to the clamped
    interval midpoint when the bounds cross.
    """
    denom, above, below = _feasibility_sides(grid, mean_square, scale)
    ratios_above = (d_grid[above] - rs) / denom[above]
    ratios_below = (d_grid[below] - rs) / denom[below]
    lo = max(0.0, float(np.max(ratios_above))) if ratios_above.size else 0.0
    hi = float(np.min(ratios_below)) if ratios_below.size else math.inf
    if lo <= hi:
        return lo
    return max(0.0, 0.5 * (lo + hi))
