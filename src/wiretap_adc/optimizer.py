"""Numerical search for good secrecy-rate inputs on real-mode channels.

The optimizer runs multi-start Nelder-Mead over a fixed support size.  Point
locations are free coordinates, probabilities go through a softmax, and the
power constraint is enforced by radial projection, so every evaluated iterate
is feasible.  Restart 0 starts from a symmetric grid, restart 1 from a
single-signed grid, restart 2 from a duty-cycled version of the constructive
scheme's two points when one exists, and the rest from seeded random draws.
The constructive start matters: near/far inputs with strongly skewed
probabilities sit in a basin random boxes rarely reach.  Each restart's
result is cleaned up (merge, prune, boundary snap) and offered fold/reflect
moves before the best candidate is selected.

The module also carries the analysis tools used to audit optimizer outputs:
exact input folding, the folding-gap sign diagnostic, the sign-pattern
support condition, and a KKT stationarity check with an estimated multiplier.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .adc import is_symmetric_one_bit
from .errors import EqualGainError, SweepExhaustedError, ValidationError
from .infotheory import (
    DiscreteInput,
    RateReport,
    _rate_arrays,
    _rates_from_rows,
    _receiver_rows,
    information_densities,
    secrecy_rate,
)
from .util import require_finite

logger = logging.getLogger(__name__)

MAX_SUPPORT = 64
_MERGE_TOL = 1e-9
_PRUNE_TOL = 1e-12
_SNAP_RATE_TOL = 1e-12
_RS_TIE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizeConfig:
    support_size: int = 4
    restarts: int = 8
    seed: int = 0
    max_iterations: int = 2000  # per Nelder-Mead stage

    def __post_init__(self):
        if not 1 <= self.support_size <= MAX_SUPPORT:
            raise ValidationError(
                f"support_size must lie in [1, {MAX_SUPPORT}], got {self.support_size}"
            )
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
        return {
            "input": self.input.to_json(),
            "rate_report": self.report.to_json(),
            "power_budget": self.power_budget,
        }


def _require_real(chan, what):
    if chan.mode != "real":
        raise ValidationError(f"{what} needs a real-mode channel")


def _rates_at(chan, points, probs):
    i1, i2 = _rate_arrays(chan, points, probs)
    return i1 - i2


def _project_power(points, probs, budget):
    """Scale points radially so the mean square power meets the budget."""
    power = float(np.dot(probs, points * points))
    if power <= budget or power == 0.0:
        return points
    scale = math.sqrt(budget / power)
    while float(np.dot(probs, (scale * points) ** 2)) > budget:
        scale = math.nextafter(scale, 0.0)
    return scale * points


def _softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _cleanup(points, probs):
    """Merge near-coincident points and drop negligible probabilities."""
    order = np.argsort(points)
    points = points[order]
    probs = probs[order]
    merged_pts, merged_probs = [], []
    for x, p in zip(points, probs):
        if merged_pts and x - merged_pts[-1] <= _MERGE_TOL:
            total = merged_probs[-1] + p
            if total > 0.0:
                merged_pts[-1] = (merged_pts[-1] * merged_probs[-1] + x * p) / total
            merged_probs[-1] = total
        else:
            merged_pts.append(x)
            merged_probs.append(p)
    points = np.asarray(merged_pts)
    probs = np.asarray(merged_probs)
    keep = probs > _PRUNE_TOL
    if not keep.any():
        keep = probs == probs.max()
    points = points[keep]
    probs = probs[keep]
    return points, probs / probs.sum()


def _sorted_input(points, probs):
    order = np.argsort(points)
    return DiscreteInput(
        tuple(complex(x) for x in points[order]),
        tuple(float(p) for p in probs[order]),
    )


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
    the best candidate by exact rate.  Returns (points, logits) arrays of
    length n, or None when the scheme does not apply to this channel.
    """
    from .achievability import achieve

    try:
        result = achieve(chan, power_budget=power_budget)
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
    best = None
    for pts, probs in candidates:
        arr = np.asarray(pts)
        weights = np.asarray(probs)
        projected = _project_power(arr.copy(), weights, power_budget)
        rs = _rates_at(chan, projected, weights)
        if best is None or rs > best[0]:
            best = (rs, projected, weights)
    _, pts, probs = best
    reps = -(-n // len(pts))
    pts_full = np.tile(pts, reps)[:n]
    probs_full = np.tile(probs, reps)[:n]
    probs_full = probs_full / probs_full.sum()
    return pts_full, np.log(np.maximum(probs_full, 1e-12))


def optimize_wyner_rate(chan, power_budget, config=None):
    """Maximize the secrecy rate over discrete real inputs of bounded support.

    Returns the best input found across restarts together with its exact
    rates and a per-restart trace.  The search is deterministic for a fixed
    config seed.
    """
    config = config or OptimizeConfig()
    _require_real(chan, "optimize_wyner_rate")
    j = require_finite("power_budget", power_budget)
    if j <= 0.0:
        raise ValidationError(f"power budget must be positive, got {j!r}")
    n = config.support_size
    root_j = math.sqrt(j)

    def unpack(vec):
        pts = vec[:n].copy()
        probs = _softmax(vec[n:])
        return _project_power(pts, probs, j), probs

    def negrate(vec):
        pts, probs = unpack(vec)
        return -_rates_at(chan, pts, probs)

    best = None  # (rs, power, pts tuple, probs tuple)
    trace = []
    seed_start = _construct_seed(chan, j, n)
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        if restart == 0:
            pts0 = np.linspace(-1.0, 1.0, n) * root_j if n > 1 else np.array([root_j])
            logits0 = np.zeros(n)
        elif restart == 1:
            pts0 = np.linspace(0.1, 1.0, n) * root_j
            logits0 = np.zeros(n)
        elif restart == 2 and seed_start is not None:
            pts0, logits0 = seed_start
        else:
            pts0 = rng.uniform(-1.25 * root_j, 1.25 * root_j, n)
            logits0 = rng.normal(0.0, 1.0, n)
        x0 = np.concatenate([pts0, logits0])
        res = minimize(
            negrate,
            x0,
            method="Nelder-Mead",
            options={"maxiter": config.max_iterations, "xatol": 1e-10, "fatol": 1e-13},
        )
        res2 = minimize(
            negrate,
            res.x,
            method="Nelder-Mead",
            options={"maxiter": config.max_iterations, "xatol": 1e-11, "fatol": 1e-14},
        )
        iterations = int(res.nit) + int(res2.nit)
        pts, probs = unpack(res2.x)
        pts, probs = _cleanup(pts, probs)
        rs = _rates_at(chan, pts, probs)

        # snap to the power boundary when it costs nothing
        power = float(np.dot(probs, pts * pts))
        if 0.0 < power < j:
            scale = math.sqrt(j / power)
            snapped = _project_power(scale * pts, probs, j)
            rs_snap = _rates_at(chan, snapped, probs)
            if rs_snap >= rs - _SNAP_RATE_TOL:
                pts, rs = snapped, max(rs, rs_snap)

        # fold/reflect moves help escape sign-pattern local optima
        for moved in _fold_moves(pts, probs, config.support_size):
            moved_pts, moved_probs = moved
            rs_moved = _rates_at(chan, moved_pts, moved_probs)
            if rs_moved > rs:
                logger.debug(
                    "restart %d: fold/reflect move improved rate %.3e -> %.3e",
                    restart, rs, rs_moved,
                )
                pts, probs, rs = moved_pts, moved_probs, rs_moved

        # the cleanup's renormalisation can leave E[X^2] an ulp above the budget
        scale = 1.0
        input_dist = _sorted_input(pts, probs)
        while input_dist.power > j:
            scale = math.nextafter(scale, 0.0)
            input_dist = _sorted_input(scale * pts, probs)
        if scale != 1.0:
            pts = scale * pts
            rs = _rates_at(chan, pts, probs)
        power = input_dist.power

        trace.append((config.seed, restart, iterations, rs, power))
        cand = (rs, power, tuple(pts))
        if best is None or _better(cand, best[:3]):
            best = (rs, power, tuple(pts), input_dist)

    report = secrecy_rate(chan, best[3])
    return OptimizeResult(
        input=best[3], report=report, power_budget=j, trace=tuple(trace)
    )


def _fold_moves(points, probs, support_cap):
    """Candidate rewrites of the support: fold onto |x| and reflect to +/-."""
    dist = DiscreteInput(tuple(complex(x) for x in points), tuple(probs))
    moves = []
    folded = fold_input(dist)
    if len(folded.points) < len(points) or any(x < 0 for x in points):
        moves.append(folded)
    reflected = reflect_input(dist)
    if len(reflected.points) <= support_cap:
        moves.append(reflected)
    return [(move.real_points(), np.asarray(move.probs)) for move in moves]


def _moved_input(input_dist, name, move):
    """Send the mass p of each point x to the (point, mass) pairs move(|x|, p).

    Exactly equal points merge; the result is sorted ascending.
    """
    if not input_dist.is_real:
        raise ValidationError(f"{name} needs a real input distribution")
    mass = {}
    for z, p in zip(input_dist.points, input_dist.probs):
        for x, share in move(abs(z.real), p):
            mass[x] = mass.get(x, 0.0) + share
    xs = sorted(mass)
    return DiscreteInput(tuple(complex(x) for x in xs), tuple(mass[x] for x in xs))


def fold_input(input_dist):
    """Push a real input onto its magnitudes; equal ones merge, sorted ascending."""
    return _moved_input(input_dist, "fold_input", lambda x, p: ((x, p),))


def reflect_input(input_dist):
    """Split each nonzero point's mass evenly over +|x| and -|x|; sorted ascending."""
    return _moved_input(
        input_dist,
        "reflect_input",
        lambda x, p: ((x, p),) if x == 0.0 else ((x, p / 2.0), (-x, p / 2.0)),
    )


def folding_gap(chan, input_dist):
    """Secrecy-rate change from replacing the input by its magnitude fold.

    Positive means folding helps.  Requires a real-mode channel with
    symmetric one-bit ADCs at both receivers and an input with at least two
    points, which is the regime where the sign of the gap is pinned by the
    gain ordering.
    """
    _require_real(chan, "folding_gap")
    for receiver in ("legit", "eave"):
        if not is_symmetric_one_bit(chan.adc_for(receiver).real_part):
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
        return {
            "passed": self.passed,
            "gain_order": self.gain_order,
            "n_positive": self.n_positive,
            "n_negative": self.n_negative,
            "n_zero": self.n_zero,
            "message": self.message,
        }


def check_support_condition(input_dist, chan):
    """Necessary sign pattern of optimal supports under each gain ordering.

    A weaker legitimate gain requires a single-signed support (all >= 0 or
    all <= 0); a stronger one forbids supports strictly inside one open
    half-line.  Magnitudes within 1e-12 of zero (relative to the support
    scale) count as zero.
    """
    _require_real(chan, "check_support_condition")
    if not input_dist.is_real:
        raise ValidationError("check_support_condition needs a real input distribution")
    if chan.w1.magnitude == chan.w2.magnitude:
        raise EqualGainError("support condition is undefined for equal gain magnitudes")
    xs = input_dist.real_points()
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


@dataclass(frozen=True)
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
        return {
            "lambda": self.lambda_,
            "rate_report": self.rate.to_json(),
            "mean_square": self.mean_square,
            "power_budget": self.power_budget,
            "max_slack_violation": self.max_slack_violation,
            "support_residual": self.support_residual,
            "slackness_residual": self.slackness_residual,
            "grid_points": self.grid_points,
            "grid_radius": self.grid_radius,
        }


def kkt_check(chan, input_dist, power_budget, grid_points=2001):
    """Check the first-order optimality of an input at a power budget.

    Estimates the multiplier (zero when the power constraint is inactive,
    else the better-certifying of a least-squares fit on the support and a
    feasibility-interval candidate), then reports the worst constraint
    violation on a symmetric grid, the on-support stationarity residual, and
    the complementary slackness residual.
    """
    _require_real(chan, "kkt_check")
    if not input_dist.is_real:
        raise ValidationError("kkt_check needs a real input distribution")
    j = require_finite("power_budget", power_budget)
    if j <= 0.0:
        raise ValidationError(f"power budget must be positive, got {j!r}")
    if grid_points < 3:
        raise ValidationError("grid_points must be >= 3")

    probs = np.asarray(input_dist.probs)
    xs = input_dist.real_points()
    n = len(xs)
    mean_square = float(np.dot(probs, xs * xs))
    radius = 3.0 * max(float(np.max(np.abs(xs))), math.sqrt(j), 1.0)
    grid = np.linspace(-radius, radius, grid_points)

    # one row stack per receiver: the support's rows, then the grid's
    rows = _receiver_rows(chan, np.concatenate([xs, grid]))
    i1, i2 = _rates_from_rows(probs, [w[:n] for w in rows])
    dens = [information_densities(w, probs @ w[:n]) for w in rows]
    report = RateReport(i1=i1, i2=i2, rs=i1 - i2, power=input_dist.power)
    with np.errstate(invalid="ignore"):  # inf - inf is handled in _residuals
        d_support, d_grid = np.split(dens[0] - dens[1], [n])

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
        candidates.append(
            _lambda_from_feasibility(grid, d_grid, report.rs, mean_square, scale)
        )

    def _residuals(lam):
        slack_grid = d_grid - lam * (grid * grid - mean_square) - report.rs
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
        grid_points=int(grid_points),
        grid_radius=radius,
    )


def _lambda_from_feasibility(grid, d_grid, rs, mean_square, scale):
    """Multiplier from the feasibility interval when the support pins E[X^2].

    Every grid point imposes a one-sided bound on lambda; the smallest
    feasible nonnegative value is preferred, falling back to the clamped
    interval midpoint when the bounds cross.
    """
    denom = grid * grid - mean_square
    margin = 1e-9 * scale
    above = denom > margin
    below = denom < -margin
    ratios_above = (d_grid[above] - rs) / denom[above]
    ratios_below = (d_grid[below] - rs) / denom[below]
    lo = max(0.0, float(np.max(ratios_above))) if ratios_above.size else 0.0
    hi = float(np.min(ratios_below)) if ratios_below.size else math.inf
    if lo <= hi:
        return lo
    return max(0.0, 0.5 * (lo + hi))
