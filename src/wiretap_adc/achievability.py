"""Two-point input constructions that guarantee a positive secrecy rate.

The scheme places a low-probability point near the feasibility boundary of a
ray and a far point along the same ray.  As the far amplitude grows, both
receivers see a binary asymmetric (Z) channel: the far point saturates its
outermost quantizer cell while the near point keeps a crossover probability
into that cell.  The legitimate crossover stays smaller than the
eavesdropper's whenever the near amplitude clears the feasibility bound, so
the rate difference is positive in the limit and, by continuity, at some
finite far amplitude.

The sweep is deterministic.  It runs stages of steps, each step a group of
candidates: the canonical margin-rule amplitude with one step per far
amplitude of a doubling schedule (the whole phi grid there); if that clears
nothing, an extended stage (the schedule on quarter-turn rotated rays from
amplitudes refined toward the feasibility bound and points riding
eavesdropper thresholds, then riding pairs, one (pair, phi) step each); last,
in complex mode, split pairs, one (amplitude, phi) step each: equal-amplitude
points on the canonical ray and half a quarter-turn past it, which share an
eavesdropper corner cell but not a legitimate quadrant.  Mode "first" returns
the smallest-(amplitude, phi) candidate above the floor in the first step
that has one; mode "best" runs whole stages and returns the best candidate
once a stage ends with it above the floor.

Both receivers' transition rows are built once per (near, far) pair: the
candidates of a step, which differ only in phi, share them, and so do the
crossover and saturation lookups of the near and far points.
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial

from . import channel as channel_mod
from .adc import ComplexAdcPair, is_symmetric_one_bit, one_bit_pair, shift_thresholds
from .errors import EqualGainError, SweepExhaustedError, ValidationError
from .infotheory import (
    DiscreteInput,
    RateReport,
    _rate_arrays,  # unused here; bench/layers.py patches this binding by name
    _rates_from_rows,
    _receiver_rows,
    binary_entropy,
    secrecy_rate,
    z_rate,
)
from .util import require_finite

QUARTER = math.pi / 2.0

# m -> limit output of the legitimate one-bit pair, sqrt(2)*e^{j(m*pi/2 - pi/4)}
_Y1_BAR = {1: 1 + 1j, 2: -1 + 1j, 3: -1 - 1j, 4: 1 - 1j}

DEFAULT_PHI_GRID = (0.5, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)

# Extended-stage refinements of the near amplitude toward the feasibility
# bound, as fractions of the canonical safety margin.
_REFINE_DELTAS = tuple(2.0 ** (-k) for k in range(-1, 13))


@dataclass(frozen=True)
class PhaseAlignment:
    """Input phase and gain-angle bookkeeping for the complex construction."""

    theta: float
    capital_phi: float
    m: int
    y1_bar: complex
    delta: float


@dataclass(frozen=True)
class ConstructOptions:
    rate_floor: float = 1e-9
    # "first" or "best": the stop rule in the module docstring
    mode: str = "first"
    phi_grid: tuple = DEFAULT_PHI_GRID
    max_doublings: int = 40
    extended: bool = True
    keep_trace: bool = False

    def __post_init__(self):
        if self.mode not in ("first", "best"):
            raise ValidationError(f"options.mode must be 'first' or 'best', got {self.mode!r}")
        if self.max_doublings < 0:
            raise ValidationError("max_doublings must be >= 0")
        for phi in self.phi_grid:
            if not 0.0 < phi < 1.0:
                raise ValidationError(f"phi grid values must lie in (0, 1), got {phi!r}")


@dataclass(frozen=True)
class AchievabilityResult:
    """Selected two-point input with exact rates and Z-channel diagnostics.

    a and b are signed amplitudes along e^{j*capital_phi} (real mode: along
    the real axis), with P(a-point) = phi.  p1/p2 are the probabilities that
    the a-point's output falls into the far point's limit cell at the
    legitimate receiver and the eavesdropper; limit_rate is the rate the
    construction attains as the far amplitude grows without bound.  In the
    canonical regime ("limit") p1 < p2 and limit_rate > 0; extended-stage
    winners ("searched") are finite-amplitude candidates whose limit
    diagnostics are reported for reference only.

    A split pair (complex mode, regime "searched", ray None) is the one
    result whose points do not share a line: the a-point is a*e^{j*capital_phi}
    on the canonical ray and the far point, at the same amplitude, is
    b*e^{j*(capital_phi + pi/4)}; p1/p2 refer to the far point's own limit
    cells.
    """

    mode: str
    phi: float
    a: float
    b: float
    capital_phi: float
    theta: float | None
    delta: float | None
    m: int | None
    y1_bar: complex | None
    ray: int | None
    regime: str
    p1: float
    p2: float
    limit_rate: float
    input: DiscreteInput
    exact_rate: RateReport
    translation: complex = 0j
    reduced_rate: RateReport | None = None
    alpha: float = 1.0
    power_budget: float | None = None
    trace: tuple | None = None

    @property
    def effective_rate(self):
        """Achievable rate after duty-cycling down to the power budget."""
        return self.alpha * self.exact_rate.rs

    def to_json(self):
        def cpx(z):
            return None if z is None else {"re": complex(z).real, "im": complex(z).imag}

        return {
            "mode": self.mode,
            "phi": self.phi,
            "a": self.a,
            "b": self.b,
            "capital_phi": self.capital_phi,
            "theta": self.theta,
            "delta": self.delta,
            "m": self.m,
            "y1_bar": cpx(self.y1_bar),
            "ray": self.ray,
            "regime": self.regime,
            "p1": self.p1,
            "p2": self.p2,
            "limit_rate": self.limit_rate,
            "input": self.input.to_json(),
            "exact_rate": self.exact_rate.to_json(),
            "translation": cpx(self.translation),
            "reduced_rate": None if self.reduced_rate is None else self.reduced_rate.to_json(),
            "alpha": self.alpha,
            "power_budget": self.power_budget,
            "effective_rate": self.effective_rate,
        }


def align_phase(w1, w2):
    """Input phase that puts both gain-rotated rays into known quadrants.

    delta = (angle(w1) - angle(w2)) mod 2pi selects the quarter-turn index m
    with (m-1)*pi/2 <= delta < m*pi/2; theta = (m*pi/2 - delta)/2 lands in
    (0, pi/4], and the input phase capital_phi = theta - angle(w2) steers the
    eavesdropper's ray to angle theta while the legitimate ray points at
    m*pi/2 - theta.
    """
    if w1.magnitude == 0.0 or w2.magnitude == 0.0:
        raise ValidationError("phase alignment needs non-zero gains")
    delta = (w1.phase - w2.phase) % (2.0 * math.pi)
    if delta >= 2.0 * math.pi:  # float modulo can round up to the period itself
        delta = 0.0
    m = int(delta // QUARTER) + 1
    theta = (m * QUARTER - delta) / 2.0
    # float division can mis-floor by one ulp near quadrant boundaries
    if theta <= 0.0:
        m += 1
        theta = (m * QUARTER - delta) / 2.0
    elif theta > math.pi / 4.0:
        m -= 1
        theta = (m * QUARTER - delta) / 2.0
        if theta <= 0.0:
            m += 1
            theta = (m * QUARTER - delta) / 2.0
    m = (m - 1) % 4 + 1
    return PhaseAlignment(
        theta=theta,
        capital_phi=theta - w2.phase,
        m=m,
        y1_bar=_Y1_BAR[m],
        delta=delta,
    )


def _ray_axes(chan, receiver, direction):
    """(drift, ADC) for each quantizer axis the receiver sees along a ray.

    drift is that axis's component of gain * direction.  direction is the
    unit ray e^{j*psi} in complex mode (two axes), or +/-1.0 in real mode
    (the real axis only).
    """
    pair = chan.adc_for(receiver)
    wd = chan.gain_for(receiver).value * direction
    if chan.mode == "real":
        return ((wd.real, pair.real_part),)
    return ((wd.real, pair.real_part), (wd.imag, pair.imag_part))


def _limit_cell_indices(chan, direction):
    """Joint output index each receiver saturates in as the far point recedes."""
    indices = []
    for receiver in ("legit", "eave"):
        index = 0
        for drift, spec in _ray_axes(chan, receiver, direction):
            if drift == 0.0:
                raise ValidationError("ray drifts along a quantizer axis; no limit cell")
            index = index * spec.levels + (spec.levels - 1 if drift > 0.0 else 0)
        indices.append(index)
    return tuple(indices)


def _limit_mass(chan, direction, rows, k):
    """(legit, eave) mass that point k of _receiver_rows output puts in the limit cells.

    For a near point these are the Z-channel crossovers (p1, p2); a far point
    is saturated once both are 1.
    """
    idx1, idx2 = _limit_cell_indices(chan, direction)
    return float(rows[0][k, idx1]), float(rows[1][k, idx2])


def crossover_probs(chan, theta, a):
    """Z-channel crossovers of the canonical construction at near amplitude a.

    In complex mode these equal Q(-|w1| a sin theta) * Q(-|w1| a cos theta)
    for the legitimate receiver and Q(q_R,top - |w2| a cos theta) *
    Q(q_I,top - |w2| a sin theta) for the eavesdropper; real mode collapses
    to single factors.  Values are read off the exact transition rows of the
    near point, so they match those products up to final rounding.
    """
    a = require_finite("a", a)
    if not chan.has_symmetric_one_bit_legit():
        raise ValidationError("crossover_probs needs a symmetric one-bit legitimate receiver")
    if chan.mode == "real":
        direction = 1.0 if chan.w2.re > 0.0 else -1.0
    else:
        theta = require_finite("theta", theta)
        if not 0.0 < theta <= math.pi / 4.0:
            raise ValidationError(f"theta must lie in (0, pi/4], got {theta!r}")
        direction = cmath.rect(1.0, theta - chan.w2.phase)
    return _limit_mass(chan, direction, _receiver_rows(chan, (complex(a * direction),)), 0)


def choose_amplitude(chan, theta=None):
    """Near amplitude clearing the feasibility bound with a safety margin.

    With s = |w2| - |w1| the bound is max(q_R,top / (s cos theta),
    q_I,top / (s sin theta)) in complex mode (min when s < 0) and q_top / s
    in real mode; the returned amplitude is bound + sign(s) * max(1, |bound|).
    """
    s = chan.w2.magnitude - chan.w1.magnitude
    if s == 0.0:
        raise EqualGainError("equal gain magnitudes: |w1| == |w2|")
    if chan.mode == "real":
        bound = chan.eave_adc.real_part.thresholds[-1] / s
    else:
        theta = require_finite("theta", theta)
        if not 0.0 < theta <= math.pi / 4.0:
            raise ValidationError(f"theta must lie in (0, pi/4], got {theta!r}")
        top_r = chan.eave_adc.real_part.thresholds[-1]
        top_i = chan.eave_adc.imag_part.thresholds[-1]
        cands = (top_r / (s * math.cos(theta)), top_i / (s * math.sin(theta)))
        bound = max(cands) if s > 0.0 else min(cands)
    return bound + math.copysign(max(1.0, abs(bound)), s)


def zchannel_limit(phi, p1, p2):
    """Large-amplitude limit of the construction's rate: f_phi(p1) - f_phi(p2)."""
    return z_rate(phi, p1) - z_rate(phi, p2)


class _Sweep:
    """Step evaluator tracking the running best and optional trace.

    It keeps both receivers' rows of the last (near, far) pair it was asked
    for, so each distinct pair's rows are built once however many phis,
    consecutive steps and lookups share it.
    """

    def __init__(self, chan, options):
        self.chan = chan
        self.options = options
        self.trace = [] if options.keep_trace else None
        self.best = None  # (rs, sort_key, candidate)
        self.evaluations = 0
        self._pair = self._rows = None

    def rows(self, near, far):
        """_receiver_rows of (near, far), rebuilt only when the pair changes."""
        if self._pair != (near, far):
            self._pair = (near, far)
            self._rows = _receiver_rows(self.chan, self._pair)
        return self._rows

    def consider(self, near, far, phi, sort_key, meta):
        """Evaluate one pair; returns the candidate when it clears the floor."""
        if near == far:
            return None
        i1, i2 = _rates_from_rows((phi, 1.0 - phi), self.rows(near, far))
        rs = i1 - i2
        self.evaluations += 1
        if self.trace is not None:
            self.trace.append((sort_key[0], phi, i1, i2, rs, meta.get("limit")))
        candidate = (near, far, phi, RateReport(i1, i2, rs, _pair_power(near, far, phi)), meta)
        if (
            self.best is None
            or rs > self.best[0]
            or (rs == self.best[0] and sort_key < self.best[1])
        ):
            self.best = (rs, sort_key, candidate)
        return candidate if rs > self.options.rate_floor else None

    def first_hit(self, steps):
        """Evaluate steps in order; the "first"-mode hit (module docstring) or None."""
        for step in steps:
            hits = []
            for near, far, phi, sort_key, meta in step:
                candidate = self.consider(near, far, phi, sort_key, meta)
                if candidate is not None:
                    hits.append((sort_key, candidate))
            if hits and self.options.mode == "first":
                return min(hits, key=lambda hit: hit[0])[1]
        return None


def _pair_power(near, far, phi):
    return phi * abs(near) ** 2 + (1.0 - phi) * abs(far) ** 2


def _far_points(chan, near_amp, direction, max_doublings, far_rows=None):
    """(far_amp, far point) at max(|near_amp|, 1) * 2^k along direction.

    Stops after the first far point whose rows put all mass in the limit
    cells.  far_rows(far) returns row stacks whose last rows are the far
    point's; by default they are built afresh.
    """
    far_rows = far_rows or (lambda far: _receiver_rows(chan, (far,)))
    base = max(abs(near_amp), 1.0)
    for k in range(max_doublings + 1):
        far_amp = base * 2.0**k
        far = complex(far_amp * direction)
        yield far_amp, far
        if _limit_mass(chan, direction, far_rows(far), -1) == (1.0, 1.0):
            return


def _ray_threshold_riders(chan, direction):
    """Amplitudes whose eavesdropper mean sits exactly on a threshold."""
    return [
        t / drift
        for drift, spec in _ray_axes(chan, "eave", direction)
        if drift != 0.0
        for t in spec.thresholds
    ]


def _ray_margin_bound(chan, direction):
    """Feasibility bound generalized to an arbitrary ray direction."""
    s = chan.w2.magnitude - chan.w1.magnitude
    cands = [
        (spec.thresholds[-1] if drift > 0.0 else -spec.thresholds[0])
        / (s * abs(drift) / chan.w2.magnitude)
        for drift, spec in _ray_axes(chan, "eave", direction)
        if drift != 0.0
    ]
    return max(cands) if s > 0.0 else min(cands)


def construct_positive_rate(chan, options=None):
    """Search the two-point family for an input with exact rate above the floor.

    The channel must already have a symmetric one-bit legitimate receiver
    (reduce_to_symmetric handles general legitimate ADCs).  Raises
    EqualGainError when |w1| == |w2| and SweepExhaustedError (with
    diagnostics) when no candidate clears options.rate_floor.
    """
    options = options or ConstructOptions()
    if not chan.has_symmetric_one_bit_legit():
        raise ValidationError(
            "construct_positive_rate needs a symmetric one-bit legitimate receiver; "
            "apply reduce_to_symmetric first"
        )
    if chan.w1.magnitude == chan.w2.magnitude:
        raise EqualGainError("equal gain magnitudes: |w1| == |w2|")

    sweep = _Sweep(chan, options)
    if chan.mode == "real":
        alignment = None
        direction = 1.0 if chan.w2.re > 0.0 else -1.0
        canonical = _ray_steps(sweep, choose_amplitude(chan), direction, 0.0, None, "limit")
    else:
        alignment = align_phase(chan.w1, chan.w2)
        a = choose_amplitude(chan, alignment.theta)
        direction = cmath.rect(1.0, alignment.capital_phi)
        canonical = _ray_steps(sweep, a, direction, alignment.capital_phi, 0, "limit")

    stages = [("canonical", canonical)]
    if options.extended:
        stages.append(("extended", _extended_steps(sweep, alignment)))
        if chan.mode == "complex" and alignment.theta < math.pi / 4.0:
            stages.append(("split_pair", _split_pair_steps(sweep, alignment)))
    stage_evaluations = {}
    for name, steps in stages:
        before = sweep.evaluations
        hit = sweep.first_hit(steps)
        stage_evaluations[name] = sweep.evaluations - before
        if hit is None and sweep.best is not None and sweep.best[0] > options.rate_floor:
            hit = sweep.best[2]
        if hit is not None:
            return _result(chan, alignment, hit, sweep.trace)

    best_rs, _, best_cand = sweep.best if sweep.best is not None else (None, None, None)
    raise SweepExhaustedError(
        "no two-point candidate exceeded the rate floor",
        diagnostics={
            "rate_floor": options.rate_floor,
            "best_rate": best_rs,
            "best_candidate": None
            if best_cand is None
            else {
                "near": {"re": best_cand[0].real, "im": best_cand[0].imag},
                "far": {"re": best_cand[1].real, "im": best_cand[1].imag},
                "phi": best_cand[2],
            },
            "evaluations": sweep.evaluations,
            "stage_evaluations": stage_evaluations,
            "channel": chan.to_json(),
        },
    )


def _result(chan, alignment, candidate, trace):
    """The AchievabilityResult of a winning (near, far, phi, report, meta) candidate."""
    near, far, phi, report, meta = candidate
    if chan.mode == "real":
        amp_a, amp_b = near.real, far.real
    else:
        unit = cmath.rect(1.0, meta["line_angle"])
        amp_a = (near / unit).real
        amp_b = (far / cmath.rect(1.0, meta.get("far_angle", meta["line_angle"]))).real
    return AchievabilityResult(
        mode=chan.mode,
        phi=phi,
        a=amp_a,
        b=amp_b,
        capital_phi=meta["line_angle"] if chan.mode == "complex" else 0.0,
        theta=None if alignment is None else alignment.theta,
        delta=None if alignment is None else alignment.delta,
        m=None if alignment is None else alignment.m,
        y1_bar=None if alignment is None else alignment.y1_bar,
        ray=meta["ray"],
        regime=meta["regime"],
        p1=meta["p1"],
        p2=meta["p2"],
        limit_rate=zchannel_limit(phi, meta["p1"], meta["p2"]),
        input=DiscreteInput((near, far), (phi, 1.0 - phi)),
        exact_rate=report,
        trace=None if trace is None else tuple(trace),
    )


def _ray_steps(sweep, near_amp, direction, line_angle, ray, regime):
    """One step per far amplitude of the schedule: the whole phi grid there.

    The crossovers come from the near point's rows in the first step's pair.
    """
    chan, options = sweep.chan, sweep.options
    near = complex(near_amp * direction)
    far_rows = partial(sweep.rows, near)
    meta = None
    for far_amp, far in _far_points(chan, near_amp, direction, options.max_doublings, far_rows):
        if meta is None:
            p1, p2 = _limit_mass(chan, direction, sweep.rows(near, far), 0)
            limits = {phi: zchannel_limit(phi, p1, p2) for phi in options.phi_grid}
            meta = {"ray": ray, "line_angle": line_angle, "regime": regime, "p1": p1, "p2": p2}
        yield [
            (near, far, phi, (far_amp, phi), dict(meta, limit=limits[phi]))
            for phi in options.phi_grid
        ]


def _extended_steps(sweep, alignment):
    """Deterministic fallback steps beyond the canonical margin rule.

    First alternative near amplitudes rerun the far schedule on each
    quarter-turn ray: the per-ray margin amplitude, refinements toward the
    feasibility bound, threshold riders, and zero.  Then riding amplitudes on
    each line pair up directly, one (pair, phi) step at a time with phi in
    (0.5, 0.3, 0.7) order, which covers eavesdropper-pinning inputs the
    schedule cannot reach.
    """
    chan, options = sweep.chan, sweep.options
    s = chan.w2.magnitude - chan.w1.magnitude
    if chan.mode == "complex":
        base = alignment.capital_phi
        rays = [(r, cmath.rect(1.0, base + r * QUARTER), base + r * QUARTER) for r in range(4)]
        lines = [(cmath.rect(1.0, base + r * QUARTER), base + r * QUARTER, r) for r in (0, 1)]
    else:
        rays = [(None, 1.0, 0.0), (None, -1.0, 0.0)]
        lines = [(1.0, 0.0, None)]

    for ray, direction, line_angle in rays:
        bound = _ray_margin_bound(chan, direction)
        amps = [bound + math.copysign(max(1.0, abs(bound)), s)]
        amps.extend(bound + math.copysign(d * max(1.0, abs(bound)), s) for d in _REFINE_DELTAS)
        amps.extend(sorted(_ray_threshold_riders(chan, direction), key=lambda v: (abs(v), v)))
        amps.append(0.0)
        seen = set()
        for amp in amps:
            if not math.isfinite(amp) or amp in seen:
                continue
            seen.add(amp)
            yield from _ray_steps(sweep, amp, direction, line_angle, ray, "searched")

    pair_phis = [p for p in (0.5, 0.3, 0.7) if p in options.phi_grid] or [options.phi_grid[0]]
    for direction, line_angle, ray in lines:
        values = sorted(set(_ray_threshold_riders(chan, direction)) | {0.0})
        pairs = [(u, v) for i, u in enumerate(values) for v in values[i + 1 :]]
        pairs.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p))
        for u, v in pairs:
            near_amp, far_amp = (u, v) if abs(u) <= abs(v) else (v, u)
            # orient the far role along the larger amplitude for diagnostics
            far_dir = direction if far_amp >= 0.0 else (
                -direction if chan.mode == "complex" else -1.0
            )
            near, far = complex(near_amp * direction), complex(far_amp * direction)
            p1, p2 = _limit_mass(chan, far_dir, sweep.rows(near, far), 0)
            meta = {
                "ray": ray,
                "line_angle": line_angle,
                "regime": "searched",
                "p1": p1,
                "p2": p2,
                "limit": None,
            }
            for phi in pair_phis:
                yield [(near, far, phi, (abs(far_amp), phi), meta)]


def _split_pair_steps(sweep, alignment):
    """Near point on the canonical ray, far point half a quarter-turn further.

    With theta < pi/4 the eavesdropper sees both rays inside its first
    quadrant while the legitimate receiver sees them in adjacent quadrants,
    so at equal amplitudes 2^k both points saturate into one eavesdropper
    corner cell but into different legitimate cells, and the rate tends to
    h(phi).  One (amplitude, phi) step at a time, phi in grid order.
    """
    chan, options = sweep.chan, sweep.options
    near_dir = cmath.rect(1.0, alignment.capital_phi)
    far_angle = alignment.capital_phi + QUARTER / 2.0
    far_dir = cmath.rect(1.0, far_angle)
    for k in range(options.max_doublings + 1):
        amp = 2.0**k
        near, far = complex(amp * near_dir), complex(amp * far_dir)
        p1, p2 = _limit_mass(chan, far_dir, sweep.rows(near, far), 0)
        meta = {
            "ray": None,
            "line_angle": alignment.capital_phi,
            "far_angle": far_angle,
            "regime": "searched",
            "p1": p1,
            "p2": p2,
        }
        for phi in options.phi_grid:
            yield [(near, far, phi, (amp, phi), dict(meta, limit=zchannel_limit(phi, p1, p2)))]


def reduce_to_symmetric(chan, legit_threshold_choice=None):
    """Equivalent problem with a symmetric one-bit legitimate receiver.

    Picks one legitimate threshold per component (default: the median index),
    shifts the eavesdropper's thresholds by the matching components of
    (w2/w1)(c_R + j c_I), and returns the translation (c_R + j c_I)/w1 to add
    to every constructed input point.  With a one-bit legitimate ADC the
    translated input achieves exactly the same rates on the original channel;
    with more levels the original channel can only do better, because the
    reduced receiver's output is a function of the original one.
    """

    def pick(spec, choice):
        idx = (len(spec.thresholds) - 1) // 2 if choice is None else int(choice)
        if not 0 <= idx < len(spec.thresholds):
            raise ValidationError(
                f"threshold index {idx} out of range for {len(spec.thresholds)} thresholds"
            )
        return spec.thresholds[idx]

    if chan.mode == "real":
        choice_r = legit_threshold_choice
        if isinstance(legit_threshold_choice, (tuple, list)):
            choice_r = legit_threshold_choice[0]
        c_r = pick(chan.legit_adc.real_part, choice_r)
        shift_r = (chan.w2.re / chan.w1.re) * c_r
        translation = complex(c_r / chan.w1.re, 0.0)
        eave = ComplexAdcPair(
            shift_thresholds(chan.eave_adc.real_part, shift_r),
            chan.eave_adc.imag_part,
        )
    else:
        if legit_threshold_choice is None:
            choice_r = choice_i = None
        elif isinstance(legit_threshold_choice, (tuple, list)):
            choice_r, choice_i = legit_threshold_choice
        else:
            choice_r = choice_i = legit_threshold_choice
        c = complex(
            pick(chan.legit_adc.real_part, choice_r),
            pick(chan.legit_adc.imag_part, choice_i),
        )
        shift = (chan.w2.value / chan.w1.value) * c
        translation = c / chan.w1.value
        eave = ComplexAdcPair(
            shift_thresholds(chan.eave_adc.real_part, shift.real),
            shift_thresholds(chan.eave_adc.imag_part, shift.imag),
        )
    reduced = replace(chan, legit_adc=one_bit_pair(), eave_adc=eave)
    return reduced, translation


def apply_power_constraint(result, power_budget):
    """Duty-cycle the scheme so the average power meets the budget.

    alpha = min(1, J / E[|X|^2]); transmitting an alpha fraction of the time
    scales both the average power and the achievable rate linearly.
    """
    j = require_finite("power_budget", power_budget)
    if j <= 0.0:
        raise ValidationError(f"power budget must be positive, got {j!r}")
    power = result.exact_rate.power
    if power <= j or power == 0.0:
        alpha = 1.0
    else:
        alpha = j / power
        while alpha * power > j:  # guard the rounding of the division
            alpha = math.nextafter(alpha, 0.0)
    return replace(result, alpha=alpha, power_budget=j)


@dataclass(frozen=True)
class QpskBound:
    """Exact QPSK rates next to the closed-form secrecy-rate lower bound."""

    i1: float
    i2: float
    rs: float
    bound: float
    input: DiscreteInput

    def to_json(self):
        return {
            "i1": self.i1,
            "i2": self.i2,
            "rs": self.rs,
            "bound": self.bound,
            "input": self.input.to_json(),
        }


def qpsk_bound(chan, power_budget):
    """QPSK aligned to the legitimate gain, with its closed-form rate bound.

    The input is uniform on sqrt(J/2) * {1+j, -1+j, -1-j, 1-j} rotated by
    -angle(w1); the legitimate receiver then sees two independent binary
    symmetric channels with I(X;Y1) = 2(1 - h(Q(|w1| sqrt(J/2)))), and the
    secrecy rate is at least 2(h(Q(|w2| sqrt(J/2))) - h(Q(|w1| sqrt(J/2)))).
    """
    j = require_finite("power_budget", power_budget)
    if j <= 0.0:
        raise ValidationError(f"power budget must be positive, got {j!r}")
    if chan.mode != "complex":
        raise ValidationError("qpsk_bound needs a complex-mode channel")
    for pair in (chan.legit_adc, chan.eave_adc):
        if not (is_symmetric_one_bit(pair.real_part) and is_symmetric_one_bit(pair.imag_part)):
            raise ValidationError("qpsk_bound needs symmetric one-bit ADC pairs at both receivers")
    amp = math.sqrt(j / 2.0)
    rot = cmath.rect(1.0, -chan.w1.phase)
    input_dist = DiscreteInput(
        tuple(amp * c * rot for c in (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)),
        (0.25, 0.25, 0.25, 0.25),
    )
    report = secrecy_rate(chan, input_dist)
    bound = 2.0 * (
        binary_entropy(channel_mod.q_function(chan.w2.magnitude * amp))
        - binary_entropy(channel_mod.q_function(chan.w1.magnitude * amp))
    )
    if chan.w1.magnitude > chan.w2.magnitude and report.rs < bound - 1e-10:
        raise RuntimeError(f"QPSK rate {report.rs} fell below its closed-form bound {bound}")
    return QpskBound(i1=report.i1, i2=report.i2, rs=report.rs, bound=bound, input=input_dist)


def achieve(chan, options=None, power_budget=None):
    """Full pipeline: reduce, construct, translate back, duty-cycle.

    Returns an AchievabilityResult whose exact_rate is measured on the
    original channel; reduced_rate keeps the rate on the reduced problem when
    a reduction was applied.
    """
    options = options or ConstructOptions()
    if chan.has_symmetric_one_bit_legit():
        result = construct_positive_rate(chan, options)
    else:
        reduced, translation = reduce_to_symmetric(chan)
        inner = construct_positive_rate(reduced, options)
        translated = DiscreteInput(
            tuple(z + translation for z in inner.input.points), inner.input.probs
        )
        report = secrecy_rate(chan, translated)
        result = replace(
            inner,
            input=translated,
            exact_rate=report,
            reduced_rate=inner.exact_rate,
            translation=translation,
        )
    if power_budget is not None:
        result = apply_power_constraint(result, power_budget)
    return result
