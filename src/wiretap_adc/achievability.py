"""Two-point input constructions that guarantee a positive secrecy rate.

The scheme places a low-probability point near the feasibility boundary of a
ray and a far point along the same ray.  As the far amplitude grows, both
receivers see a binary asymmetric (Z) channel: the far point saturates its
outermost quantizer cell while the near point keeps a crossover probability
into that cell.  The legitimate crossover stays smaller than the
eavesdropper's whenever the near amplitude clears the feasibility bound, so
the rate difference is positive in the limit and, by continuity, at some
finite far amplitude.

The sweep is deterministic and takes no tuning: RATE_FLOOR, PHI_GRID and
_MAX_DOUBLINGS are fixed.  It runs stages of steps, each step a group of
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

One scan loop.  Every stage is a list of scans, each a stream of pairs with
the phis its steps read and the number of phis per step.  The scan builds each
chunk of pairs (both receivers' rows of its new points, one _cells call over
the edge layout the construction derives once), scores it (one kernel call per
receiver, at all the scan's phis) and then walks the chunk's rates in stream
order.  With the trace off, a pair whose largest rate is at most RATE_FLOOR
and below the running best can neither hit nor lead: it only adds its
evaluations and is not walked.  Each ray direction has one limit record,
_ray_limits, worked out once: both receivers' limit cells and the saturation
amplitude, where both read 1.0 and far schedules stop.
"""

import cmath
import math
from dataclasses import dataclass, replace
from itertools import chain, islice
from operator import sub

import numpy as np
from scipy.special import ndtri

from . import channel as channel_mod
from .adc import ComplexAdcPair, one_bit_pair, shift_thresholds
from .errors import EqualGainError, SweepExhaustedError, ValidationError
from .infotheory import (
    DiscreteInput,
    RateReport,
    _rate_arrays,  # unused here; bench/layers.py patches this binding by name
    _rates_from_rows,
    binary_entropy,
    secrecy_rate,
    z_rate,
)
from .util import complex_to_json, json_fields, require_budget, require_finite

QUARTER = math.pi / 2.0

# m -> limit output of the legitimate one-bit pair, sqrt(2)*e^{j(m*pi/2 - pi/4)}
_Y1_BAR = {1: 1 + 1j, 2: -1 + 1j, 3: -1 - 1j, 4: 1 - 1j}

RATE_FLOOR = 1e-9
PHI_GRID = (0.5, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)
# far schedules and split pairs end at 2^_MAX_DOUBLINGS times their first amplitude
_MAX_DOUBLINGS = 40
# a limit cell this far past its threshold reads 1.0: its tail ndtr(-offset) <= 2^-54
_SATURATION_OFFSET = -float(ndtri(2.0**-54))

# Extended-stage refinements of the near amplitude toward the feasibility
# bound, as fractions of the canonical safety margin.
_REFINE_DELTAS = tuple(2.0 ** (-k) for k in range(-1, 13))

# Pairs are built and scored in a chunk of 2 (a canonical hit rarely needs more),
# then in chunks of _BATCH_PAIRS: a chunk costs one _rows call and one kernel call
# per receiver (~60-70 and ~25-55 us on 2 vCPUs), one more pair only a few us.
_BATCH_PAIRS = 32


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
    # "first" or "best": the stop rule in the module docstring
    mode: str = "first"
    keep_trace: bool = False

    def __post_init__(self):
        if self.mode not in ("first", "best"):
            raise ValidationError(f"options.mode must be 'first' or 'best', got {self.mode!r}")


@dataclass(frozen=True, slots=True)
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
        return {**json_fields(self, skip=("trace",)), "effective_rate": self.effective_rate}


def align_phase(w1, w2):
    """Input phase that puts both gain-rotated rays into known quadrants.

    delta = (angle(w1) - angle(w2)) mod 2pi selects the quarter-turn index m
    with (m-1)*pi/2 <= delta < m*pi/2; theta = (m*pi/2 - delta)/2 lands in
    (0, pi/4], and the input phase capital_phi = theta - angle(w2) steers the
    eavesdropper's ray to angle theta while the legitimate ray points at
    m*pi/2 - theta.

    No rounding correction is needed: float // is an exact floor and
    0 <= delta < 4 * QUARTER = 2pi, so m is 1..4; QUARTER's significand ends
    in three zero bits, so m * QUARTER is exact, m * QUARTER - delta is exact
    for m >= 2 (Sterbenz) and rounds into (0, QUARTER] for m = 1, and theta
    lies in (0, QUARTER / 2] = (0, pi/4].
    """
    if w1.magnitude == 0.0 or w2.magnitude == 0.0:
        raise ValidationError("phase alignment needs non-zero gains")
    delta = (w1.phase - w2.phase) % (2.0 * math.pi)
    if delta >= 2.0 * math.pi:  # float modulo can round up to the period itself
        delta = 0.0
    m = int(delta // QUARTER) + 1
    theta = (m * QUARTER - delta) / 2.0
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
    wd = chan.gain_for(receiver).value * direction
    return zip((wd.real, wd.imag), channel_mod._receiver_specs(chan, (receiver,)))


def _ray_limits(chan, direction):
    """((legit, eave) limit cells, saturation amplitude) of a ray direction.

    A limit cell is the joint output index a receiver saturates in as the far
    point recedes; from the saturation amplitude on, every limit-cell axis of
    both receivers clears _SATURATION_OFFSET, so both limit cells read 1.0.
    """
    cells, saturated = [], -math.inf
    for receiver in channel_mod.RECEIVERS:
        index = 0
        for drift, spec in _ray_axes(chan, receiver, direction):
            if drift == 0.0:
                raise ValidationError("ray drifts along a quantizer axis; no limit cell")
            index = index * spec.levels + (spec.levels - 1 if drift > 0.0 else 0)
            edge = spec.thresholds[-1] if drift > 0.0 else -spec.thresholds[0]
            saturated = max(saturated, (_SATURATION_OFFSET + edge) / abs(drift))
        cells.append(index)
    return tuple(cells), saturated


def _require_theta(theta):
    theta = require_finite("theta", theta)
    if not 0.0 < theta <= math.pi / 4.0:
        raise ValidationError(f"theta must lie in (0, pi/4], got {theta!r}")
    return theta


def crossover_probs(chan, theta, a):
    """Z-channel crossovers of the canonical construction at near amplitude a.

    In complex mode these equal Q(-|w1| a sin theta) * Q(-|w1| a cos theta)
    for the legitimate receiver and Q(q_R,top - |w2| a cos theta) *
    Q(q_I,top - |w2| a sin theta) for the eavesdropper; real mode collapses
    to single factors.  Values are read off the exact transition rows of the
    near point, so they match those products up to final rounding.
    """
    a = require_finite("a", a)
    if not chan.has_symmetric_one_bit("legit"):
        raise ValidationError("crossover_probs needs a symmetric one-bit legitimate receiver")
    if chan.mode == "complex":
        theta = _require_theta(theta)
    direction = _canonical_direction(chan, theta)
    (idx1, idx2), _ = _ray_limits(chan, direction)
    row1, row2 = channel_mod._rows(chan, channel_mod.RECEIVERS, [complex(a * direction)])
    return float(row1[0, idx1]), float(row2[0, idx2])


def _canonical_direction(chan, theta):
    """The canonical ray's unit direction: sign(w2) in real mode, else e^{j(theta - angle(w2))}."""
    if chan.mode == "real":
        return 1.0 if chan.w2.re > 0.0 else -1.0
    return cmath.rect(1.0, theta - chan.w2.phase)


def choose_amplitude(chan, theta=None):
    """Near amplitude clearing the feasibility bound with a safety margin.

    With s = |w2| - |w1| the bound is max(q_R,top / (s cos theta),
    q_I,top / (s sin theta)) in complex mode (min when s < 0) and q_top / s
    in real mode; the returned amplitude is bound + sign(s) * max(1, |bound|).
    """
    s = chan.w2.magnitude - chan.w1.magnitude
    if s == 0.0:
        raise EqualGainError("equal gain magnitudes: |w1| == |w2|")
    theta = _require_theta(theta) if chan.mode == "complex" else 0.0
    specs = channel_mod._receiver_specs(chan, ("eave",))  # real mode: one axis, share cos 0 = 1
    shares = (math.cos(theta), math.sin(theta))
    cands = [spec.thresholds[-1] / (s * share) for spec, share in zip(specs, shares)]
    bound = max(cands) if s > 0.0 else min(cands)
    return bound + math.copysign(max(1.0, abs(bound)), s)


def zchannel_limit(phi, p1, p2):
    """Large-amplitude limit of the construction's rate: f_phi(p1) - f_phi(p2)."""
    return z_rate(phi, p1) - z_rate(phi, p2)


class _Sweep:
    """Pair-stream scanner tracking the running best and optional trace.

    It keeps both receivers' rows of every point and the _ray_limits of every
    direction the construction meets, so each is worked out once.
    """

    def __init__(self, chan, options):
        self.chan = chan
        self.options = options
        self.trace = [] if options.keep_trace else None
        self.best = None  # (rs, (sort amplitude, phi), candidate)
        self.evaluations = 0
        self._rows, self._rays = {}, {}  # by point, by direction
        self._layout = channel_mod._edge_layout(
            channel_mod._receiver_specs(chan, channel_mod.RECEIVERS))

    def build(self, points):
        """Rows of the points not met yet at both receivers, from one _cells call."""
        new = list(dict.fromkeys(p for p in points if p not in self._rows))
        if new:
            rows = channel_mod._rows(self.chan, channel_mod.RECEIVERS, new, layout=self._layout)
            self._rows.update(zip(new, zip(*rows)))

    def ray(self, direction):
        """The direction's _ray_limits, worked out once."""
        if direction not in self._rays:
            self._rays[direction] = _ray_limits(self.chan, direction)
        return self._rays[direction]

    def limit_mass(self, direction, point):
        """(legit, eave) mass of the point's rows in the limit cells: a near point's (p1, p2)."""
        (idx1, idx2), _ = self.ray(direction)
        row1, row2 = self._rows[point]
        return float(row1[idx1]), float(row2[idx2])

    def scan(self, pairs, phis, width):
        """Evaluate each pair at phis in stream order, one step per run of width phis.

        pairs yields (near, far, limit direction, sort amplitude, meta), built and
        scored in a chunk of 2, then chunks of _BATCH_PAIRS (a chunk's fixed cost
        dwarfs a pair's); the near point's mass in the limit direction's cells
        gives p1 and p2.  With the trace off, a pair that can neither hit nor lead
        (module docstring) is not walked.  Returns the "first"-mode hit or None.
        """
        laws = np.array([(phi, 1.0 - phi) for phi in phis])
        steps = [range(k, k + width) for k in range(0, len(phis), width)]
        pairs, size = iter(pairs), 2
        while chunk := list(islice(pairs, size)):
            size = _BATCH_PAIRS
            self.build(point for pair in chunk for point in pair[:2])
            rates = _rates_from_rows(laws, [[(self._rows[near][r], self._rows[far][r])
                                             for near, far, *_ in chunk] for r in (0, 1)])
            for (near, far, limit_dir, amp, meta), (i1s, i2s) in zip(chunk, rates):
                if self.trace is None and self.best is not None:
                    top = max(map(sub, i1s, i2s))
                    if top <= RATE_FLOOR and top < self.best[0]:
                        self.ray(limit_dir)  # a ray along an axis still raises here
                        self.evaluations += len(phis)
                        continue
                p1, p2 = self.limit_mass(limit_dir, near)
                meta = {**meta, "p1": p1, "p2": p2}
                for step in steps:
                    hit = None
                    for j in step:
                        phi, i1, i2 = phis[j], i1s[j], i2s[j]
                        rs = i1 - i2
                        self.evaluations += 1
                        if self.trace is not None:
                            limit = meta.get("limit", zchannel_limit(phi, p1, p2))
                            self.trace.append((amp, phi, i1, i2, rs, limit))
                        first = rs > RATE_FLOOR and (hit is None or phi < hit[2])
                        best = self.best is None or rs > self.best[0] or (
                            rs == self.best[0] and (amp, phi) < self.best[1])
                        if first or best:
                            power = phi * abs(near) ** 2 + (1.0 - phi) * abs(far) ** 2
                            candidate = (near, far, phi, RateReport(i1, i2, rs, power), meta)
                            hit = candidate if first else hit
                            if best:
                                self.best = (rs, (amp, phi), candidate)
                    if hit is not None and self.options.mode == "first":
                        return hit
        return None


def _far_points(near_amp, direction, saturated):
    """[(far_amp, far point)] at max(|near_amp|, 1) * 2^k along direction, k <= _MAX_DOUBLINGS.

    Ends at the first far point at or past saturated, the direction's
    saturation amplitude (_ray_limits).
    """
    base = max(abs(near_amp), 1.0)
    k = next((k for k in range(_MAX_DOUBLINGS) if base * 2.0**k >= saturated), _MAX_DOUBLINGS)
    return [(base * 2.0**j, complex(base * 2.0**j * direction)) for j in range(k + 1)]


def _eave_bounds(chan, direction):
    """(feasibility bound, threshold riders) of the eavesdropper along a ray direction.

    The bound is choose_amplitude's, generalized to any direction; the riders
    are the amplitudes whose eavesdropper mean sits exactly on a threshold.
    Axes with zero drift are skipped.
    """
    s = chan.w2.magnitude - chan.w1.magnitude
    cands, riders = [], []
    for drift, spec in _ray_axes(chan, "eave", direction):
        if drift != 0.0:
            edge = spec.thresholds[-1] if drift > 0.0 else -spec.thresholds[0]
            cands.append(edge / (s * abs(drift) / chan.w2.magnitude))
            riders.extend(t / drift for t in spec.thresholds)
    return (max(cands) if s > 0.0 else min(cands)), riders


def construct_positive_rate(chan, options=None):
    """Search the two-point family for an input with exact rate above the floor.

    The channel must already have a symmetric one-bit legitimate receiver
    (reduce_to_symmetric handles general legitimate ADCs).  Raises
    EqualGainError when |w1| == |w2| and SweepExhaustedError (with
    diagnostics) when no candidate clears RATE_FLOOR.
    """
    if not chan.has_symmetric_one_bit("legit"):
        raise ValidationError(
            "construct_positive_rate needs a symmetric one-bit legitimate receiver; "
            "apply reduce_to_symmetric first"
        )
    return _construct(chan, options or ConstructOptions())


def _construct(chan, options):
    """construct_positive_rate on a channel known to have a symmetric one-bit legit receiver."""
    sweep = _Sweep(chan, options)
    alignment = None if chan.mode == "real" else align_phase(chan.w1, chan.w2)
    theta, line_angle, ray = (None, 0.0, None) if alignment is None else (
        alignment.theta, alignment.capital_phi, 0)
    canonical = _ray_pairs(sweep, [choose_amplitude(chan, theta)],
                           _canonical_direction(chan, theta), line_angle, ray, "limit")

    # lists of scans (pairs, phis, phis per step); the extended rays are worked out lazily
    stages = [("canonical", [(canonical, PHI_GRID, len(PHI_GRID))]),
              ("extended", _extended_scans(sweep, alignment))]
    if chan.mode == "complex" and theta < math.pi / 4.0:
        stages.append(("split_pair", [(_split_pairs(chan, alignment), PHI_GRID, 1)]))
    stage_evaluations = {}
    for name, scans in stages:
        before = sweep.evaluations
        hit = next(filter(None, (sweep.scan(*scan) for scan in scans)), None)
        stage_evaluations[name] = sweep.evaluations - before
        if hit is None and sweep.best is not None and sweep.best[0] > RATE_FLOOR:
            hit = sweep.best[2]
        if hit is not None:
            return _result(chan, alignment, hit, sweep.trace)

    best_rs, _, best_cand = sweep.best if sweep.best is not None else (None, None, None)
    raise SweepExhaustedError(
        "no two-point candidate exceeded the rate floor",
        diagnostics={
            "rate_floor": RATE_FLOOR,
            "best_rate": best_rs,
            "best_candidate": None if best_cand is None else {
                "near": complex_to_json(best_cand[0]), "far": complex_to_json(best_cand[1]),
                "phi": best_cand[2]},
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


def _ray_pairs(sweep, near_amps, direction, line_angle, ray, regime):
    """Each near amplitude's pairs along its far schedule, sorted by far amplitude.

    A near amplitude of 1 or more is its schedule's first far point: that pair is skipped.
    """
    meta = {"ray": ray, "line_angle": line_angle, "regime": regime}
    _, saturated = sweep.ray(direction)
    for near_amp in near_amps:
        near = complex(near_amp * direction)
        for far_amp, far in _far_points(near_amp, direction, saturated):
            if far != near:
                yield near, far, direction, far_amp, meta


def _extended_scans(sweep, alignment):
    """Deterministic fallback scans beyond the canonical margin rule.

    First alternative near amplitudes rerun the far schedule on each
    quarter-turn ray: the per-ray margin amplitude, refinements toward the
    feasibility bound, threshold riders, and zero.  Then riding amplitudes on
    each line pair up directly, one (pair, phi) step at a time with phi in
    (0.5, 0.3, 0.7) order, which covers eavesdropper-pinning inputs the
    schedule cannot reach.  The lines are the first half of the rays: the
    other half runs along the same lines the other way.
    """
    chan = sweep.chan
    s = chan.w2.magnitude - chan.w1.magnitude
    if chan.mode == "complex":
        base = alignment.capital_phi
        rays = [(r, cmath.rect(1.0, base + r * QUARTER), base + r * QUARTER) for r in range(4)]
    else:
        rays = [(None, 1.0, 0.0), (None, -1.0, 0.0)]

    ray_pairs, lines = [], []
    for ray, direction, line_angle in rays:
        bound, riders = _eave_bounds(chan, direction)
        amps = [bound + math.copysign(max(1.0, abs(bound)), s)]
        amps.extend(bound + math.copysign(d * max(1.0, abs(bound)), s) for d in _REFINE_DELTAS)
        amps.extend(sorted(riders, key=lambda v: (abs(v), v)))
        amps.append(0.0)
        amps = list(dict.fromkeys(amp for amp in amps if math.isfinite(amp)))
        ray_pairs.append(_ray_pairs(sweep, amps, direction, line_angle, ray, "searched"))
        lines.append((ray, direction, line_angle, riders))

    yield chain(*ray_pairs), PHI_GRID, len(PHI_GRID)
    yield _riding_pairs(lines[: len(lines) // 2]), (0.5, 0.3, 0.7), 1


def _riding_pairs(lines):
    """Pairs of a line's threshold riders (and zero), smallest first, line by line."""
    for ray, direction, line_angle, riders in lines:
        # "limit": None leaves the trace's limit column empty
        meta = {"ray": ray, "line_angle": line_angle, "regime": "searched", "limit": None}
        values = sorted(set(riders) | {0.0})
        pairs = [(u, v) for i, u in enumerate(values) for v in values[i + 1 :]]
        pairs.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p))
        for u, v in pairs:
            near_amp, far_amp = (u, v) if abs(u) <= abs(v) else (v, u)
            # orient the far role along the larger amplitude for diagnostics
            far_dir = direction if far_amp >= 0.0 else -direction
            near, far = complex(near_amp * direction), complex(far_amp * direction)
            yield near, far, far_dir, abs(far_amp), meta


def _split_pairs(chan, alignment):
    """Near point on the canonical ray, far point half a quarter-turn further.

    With theta < pi/4 the eavesdropper sees both rays inside its first
    quadrant while the legitimate receiver sees them in adjacent quadrants,
    so at equal amplitudes 2^k both points saturate into one eavesdropper
    corner cell but into different legitimate cells, and the rate tends to
    h(phi).
    """
    near_dir = _canonical_direction(chan, alignment.theta)
    far_angle = alignment.capital_phi + QUARTER / 2.0
    far_dir = cmath.rect(1.0, far_angle)
    meta = {"ray": None, "line_angle": alignment.capital_phi, "far_angle": far_angle,
            "regime": "searched"}
    for k in range(_MAX_DOUBLINGS + 1):
        amp = 2.0**k
        yield complex(amp * near_dir), complex(amp * far_dir), far_dir, amp, meta


def reduce_to_symmetric(chan):
    """Equivalent problem with a symmetric one-bit legitimate receiver.

    Picks the median-index legitimate threshold of each component, shifts the
    eavesdropper's thresholds by the matching components of
    (w2/w1)(c_R + j c_I), and returns the translation (c_R + j c_I)/w1 to add
    to every constructed input point.  With a one-bit legitimate ADC the
    translated input achieves exactly the same rates on the original channel;
    with more levels the original channel can only do better, because the
    reduced receiver's output is a function of the original one.
    """

    def median(spec):
        return spec.thresholds[(len(spec.thresholds) - 1) // 2]

    if chan.mode == "real":
        c_r = median(chan.legit_adc.real_part)
        shift_r = (chan.w2.re / chan.w1.re) * c_r
        translation = complex(c_r / chan.w1.re, 0.0)
        eave = ComplexAdcPair(
            shift_thresholds(chan.eave_adc.real_part, shift_r),
            chan.eave_adc.imag_part,
        )
    else:
        c = complex(median(chan.legit_adc.real_part), median(chan.legit_adc.imag_part))
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
    j = require_budget(power_budget)
    power = result.exact_rate.power
    if power <= j:
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
        return json_fields(self)


def qpsk_bound(chan, power_budget):
    """QPSK aligned to the legitimate gain, with its closed-form rate bound.

    The input is uniform on sqrt(J/2) * {1+j, -1+j, -1-j, 1-j} rotated by
    -angle(w1); the legitimate receiver then sees two independent binary
    symmetric channels with I(X;Y1) = 2(1 - h(Q(|w1| sqrt(J/2)))), and the
    secrecy rate is at least 2(h(Q(|w2| sqrt(J/2))) - h(Q(|w1| sqrt(J/2)))).
    """
    j = require_budget(power_budget)
    if chan.mode != "complex":
        raise ValidationError("qpsk_bound needs a complex-mode channel")
    if not all(chan.has_symmetric_one_bit(receiver) for receiver in channel_mod.RECEIVERS):
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
    if chan.has_symmetric_one_bit("legit"):
        result = _construct(chan, options)
    else:
        reduced, translation = reduce_to_symmetric(chan)  # its legit receiver is one_bit_pair()
        inner = _construct(reduced, options)
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
