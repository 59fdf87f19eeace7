"""Entropies, mutual information, secrecy rates, and related special functions.

All rates are in bits (log base 2).  The conventions 0*log(0) = 0 and
W*log(W/P) = 0 when W = 0 apply throughout.  _information is the one place
W*log2(W/P_Y) is formed: every rate, every information density (kkt_check,
verify) and the optimizer's gradient read its results.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import channel as channel_mod
from .errors import ValidationError
from .util import complex_from_json, json_array, json_fields, json_object, require_finite

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class DiscreteInput:
    """Finite-support input distribution; points are complex (imag 0 in real mode)."""

    points: tuple
    probs: tuple

    def __post_init__(self):
        points = tuple(complex(p) for p in self.points)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)
        if len(points) != len(probs):
            raise ValidationError(
                f"{len(points)} points vs {len(probs)} probabilities"
            )
        if not points:
            raise ValidationError("input support must be non-empty")
        for z in points:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValidationError(f"support points must be finite, got {z!r}")
        if len(set(points)) != len(points):
            raise ValidationError("support points must be pairwise distinct")
        if not all(p >= 0.0 for p in probs):  # NaN too: it would pass the sum check
            raise ValidationError(f"probabilities must be nonnegative: {probs}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, outside 1 +/- {PROB_SUM_TOL}")

    @property
    def power(self):
        return float(math.fsum(p * abs(z) ** 2 for z, p in zip(self.points, self.probs)))

    def real_points(self):
        """The points as a float array: the one check that an input is real."""
        if any(z.imag != 0.0 for z in self.points):
            raise ValidationError("input has non-real support points")
        return np.array([z.real for z in self.points])

    def to_json(self):
        return json_fields(self)

    @classmethod
    def from_json(cls, obj):
        json_object(obj, "input", required=("points", "probs"))
        pts = [complex_from_json(p, "point") for p in json_array(obj["points"], "input points")]
        probs = json_array(obj["probs"], "input probs")
        return cls(tuple(pts), tuple(require_finite("probs", p) for p in probs))


@dataclass(frozen=True, slots=True)
class RateReport:
    """I(X;Y1), I(X;Y2), their difference, and the input power."""

    i1: float
    i2: float
    rs: float
    power: float

    def to_json(self):
        return json_fields(self)


def binary_entropy(p):
    """-p*log2(p) - (1-p)*log2(1-p), with h(0) = h(1) = 0."""
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValidationError(f"binary_entropy needs p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _information(laws, W, log_ratios=False):
    """(rates, densities, P_Y) of input laws (B, m) on transition rows W (n, K), n >= m.

    P_Y = laws @ W[:m], so rows past the m-th (kkt_check's grid) get
    densities sum_y W log2(W/P_Y) but no weight; outputs P_Y never produces
    read P_Y = 1.  Rates are B floats, densities (B, n), P_Y (B, K); rows
    stacked (P, n, K) lead each with P.  log_ratios adds log2(W/P_Y), 0 where
    W is 0, (B, n, K): a second row-sized array, so built only on request.
    """
    laws = np.asarray(laws, dtype=float)
    W = np.asarray(W, dtype=float)
    m = laws.shape[1]
    stack = (W if W.ndim == 3 else W[None])[:, None]
    # stacked products give each (support, law) the same vector products, and
    # so the same bits, as a one-law call on that support alone
    py = laws[None, :, None, :] @ stack[..., :m, :]
    with np.errstate(over="ignore"):  # w / tiny P_Y may overflow to +inf
        ratio = np.divide(stack, np.where(py > 0.0, py, 1.0))
    # 1 where w <= 0, so those terms are w * 0 and log2 never meets 0
    np.copyto(ratio, 1.0, where=stack <= 0.0)
    np.log2(ratio, out=ratio)
    densities = np.multiply(stack, ratio, out=None if log_ratios else ratio).sum(axis=3)
    sums = np.where(laws > 0.0, densities[..., :m], 0.0)  # 0 * inf is NaN
    info = laws[None, :, None, :] @ sums[..., None]
    rates = np.where(info > 0.0, info, 0.0).reshape(len(info), -1).tolist()  # NaN, -0.0 -> 0.0
    out = (rates, densities, py[..., 0, :]) + ((ratio,) if log_ratios else ())
    return out if W.ndim == 3 else tuple(a[0] for a in out)


def _receiver_rows(chan, points):
    """(legit rows, eave rows): one transition row per point at each receiver."""
    # not channel._rows: the bench's L1.rows span hooks transition_rows, reached from here
    return tuple(channel_mod.transition_rows(chan, r, points) for r in channel_mod.RECEIVERS)


def _rates_from_rows(laws, rows):
    """(i1, i2) per law, or (i1s, i2s) per support of stacked rows; one kernel call per receiver."""
    return list(zip(*(_information(laws, w)[0] for w in rows)))


def _rate_arrays(chan, points, probs):
    """(i1, i2) from raw support arrays; skips DiscreteInput validation.

    Used by the optimizer, whose search iterates may contain coincident
    points; values are bit-identical to secrecy_rate on a clean input.
    """
    return _rates_from_rows([probs], _receiver_rows(chan, points))[0]


def secrecy_rate(chan, input_dist):
    """Exact RateReport for one channel and input; rs = i1 - i2."""
    i1, i2 = _rate_arrays(chan, input_dist.points, input_dist.probs)
    return RateReport(i1=i1, i2=i2, rs=i1 - i2, power=input_dist.power)


def z_rate(phi, p):
    """Rate of the binary asymmetric (Z) channel under a Bern(phi) input.

    One input symbol passes noiselessly, the other flips with probability p:
    the mutual information is h(phi*(1-p)) - phi*h(p).
    """
    phi = float(phi)
    if not 0.0 < phi < 1.0:
        raise ValidationError(f"z_rate needs phi in (0, 1), got {phi!r}")
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValidationError(f"z_rate needs p in [0, 1], got {p!r}")
    return binary_entropy(phi * (1.0 - p)) - phi * binary_entropy(p)


def folding_functions(input_dist, w):
    """Tail statistics (c, d, F) comparing an input with its magnitude-folded version.

    c - d = E[Q(w|X|)] and c + d = E[Q(wX)], so F = h(c-d) - h(c+d) is the
    entropy gap between the folded and original inputs seen through a sign
    quantizer with gain w.  Always 0 <= d <= c <= 1/2, and d < c.
    """
    w = require_finite("w", w)
    if w <= 0.0:
        raise ValidationError(f"folding_functions needs w > 0, got {w!r}")
    x = input_dist.real_points()
    p = np.asarray(input_dist.probs, dtype=float)
    q_folded = float(p @ ndtr(-w * np.abs(x)))   # E[Q(w|X|)]
    q_signed = float(p @ ndtr(-w * x))           # E[Q(wX)]
    c = 0.5 * (q_folded + q_signed)
    d = 0.5 * (q_signed - q_folded)
    f_val = binary_entropy(max(0.0, c - d)) - binary_entropy(min(1.0, c + d))
    return c, d, f_val
