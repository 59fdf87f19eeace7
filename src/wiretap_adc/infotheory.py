"""Entropies, mutual information, secrecy rates, and related special functions.

All rates are in bits (log base 2).  The conventions 0*log(0) = 0 and
W*log(W/P) = 0 when W = 0 apply throughout.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import channel as channel_mod
from .errors import ValidationError
from .util import complex_from_json, complex_to_json, require_finite

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
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
        if any(p < 0.0 for p in probs):
            raise ValidationError(f"probabilities must be nonnegative: {probs}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, outside 1 +/- {PROB_SUM_TOL}")

    @property
    def power(self):
        return float(math.fsum(p * abs(z) ** 2 for z, p in zip(self.points, self.probs)))

    @property
    def is_real(self):
        return all(z.imag == 0.0 for z in self.points)

    def real_points(self):
        if not self.is_real:
            raise ValidationError("input has non-real support points")
        return np.array([z.real for z in self.points])

    def to_json(self):
        return {
            "points": [complex_to_json(z) for z in self.points],
            "probs": list(self.probs),
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "points" not in obj or "probs" not in obj:
            raise ValidationError(f"input config needs points/probs keys, got {obj!r}")
        pts = [complex_from_json(p, "point") for p in obj["points"]]
        return cls(tuple(pts), tuple(obj["probs"]))


@dataclass(frozen=True)
class RateReport:
    """I(X;Y1), I(X;Y2), their difference, and the input power."""

    i1: float
    i2: float
    rs: float
    power: float

    def to_json(self):
        return {"i1": self.i1, "i2": self.i2, "rs": self.rs, "power": self.power}


def binary_entropy(p):
    """-p*log2(p) - (1-p)*log2(1-p), with h(0) = h(1) = 0."""
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValidationError(f"binary_entropy needs p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropy_terms(w, ref):
    """Elementwise w*log2(w/ref) with zero weight giving zero."""
    w = np.asarray(w, dtype=float)
    ref = np.broadcast_to(np.asarray(ref, dtype=float), w.shape)
    safe_w = np.where(w > 0.0, w, 1.0)
    safe_ref = np.where(ref > 0.0, ref, 1.0)
    # zero-weight cells may still divide tiny/tiny; they are masked below
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(w > 0.0, w * np.log2(safe_w / safe_ref), 0.0)


def _mutual_information_arrays(probs, W):
    probs = np.asarray(probs, dtype=float)
    W = np.asarray(W, dtype=float)
    py = probs @ W
    terms = _entropy_terms(W, py[None, :])
    terms = np.where(probs[:, None] > 0.0, terms, 0.0)
    return max(0.0, float(probs @ terms.sum(axis=1)))


def mutual_information(input_dist, matrix):
    """I(X;Y) in bits for a discrete input and a transition matrix."""
    if matrix.inputs != input_dist.points:
        raise ValidationError("matrix rows are not aligned with the input support")
    return _mutual_information_arrays(input_dist.probs, matrix.probs)


def _receiver_rows(chan, points):
    """(legit rows, eave rows): one transition row per point at each receiver."""
    return tuple(channel_mod.transition_rows(chan, r, points) for r in channel_mod.RECEIVERS)


def _rates_from_rows(probs, rows):
    """(i1, i2) from _receiver_rows output under the input law probs."""
    return tuple(_mutual_information_arrays(probs, w) for w in rows)


def _rate_arrays(chan, points, probs):
    """(i1, i2) from raw support arrays; skips DiscreteInput validation.

    Used by the optimizer, whose search iterates may contain coincident
    points; values are bit-identical to secrecy_rate on a clean input.
    """
    return _rates_from_rows(probs, _receiver_rows(chan, points))


def secrecy_rate(chan, input_dist):
    """Exact RateReport for one channel and input; rs = i1 - i2."""
    if chan.mode == "real" and not input_dist.is_real:
        raise ValidationError("real-mode channel requires a real input")
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


def information_density(x, input_dist, matrix, row=None):
    """Per-input integrand i(x) = sum_y W(y|x) log2(W(y|x)/P_Y(y)).

    The output law P_Y comes from input_dist and matrix.  For x in the
    matrix support its row is used; for other x pass the transition row
    explicitly via ``row``.  Returns +inf if x puts mass on an output that
    the input distribution never produces.
    """
    if row is None:
        x = complex(x)
        try:
            idx = matrix.inputs.index(x)
        except ValueError as exc:
            raise ValidationError(
                f"{x} is not in the matrix support; pass its transition row explicitly"
            ) from exc
        row = matrix.probs[idx]
    row = np.asarray(row, dtype=float)
    if row.shape != (len(matrix.output_alphabet),):
        raise ValidationError(
            f"row has shape {row.shape}, expected ({len(matrix.output_alphabet)},)"
        )
    py = np.asarray(input_dist.probs, dtype=float) @ matrix.probs
    return float(information_densities(row, py))


def information_densities(rows, py):
    """Information density sum_y W(y|x) log2(W(y|x)/P_Y(y)) of each row, in bits.

    Works on one row or a stack of rows; a row with mass on an output that
    P_Y never produces gets +inf.
    """
    unseen = np.any((rows > 0.0) & (py == 0.0), axis=-1)
    return np.where(unseen, math.inf, _entropy_terms(rows, py).sum(axis=-1))


def folding_functions(input_dist, w):
    """Tail statistics (c, d, F) comparing an input with its magnitude-folded version.

    c - d = E[Q(w|X|)] and c + d = E[Q(wX)], so F = h(c-d) - h(c+d) is the
    entropy gap between the folded and original inputs seen through a sign
    quantizer with gain w.  Always 0 <= d <= c <= 1/2, and d < c.
    """
    w = require_finite("w", w)
    if w <= 0.0:
        raise ValidationError(f"folding_functions needs w > 0, got {w!r}")
    if not input_dist.is_real:
        raise ValidationError("folding_functions needs a real-mode input")
    x = input_dist.real_points()
    p = np.asarray(input_dist.probs, dtype=float)
    q_folded = float(p @ ndtr(-w * np.abs(x)))   # E[Q(w|X|)]
    q_signed = float(p @ ndtr(-w * x))           # E[Q(wX)]
    c = 0.5 * (q_folded + q_signed)
    d = 0.5 * (q_signed - q_folded)
    f_val = binary_entropy(max(0.0, c - d)) - binary_entropy(min(1.0, c + d))
    return c, d, f_val
