"""Exact transition laws of Gaussian wiretap channels observed through ADCs.

The legitimate receiver and the eavesdropper each see the input scaled by a
complex gain plus Gaussian noise with per-component variance 1 (this
normalization is hard-coded; other variances are expressed by rescaling gains
and thresholds).  Each component is quantized independently, and joint
outputs are enumerated as (real cell index) * k_I + (imag cell index).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .adc import ComplexAdcPair, is_symmetric_one_bit
from .errors import ValidationError
from .util import require_finite

logger = logging.getLogger(__name__)

# Cell probabilities this small are pure round-off of the tail difference;
# clamp to zero so downstream logs stay finite.
UNDERFLOW_FLOOR = 1e-300

ROW_SUM_TOL = 1e-12

RECEIVERS = ("legit", "eave")


@dataclass(frozen=True)
class ComplexGain:
    re: float
    im: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "re", require_finite("gain re", self.re))
        object.__setattr__(self, "im", require_finite("gain im", self.im))

    @property
    def magnitude(self):
        return math.hypot(self.re, self.im)

    @property
    def phase(self):
        return math.atan2(self.im, self.re)

    @property
    def value(self):
        return complex(self.re, self.im)

    def to_json(self):
        return {"re": self.re, "im": self.im}

    @classmethod
    def from_json(cls, obj, name="gain"):
        from .util import complex_from_json

        z = complex_from_json(obj, name)
        return cls(z.real, z.imag)


@dataclass(frozen=True)
class WiretapChannel:
    """Gains and ADC pairs for both receivers, in real or complex mode."""

    w1: ComplexGain
    w2: ComplexGain
    legit_adc: ComplexAdcPair
    eave_adc: ComplexAdcPair
    mode: str = "complex"

    def __post_init__(self):
        if self.mode not in ("real", "complex"):
            raise ValidationError(f"mode must be 'real' or 'complex', got {self.mode!r}")
        for name, w in (("w1", self.w1), ("w2", self.w2)):
            if w.magnitude == 0.0:
                raise ValidationError(f"{name} must be non-zero")
            if self.mode == "real" and w.im != 0.0:
                raise ValidationError(f"{name} must be real in real mode, got {w}")

    def adc_for(self, receiver):
        if receiver not in RECEIVERS:
            raise ValidationError(f"receiver must be one of {RECEIVERS}, got {receiver!r}")
        return self.legit_adc if receiver == "legit" else self.eave_adc

    def gain_for(self, receiver):
        if receiver not in RECEIVERS:
            raise ValidationError(f"receiver must be one of {RECEIVERS}, got {receiver!r}")
        return self.w1 if receiver == "legit" else self.w2

    def has_symmetric_one_bit_legit(self):
        if self.mode == "real":
            return is_symmetric_one_bit(self.legit_adc.real_part)
        return is_symmetric_one_bit(self.legit_adc.real_part) and is_symmetric_one_bit(
            self.legit_adc.imag_part
        )

    def to_json(self):
        return {
            "mode": self.mode,
            "w1": self.w1.to_json(),
            "w2": self.w2.to_json(),
            "legit_adc": self.legit_adc.to_json(),
            "eave_adc": self.eave_adc.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValidationError(f"channel config must be an object, got {obj!r}")
        missing = {"mode", "w1", "w2", "legit_adc", "eave_adc"} - set(obj)
        if missing:
            raise ValidationError(f"channel config missing keys: {sorted(missing)}")
        return cls(
            w1=ComplexGain.from_json(obj["w1"], "w1"),
            w2=ComplexGain.from_json(obj["w2"], "w2"),
            legit_adc=ComplexAdcPair.from_json(obj["legit_adc"]),
            eave_adc=ComplexAdcPair.from_json(obj["eave_adc"]),
            mode=obj["mode"],
        )


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic P(Y|X) over enumerated quantizer outputs."""

    inputs: tuple
    output_alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "inputs", tuple(complex(x) for x in self.inputs))
        object.__setattr__(self, "output_alphabet", tuple(self.output_alphabet))
        if probs.ndim != 2:
            raise ValidationError(f"probs must be 2-D, got shape {probs.shape}")
        if probs.shape != (len(self.inputs), len(self.output_alphabet)):
            raise ValidationError(
                f"probs shape {probs.shape} does not match "
                f"{len(self.inputs)} inputs x {len(self.output_alphabet)} outputs"
            )
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
            raise ValidationError("transition probabilities must lie in [0, 1]")
        sums = probs.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            i = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(f"row {i} sums to {sums[i]!r}, outside 1 +/- {ROW_SUM_TOL}")


def q_function(x):
    """Standard normal tail Q(x) = P(N > x), via the complementary error function."""
    x = require_finite("x", x)
    return float(ndtr(-x))


def _cells(spec, means):
    """Probability of each cell for Gaussian(mean, 1) samples; stable in the tails.

    For cell (lo, hi) with a = lo - mean and b = hi - mean the difference of
    tails is taken in the direction that avoids cancellation: right tail when
    a >= 0, left tail when b <= 0, and 1 minus both tails when the mean is
    inside the cell.
    """
    m = np.asarray(means, dtype=float)[:, None]
    lo, hi = spec.cell_edges()
    a = lo[None, :] - m
    b = hi[None, :] - m
    out = np.where(
        a >= 0.0,
        ndtr(-a) - ndtr(-b),
        np.where(b <= 0.0, ndtr(b) - ndtr(a), 1.0 - ndtr(a) - ndtr(-b)),
    )
    np.clip(out, 0.0, 1.0, out=out)
    tiny = (out > 0.0) & (out < UNDERFLOW_FLOOR)
    if tiny.any():
        logger.debug("clamped %d cell probabilities below %g to 0", int(tiny.sum()), UNDERFLOW_FLOOR)
        out[tiny] = 0.0
    return out


def output_alphabet(channel, receiver):
    """Enumerated outputs; complex mode pairs labels as y_R + j*y_I."""
    pair = channel.adc_for(receiver)
    if channel.mode == "real":
        return tuple(pair.real_part.outputs)
    return tuple(
        complex(yr, yi) for yr in pair.real_part.outputs for yi in pair.imag_part.outputs
    )


def transition_row(channel, receiver, x):
    """Output distribution for a single input value x."""
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise ValidationError(f"input must be finite, got {x!r}")
    return transition_rows(channel, receiver, (x,))[0]


def transition_rows(channel, receiver, xs):
    """Output distributions for many inputs, one row per input.

    Complex-mode rows are the outer product of the two component rows,
    flattened row-major to match output_alphabet.
    """
    xs = [complex(x) for x in xs]
    pair = channel.adc_for(receiver)
    w = channel.gain_for(receiver)
    if channel.mode == "real":
        for x in xs:
            if x.imag != 0.0:
                raise ValidationError(f"real-mode input must be real, got {x}")
        means = np.array([w.re * x.real for x in xs])
        return _cells(pair.real_part, means)
    wx = np.array([w.value * x for x in xs])
    rows_r = _cells(pair.real_part, wx.real)
    rows_i = _cells(pair.imag_part, wx.imag)
    return np.einsum("xr,xi->xri", rows_r, rows_i).reshape(len(xs), -1)


def transition_matrix(channel, receiver, input_dist):
    """Stack transition_row over the support of a discrete input."""
    probs = transition_rows(channel, receiver, input_dist.points)
    return TransitionMatrix(
        inputs=input_dist.points,
        output_alphabet=output_alphabet(channel, receiver),
        probs=probs,
    )

