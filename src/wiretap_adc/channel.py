"""Exact transition laws of Gaussian wiretap channels observed through ADCs.

The legitimate receiver and the eavesdropper each see the input scaled by a
complex gain plus Gaussian noise with per-component variance 1 (this
normalization is hard-coded; other variances are expressed by rescaling gains
and thresholds).  Each component is quantized independently, and joint
outputs are enumerated as (real cell index) * k_I + (imag cell index).

The cells of several ADCs side by side come from one _cells call over their
edge layout (_edge_layout): the edge array, each ADC's edge count, the cell
columns kept and each ADC's block of them.  A layout depends only on the ADCs,
so a caller that builds rows of one channel again and again (a construction)
derives it once and passes it to _rows.

Two input rules live in one place each: _receiver_specs says which quantizers
a mode reads (real mode: each receiver's in-phase ADC; complex mode: both), and
_rows refuses a non-real input to a real-mode rate call; elsewhere DiscreteInput.real_points does.
"""

import logging
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.special import ndtr

from .adc import ComplexAdcPair, is_symmetric_one_bit
from .errors import ValidationError
from .util import complex_from_json, json_fields, json_object, require_finite

logger = logging.getLogger(__name__)

# Cell probabilities this small are pure round-off of the tail difference;
# clamp to zero so downstream logs stay finite.
UNDERFLOW_FLOOR = 1e-300

RECEIVERS = ("legit", "eave")


@dataclass(frozen=True, slots=True)
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
        return json_fields(self)

    @classmethod
    def from_json(cls, obj, name="gain"):
        z = complex_from_json(obj, name)
        return cls(z.real, z.imag)


@dataclass(frozen=True, slots=True)
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

    def has_symmetric_one_bit(self, receiver):
        """Whether every quantizer the receiver reads in this mode is the sign quantizer."""
        return all(is_symmetric_one_bit(spec) for spec in _receiver_specs(self, (receiver,)))

    def to_json(self):
        return {"mode": self.mode, **json_fields(self, skip=("mode",))}

    @classmethod
    def from_json(cls, obj):
        json_object(obj, "channel", required=("mode", "w1", "w2", "legit_adc", "eave_adc"))
        return cls(
            w1=ComplexGain.from_json(obj["w1"], "w1"),
            w2=ComplexGain.from_json(obj["w2"], "w2"),
            legit_adc=ComplexAdcPair.from_json(obj["legit_adc"], "legit_adc"),
            eave_adc=ComplexAdcPair.from_json(obj["eave_adc"], "eave_adc"),
            mode=obj["mode"],
        )


def q_function(x):
    """Standard normal tail Q(x) = P(N > x), via the complementary error function."""
    x = require_finite("x", x)
    return float(ndtr(-x))


@dataclass(frozen=True, slots=True)
class _EdgeLayout:
    """What _cells and _rows read of ADCs side by side, derived from their specs alone."""

    edges: np.ndarray  # (-inf, thresholds, +inf) of each ADC in turn
    repeats: np.ndarray  # each ADC's edge count: how often its mean repeats
    kept: np.ndarray  # the cell columns left once the gaps (+inf, -inf) between ADCs go
    blocks: tuple  # (start, end) of each ADC's cells among the kept columns


def _edge_layout(specs):
    """The _EdgeLayout of the ADCs in specs side by side."""
    edges = np.array([e for spec in specs for e in (-np.inf, *spec.thresholds, np.inf)])
    ends = list(accumulate(spec.levels for spec in specs))
    return _EdgeLayout(
        edges=edges,
        repeats=np.array([spec.levels + 1 for spec in specs]),
        kept=np.flatnonzero(edges[:-1] != np.inf),
        blocks=tuple(zip([0, *ends], ends)),
    )


def _edge_offsets(layout, means):
    """edge - mean for each edge of the layout, the mean being its ADC's column of means."""
    m = np.repeat(np.asarray(means, dtype=float), layout.repeats, axis=1)
    return np.subtract(layout.edges, m, out=m)


def _cells(layout, means):
    """Probability of each cell for Gaussian(mean, 1) samples; stable in the tails.

    Row i holds the cells of every ADC of the layout side by side, those of the
    j-th for mean means[i, j].  With one tail per edge, t = ndtr(-|edge - mean|), cell
    (lo, hi) is t_lo - t_hi, overwritten where hi <= mean (never also lo >= mean)
    by t_hi - t_lo, formed afresh (a negation turns 0 into -0.0), and where
    lo < mean < hi by 1 - t_lo - t_hi: no difference cancels, no cell exceeds 1, and
    each reads a tail only where it is ndtr(mean - edge) or ndtr(edge - mean) bit for bit.
    """
    offsets = _edge_offsets(layout, means)
    t = np.copysign(offsets, -1.0)
    t, d = ndtr(t, out=t).ravel(), offsets.ravel()  # flat: row ends add a gap
    below = d <= 0.0
    straddle = np.flatnonzero((d[:-1] < 0.0) & ~below[1:])
    out = np.subtract(t[:-1], t[1:], out=d[:-1])  # the offsets are spent: d takes the cells
    np.subtract(t[1:], t[:-1], out=out, where=below[1:])
    out[straddle] = 1.0 - t[straddle] - t[straddle + 1]
    # drop the gap cells (+inf, -inf); take keeps the rows C-ordered
    out = np.take(d.reshape(offsets.shape), layout.kept, axis=1)
    if logger.isEnabledFor(logging.DEBUG):
        tiny = np.count_nonzero((out > 0.0) & (out < UNDERFLOW_FLOOR))
        if tiny:
            logger.debug("clamped %d cell probabilities below %g to 0", tiny, UNDERFLOW_FLOOR)
    np.copyto(out, 0.0, where=out < UNDERFLOW_FLOOR)
    return out


def _cell_slopes(channel, receiver, xs):
    """d/dx of each real-mode transition_rows entry: gain * (phi(lo - w x) - phi(hi - w x))."""
    w = channel.gain_for(receiver).re
    d = _edge_offsets(_edge_layout((channel.adc_for(receiver).real_part,)), np.outer(xs, w))
    pdf = np.exp(-0.5 * d**2)
    return w * (pdf[:, :-1] - pdf[:, 1:]) / math.sqrt(2.0 * math.pi)


def transition_row(channel, receiver, x):
    """Output distribution for a single input value x."""
    return transition_rows(channel, receiver, (x,))[0]


def transition_rows(channel, receiver, xs):
    """Output distributions for many inputs, one row per input.

    Real-mode rows have one entry per cell of the real quantizer.  Complex-mode
    rows are the outer product of the two component rows, flattened row-major:
    output (real cell) * k_I + (imag cell), where k_I is the imaginary
    quantizer's level count.
    """
    return _rows(channel, (receiver,), xs)[0]


def _receiver_specs(channel, receivers):
    """The ADCs _rows quantizes for the receivers: each real part, then (complex) imaginary part."""
    pairs = [channel.adc_for(receiver) for receiver in receivers]
    if channel.mode == "real":
        return [pair.real_part for pair in pairs]
    return [spec for pair in pairs for spec in (pair.real_part, pair.imag_part)]


def _rows(channel, receivers, xs, layout=None):
    """transition_rows of xs at each receiver, from one _cells call over all their ADCs.

    Each receiver's rows are a C-contiguous array of their own: the rate
    kernel's products over strided rows need not keep the same bits.  layout,
    when given, is _edge_layout(_receiver_specs(channel, receivers)).
    """
    xs = np.asarray(xs, dtype=complex)
    finite = np.isfinite(xs)
    if not finite.all():
        raise ValidationError(f"input must be finite, got {complex(xs[~finite][0])!r}")
    if layout is None:
        layout = _edge_layout(_receiver_specs(channel, receivers))
    gains = [channel.gain_for(receiver) for receiver in receivers]
    if channel.mode == "real":
        if xs.imag.any():
            x = complex(xs[xs.imag != 0.0][0])
            raise ValidationError(f"real-mode input must be real, got {x}")
        means = np.multiply.outer(xs.real, [w.re for w in gains])
    else:
        # a Python complex multiply per mean: numpy's complex product can differ in the last bit
        wx = np.array([w.value * x for x in xs.tolist() for w in gains], dtype=complex)
        means = wx.view(float).reshape(len(xs), 2 * len(gains))  # (re, im) of each receiver
    cells = _cells(layout, means)
    blocks = [cells[:, start:end] for start, end in layout.blocks]
    if channel.mode == "real":
        return [np.ascontiguousarray(block) for block in blocks]
    return [
        np.einsum("xr,xi->xri", re, im).reshape(len(xs), re.shape[1] * im.shape[1])
        for re, im in zip(blocks[::2], blocks[1::2])
    ]
