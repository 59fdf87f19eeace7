"""Scalar finite-resolution quantizers and their output alphabets.

An ADC is a list of strictly increasing thresholds (q_1, ..., q_{k-1}) with
implicit q_0 = -inf and q_k = +inf, plus k distinct output labels.  Cells are
half-open [q_{l-1}, q_l), so a sample exactly on a threshold lands in the
upper cell.  Labels are opaque for rate computations; only cell membership
matters.
"""

import math
from dataclasses import dataclass

from .errors import ValidationError
from .util import json_array, json_fields, json_object, require_finite

# Joint transition rows have k_R * k_I entries; 4096 per component keeps them
# desk-sized.
MAX_LEVELS = 4096


@dataclass(frozen=True, slots=True)
class AdcSpec:
    """One scalar quantizer: thresholds plus per-cell output labels."""

    thresholds: tuple
    outputs: tuple

    def __post_init__(self):
        thresholds = tuple(float(t) for t in self.thresholds)
        outputs = tuple(float(y) for y in self.outputs)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "outputs", outputs)
        if len(outputs) != len(thresholds) + 1:
            raise ValidationError(
                f"need one output per cell: {len(thresholds)} thresholds require "
                f"{len(thresholds) + 1} outputs, got {len(outputs)}"
            )
        if len(outputs) < 2:
            raise ValidationError("a quantizer needs at least 2 levels")
        if len(outputs) > MAX_LEVELS:
            raise ValidationError(f"at most {MAX_LEVELS} levels per component supported")
        for t in thresholds:
            if not math.isfinite(t):
                raise ValidationError(f"thresholds must be finite, got {t!r}")
        if any(lo >= hi for lo, hi in zip(thresholds, thresholds[1:])):
            raise ValidationError(f"thresholds must be strictly increasing: {thresholds}")
        if len(set(outputs)) != len(outputs):
            raise ValidationError(f"outputs must be pairwise distinct: {outputs}")

    @property
    def levels(self):
        return len(self.outputs)

    def to_json(self):
        return json_fields(self)

    @classmethod
    def from_json(cls, obj, name="ADC spec"):
        keys = ("thresholds", "outputs")
        json_object(obj, name, required=keys)
        return cls(*(tuple(require_finite(f"{name} {key}", v)
                           for v in json_array(obj[key], f"{name} {key}")) for key in keys))


@dataclass(frozen=True, slots=True)
class ComplexAdcPair:
    """Independent quantizers for the real and imaginary signal components."""

    real_part: AdcSpec
    imag_part: AdcSpec

    @property
    def joint_levels(self):
        return self.real_part.levels * self.imag_part.levels

    def to_json(self):
        return json_fields(self, rename={"real_part": "real", "imag_part": "imag"})

    @classmethod
    def from_json(cls, obj, name="ADC pair"):
        if isinstance(obj, dict) and "thresholds" in obj:
            # convenience: a bare scalar spec is applied to both components
            spec = AdcSpec.from_json(obj, name)
            return cls(spec, spec)
        json_object(obj, name, required=("real", "imag"))
        return cls(AdcSpec.from_json(obj["real"], f"{name} real"),
                   AdcSpec.from_json(obj["imag"], f"{name} imag"))


def one_bit():
    """The 2-level sign quantizer: threshold 0, outputs (-1, 1)."""
    return AdcSpec((0.0,), (-1.0, 1.0))


def one_bit_pair():
    return ComplexAdcPair(one_bit(), one_bit())


def shift_thresholds(spec, delta):
    """Decrease every threshold by delta, keeping the labels.

    A sample x - delta lands in the same cell of the shifted spec as x does
    in spec, so moving the thresholds and a Gaussian mean down by delta
    together leaves every cell probability unchanged.
    """
    delta = require_finite("delta", delta)
    return AdcSpec(tuple(t - delta for t in spec.thresholds), spec.outputs)


def is_symmetric_one_bit(spec):
    return spec.levels == 2 and spec.thresholds == (0.0,)
