"""Small shared helpers: number, integer and power-budget checks, JSON coding."""

import math
import numbers
from dataclasses import fields

import numpy as np

from .errors import ValidationError

# read as 0 or 1, or as the real part, if let through (numpy's complex64 is no complex)
_NOT_REAL = (bool, complex, np.complexfloating)


def require_finite(name, value):
    """value as a float; a non-number is refused, and so are bools and complex numbers."""
    if type(value) is not float and isinstance(value, _NOT_REAL):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except TypeError:  # a string, None or another non-number
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if not finite:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_integer(name, value):
    """value as an int: bools and numbers with a fractional part are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_budget(power_budget):
    j = require_finite("power_budget", power_budget)
    if j <= 0.0:
        raise ValidationError(f"power budget must be positive, got {j!r}")
    return j


def complex_to_json(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def json_fields(obj, skip=()):
    """obj's dataclass fields less skip, in field order: complex as {re, im}, objects by to_json."""
    out = {}
    for field in fields(obj):
        if field.name not in skip:
            value = getattr(obj, field.name)
            if isinstance(value, complex):
                value = complex_to_json(value)
            elif hasattr(value, "to_json"):
                value = value.to_json()
            out[field.name] = value
    return out


def complex_from_json(obj, name="value"):
    """Accepts {"re":..,"im":..} (im defaults to 0) or a bare number; other keys are refused."""
    if isinstance(obj, dict):
        unknown = sorted(set(obj) - {"re", "im"})
        if unknown:
            raise ValidationError(f"{name} accepts only keys 're' and 'im', got {unknown}")
        re, im = (require_finite(f"{name} {k}", obj.get(k, 0.0)) for k in ("re", "im"))
        return complex(re, im)
    return complex(require_finite(name, obj), 0.0)
