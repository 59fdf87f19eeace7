"""Small shared helpers: number, integer and power-budget checks, JSON coding."""

import math
import numbers
from dataclasses import fields

from .errors import ValidationError


def require_finite(name, value):
    """value as a float; a non-number is refused, and so is a bool rather than read as 0 or 1."""
    if type(value) is bool:
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except TypeError:  # a string, None or another non-number
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if not finite:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_number(name, value):
    """A finite config number as a float; strings, nulls and bools are refused."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return require_finite(name, value)


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
        re, im = (require_number(f"{name} {k}", obj.get(k, 0.0)) for k in ("re", "im"))
        return complex(re, im)
    return complex(require_number(name, obj), 0.0)
