"""Small shared helpers: number, integer and power-budget checks, JSON coding.

json_fields is the one JSON encoder: every to_json is a call to it.  Every
from_json and the CLI check config objects and arrays with json_object and json_array.
"""

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


def _json_value(value):
    """complex as {re, im}, tuples as lists of their items' values, objects by to_json."""
    if isinstance(value, complex):
        return complex_to_json(value)
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value.to_json() if hasattr(value, "to_json") else value


def json_fields(obj, skip=(), rename=None):
    """obj's dataclass fields less skip, in field order, keyed by rename's name for each if any."""
    rename = rename or {}
    return {rename.get(field.name, field.name): _json_value(getattr(obj, field.name))
            for field in fields(obj) if field.name not in skip}


def json_object(obj, what, required=(), optional=()):
    """obj if it is a JSON object holding every key of required and none outside both."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {obj!r}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValidationError(f"{what} is missing keys {missing}")
    allowed = [*required, *optional]
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ValidationError(f"{what} accepts only keys {allowed}, got {unknown}")
    return obj


def json_array(value, what):
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON array, got {value!r}")
    return value


def complex_from_json(obj, name="value"):
    """Accepts {"re":..,"im":..} (im defaults to 0) or a bare number."""
    if isinstance(obj, dict):
        json_object(obj, name, optional=("re", "im"))
        return complex(*(require_finite(f"{name} {k}", obj.get(k, 0.0)) for k in ("re", "im")))
    return complex(require_finite(name, obj), 0.0)
