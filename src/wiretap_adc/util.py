"""Small shared helpers: number, integer and power-budget checks, complex-number JSON coding."""

import math
import numbers

from .errors import ValidationError


def require_finite(name, value):
    """value as a float; a bool is refused rather than read as 0.0 or 1.0."""
    if type(value) is bool:
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
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


def complex_from_json(obj, name="value"):
    """Accepts {"re":..,"im":..} (im defaults to 0) or a bare number; other keys are refused."""
    if isinstance(obj, dict):
        unknown = sorted(set(obj) - {"re", "im"})
        if unknown:
            raise ValidationError(f"{name} accepts only keys 're' and 'im', got {unknown}")
        re, im = (require_number(f"{name} {k}", obj.get(k, 0.0)) for k in ("re", "im"))
        return complex(re, im)
    return complex(require_number(name, obj), 0.0)
