"""Small shared helpers: finiteness and power-budget checks, complex-number JSON coding."""

import math

from .errors import ValidationError


def require_finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_budget(power_budget):
    j = require_finite("power_budget", power_budget)
    if j <= 0.0:
        raise ValidationError(f"power budget must be positive, got {j!r}")
    return j


def complex_to_json(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj, name="value"):
    """Accepts {"re":..,"im":..} or a bare number."""
    if isinstance(obj, dict):
        try:
            z = complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{name}: bad complex encoding {obj!r}") from exc
    elif isinstance(obj, (int, float)):
        z = complex(float(obj), 0.0)
    else:
        raise ValidationError(f"{name}: expected number or re/im object, got {obj!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{name} must be finite, got {z!r}")
    return z
