"""Exception types shared across the package, and the checks of the numbers a fit
reads: ``check_number`` for one number, ``check_array`` for an array and
``check_positive`` for a variance or a scale. Each raises a ``ParameterError``
naming the field; ``check_number`` and ``check_positive`` refuse NaN and +-inf."""

import math
import numbers

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


def check_number(name: str, value, kind=float):
    """``value`` as the number type ``kind``: int, float, or either of them or
    None. A value of any other type, a bool among them, is a ``ParameterError``;
    so is a float that is NaN or +-inf, or an int beyond the float range."""
    if value is None and kind in (int | None, float | None):
        return None
    integral = kind in (int, int | None)
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real):
        raise ParameterError(f"{name} must be "
                             f"{'an integer' if integral else 'a real number'}, got {value!r}")
    if integral:
        return int(value)
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    return number


def check_array(name: str, value) -> np.ndarray:
    """``value`` as a float array. A value numpy cannot read as one, such as a
    ragged list or a list holding a string, is a ``ParameterError``; so is one
    holding a bool, at any depth or as a bool array."""
    try:
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
            raise TypeError("true and false are not numbers")
        return np.asarray(value, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ParameterError(f"{name} must be an array of numbers: {exc}") from exc


def check_positive(name: str, value, shape=()) -> np.ndarray:
    """``value``, one number or an array of ``shape``, as a float array of ``shape``
    once every entry is finite and above 0; anything else is a ``ParameterError``."""
    array = check_array(name, value)
    if array.ndim and array.shape != shape:
        raise ParameterError(f"{name} must be one number or of shape {shape}, "
                             f"got shape {array.shape}")
    bad = array[~(np.isfinite(array) & (array > 0))]
    if bad.size:
        raise ParameterError(f"{name} must be positive and finite, got {bad[0].item()!r}")
    return np.broadcast_to(array, shape).copy()


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. no positive edges)."""


class IdentifiabilityError(ValueError):
    """The intervention family leaves some node's variance unpinned."""


class RankError(ValueError):
    """A matrix is numerically rank-deficient where full rank is required."""


class SamplingFailureError(RuntimeError):
    """Projection-vector sampling ended with a design matrix short of rank p."""


class EStepError(RuntimeError):
    """Too many observations were skipped while building the particle cache."""
