"""The number and type rules of every public entry point, stated once.

A real argument is anything float() takes but a bool or a complex number,
an integer one anything operator.index() takes but a bool, and an object
one an instance of its class. An array argument holds ints or floats
(real_array), or ints, floats or complex numbers (complex_array). Each
refusal names the argument; a checker given a rule, its own message,
raises ValueError(rule) for every refusal.
"""
import math
import operator

import numpy as np


def _refuse(error: type, message: str, rule: str | None):
    raise (error(message) if rule is None else ValueError(rule)) from None


def real(value, name: str, rule: str | None = None) -> float:
    """value as a finite float; TypeError for another type, ValueError for a
    bool, a string float() cannot read, or a value not finite as a float."""
    number = value
    if type(value) is not float:
        if isinstance(value, (bool, np.bool_)):
            _refuse(ValueError, f"{name} must be a number, not a bool, got {value!r}", rule)
        try:
            if isinstance(value, (complex, np.complexfloating)):
                raise TypeError
            number = float(value)
        except OverflowError:
            _refuse(ValueError, f"{name} is too large for a float, got {value!r}", rule)
        except (TypeError, ValueError) as exc:
            _refuse(type(exc), f"{name} must be a real number, got {value!r}", rule)
    if not math.isfinite(number):
        _refuse(ValueError, f"{name} must be finite, got {value!r}", rule)
    return number


def integer(value, name: str, rule: str | None = None) -> int:
    """value as an int; TypeError for a bool or any other type."""
    if isinstance(value, (bool, np.bool_)):
        _refuse(TypeError, f"{name} must be an int, not a bool, got {value!r}", rule)
    try:
        return operator.index(value)
    except TypeError:
        _refuse(TypeError, f"{name} must be an int, got {value!r}", rule)


def instance(value, cls: type, name: str):
    """value itself if it is a cls; TypeError otherwise."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def real_array(value, name: str) -> np.ndarray:
    """value as an array of ints or floats; TypeError for any other dtype."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr


def complex_array(value, name: str) -> np.ndarray:
    """value as an array of ints, floats or complex numbers; TypeError for
    any other dtype: bool, string and object arrays among them."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iufc":
        raise TypeError(f"{name} must hold real or complex numbers, got dtype {arr.dtype}")
    return arr
