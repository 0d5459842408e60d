"""Exception types shared across the package, and the rules for the numbers a caller hands in."""

import dataclasses

import numpy as np


class UfolabError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(UfolabError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(UfolabError, ValueError):
    """An API contract was violated (bad argument, non-scalar loss, ...)."""


def is_number(value, kind: type = float) -> bool:
    """Whether `value` may fill a field declared `kind`: an int field holds an
    int, a float field an int or a float, and a bool is never a number."""
    return isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)


def is_intensity(value) -> bool:
    """Whether `value` is an adapter intensity: a number (see `is_number`) in [0, 1]."""
    return is_number(value) and 0.0 <= value <= 1.0


def is_index(value, end=np.inf) -> bool:
    """Whether `value` is an integer in [0, end): a Python or NumPy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 <= value < end


def check_ids(ids, name: str, low: int = 0, end=np.inf, shape=None) -> np.ndarray:
    """`ids` as an array, or ContractError naming `name` unless it is an integer
    array (a bool array is none) of `shape`, when given, with entries in [low, end)."""
    ids = np.asarray(ids)
    if (not np.issubdtype(ids.dtype, np.integer) or shape is not None and ids.shape != shape
            or ids.size and (ids.min() < low or ids.max() >= end)):
        bound = f">= {low}" if end == np.inf else f"in [{low}, {end - 1}]"
        shaped = "" if shape is None else f" of shape {shape}"
        raise ContractError(f"{name} must be integers {bound}{shaped}, got {ids!r}")
    return ids


def check_field_types(record) -> None:
    """Raise ContractError naming the first field of dataclass `record` whose
    value breaks its annotation: an int or float field fails `is_number`, or
    a dict field (provenance saved as a JSON object) holds no dict."""
    for f in dataclasses.fields(record):
        declared = getattr(f.type, "__name__", f.type)
        value = getattr(record, f.name)
        if declared == "dict" and not isinstance(value, dict):
            raise ContractError(f"{f.name} must be a JSON object, got {value!r}")
        kind = {"int": int, "float": float}.get(declared)
        if kind is not None and not is_number(value, kind):
            raise ContractError(f"{f.name} must be {'an integer' if kind is int else 'a number'}, "
                                f"got {value!r}")


class FormatError(UfolabError, ValueError):
    """A serialized file is malformed.

    Parameters
    ----------
    message : str
        Human-readable description of the problem.
    offset : int or None
        Byte offset at which the problem was detected, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class FingerprintError(UfolabError, ValueError):
    """Adapter and model disagree on the set of adaptable layers."""


class NumericError(UfolabError, ArithmeticError):
    """A computation produced non-finite values (training loss went NaN, ...)."""


class ConfigError(UfolabError, ValueError):
    """A run configuration file is missing, malformed, or out of range."""
