"""Argument rules shared by the package.

Each rule returns its value unchanged when it holds and otherwise raises
``ValueError`` naming the argument.  Ranges other than a lower bound, or
the cap on counts, stay with the caller.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from contextlib import suppress


def number(name: str, v):
    """``v`` if it is a finite real number, not a bool.

    An integer too large for a float counts as infinite, and nothing overflows a narrow float.
    """
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a number, got {v!r}")
    with suppress(OverflowError):  # an integer too large for a float
        if math.isfinite(v):
            return v
    raise ValueError(f"{name} must be finite, got {v!r}")


# The most chips, messages or cycles one run takes.  A larger count is named
# here rather than by numpy's "Maximum allowed dimension exceeded".
MAX_COUNT = 2**31 - 1


def integer(name: str, v, low: int):
    """``v`` if it is an integer, not a bool, of at least ``low``."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
        what = "a non-negative integer" if low == 0 else f"an integer of at least {low}"
        raise ValueError(f"{name} must be {what}, got {v!r}")
    return v


def count(name: str, v, low: int):
    """``v`` if it is an integer, not a bool, from ``low`` to :data:`MAX_COUNT`."""
    if integer(name, v, low) > MAX_COUNT:
        raise ValueError(f"{name} must be at most {MAX_COUNT}, got {v!r}")
    return v


def one_of(what: str, v, choices):
    """``v`` if it is one of ``choices``."""
    if v not in choices:
        raise ValueError(f"unknown {what} {v!r}; expected one of {', '.join(choices)}")
    return v


def exact_keys(what: str, mapping, names, noun: str):
    """``mapping`` if it is a mapping keyed by exactly ``names``.

    Otherwise the error names the first unknown key (by ``str``) or, with
    none unknown, the first missing one in ``names`` order.
    """
    if not isinstance(mapping, Mapping):
        raise ValueError(f"{what} must map each {noun} to a value, got {mapping!r}")
    odd = sorted(set(mapping) - set(names), key=str) or [n for n in names if n not in mapping]
    if odd:
        raise ValueError(f"{what} must name exactly {', '.join(names)}; "
                         f"{'missing' if odd[0] in names else 'unknown'} {noun} {odd[0]!r}")
    return mapping
