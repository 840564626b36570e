"""Hyperparameter domains, each defined once.

A trainer declares the domain of each keyword-only argument in its own
signature, as in `rounds: Count = 200`. `check_params` reads those
declarations back, so `ModelSpec` and a direct call through `checked` hold
a value to the same contract. Model files hold their other scalars
(`converged` flags) to the same domains.
"""
from __future__ import annotations

import functools
import inspect
import sys
from typing import Annotated, Callable, NamedTuple, Optional

from .core import training_rows


class Domain(NamedTuple):
    """The values an argument may take."""

    what: str  # completes "<argument> must be ..."
    contains: Callable[[object], bool]

    def check(self, name: str, value):
        if not self.contains(value):
            raise ValueError(f"{name} must be {self.what}, got {value!r}")
        return value

    def or_none(self) -> Domain:
        return Domain(f"None or {self.what}", lambda v: v is None or self.contains(v))


def _real(v) -> bool:
    """An int or float, not a bool, whose float value is finite."""
    return isinstance(v, (int, float)) and type(v) is not bool and abs(v) <= sys.float_info.max


COUNT = Domain("an integer >= 1", lambda v: type(v) is int and v >= 1)
FLAG = Domain("a bool", lambda v: isinstance(v, bool))
NATURAL = Domain("an integer >= 0", lambda v: type(v) is int and v >= 0)
NON_NEGATIVE = Domain("a finite real >= 0", lambda v: _real(v) and v >= 0)
POSITIVE = Domain("a finite real > 0", lambda v: _real(v) and v > 0)
RATE = Domain("a real in [0, 1)", lambda v: _real(v) and 0 <= v < 1)
REAL = Domain("a finite real", _real)
SEED = NATURAL
Count = Annotated[int, COUNT]
CountOrNone = Annotated[Optional[int], COUNT.or_none()]
Flag = Annotated[bool, FLAG]
NonNegative = Annotated[float, NON_NEGATIVE]
Positive = Annotated[float, POSITIVE]
PositiveOrNone = Annotated[Optional[float], POSITIVE.or_none()]
Rate = Annotated[float, RATE]
Real = Annotated[float, REAL]
Seed = Annotated[int, SEED]


def check_params(owner: str, fit, params: dict) -> None:
    """ValueError naming `owner` and the argument for the first value in
    `params` outside the domain that `fit` declares for it."""
    for p in inspect.signature(fit, eval_str=True).parameters.values():
        if p.kind is p.KEYWORD_ONLY and p.name in params:
            p.annotation.__metadata__[0].check(f"{owner} {p.name}", params[p.name])


def checked(fit):
    """`fit`, with `check_params` run on its keyword arguments first, then
    its `X` and `y` checked and cast by `core.training_rows`."""
    signature = inspect.signature(fit)

    @functools.wraps(fit)
    def checked_fit(*args, **kwargs):
        check_params(fit.__name__, fit, kwargs)
        arguments = signature.bind(*args, **kwargs).arguments
        arguments["X"], arguments["y"] = training_rows(fit.__name__, arguments["X"], arguments["y"])
        return fit(**arguments)

    return checked_fit
