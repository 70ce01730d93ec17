"""One work meter per exact call.

Every public exact entry point is wrapped in :func:`metered`. The outermost
one opens a meter of `WORK_BUDGET` units, read at call time; the exact calls
it makes spend from the same meter. Each thread has one meter, a list kept
in a ContextVar and reopened in place, since binding a new one per call
costs exhaustive-n6 ~6%. Searches charge their work with :func:`spend`, each
kind of step weighted by its measured cost so that a unit takes about 100 ns
(2-core machine, Python 3.11.7); :func:`left` reads what the open meter
still holds. BudgetExceededError is raised only here.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar

from .errors import BudgetExceededError

WORK_BUDGET = 50_000_000  # units per exact call: about 5 s

_meter: ContextVar[list] = ContextVar("meter")  # [spent, limit, open], set once per thread


def metered(fn):
    """Run fn under the open meter, or under a new one when none is open."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        meter = _meter.get(None)
        if meter is None:
            meter = [0, 0, False]
            _meter.set(meter)
        if meter[2]:
            return fn(*args, **kwargs)
        meter[:] = 0, WORK_BUDGET, True
        try:
            return fn(*args, **kwargs)
        finally:
            meter[2] = False

    return call


def spend(what: str, units: int) -> None:
    """Charge `units` of `what` to the open meter, if any; past its limit, raise."""
    meter = _meter.get(None)
    if meter is not None and meter[2]:
        meter[0] += units
        if meter[0] > meter[1]:
            raise BudgetExceededError(what, meter[0], meter[1])


def left() -> float:
    """Units the open meter has left; infinity when none is open."""
    meter = _meter.get(None)
    if meter is None or not meter[2]:
        return math.inf
    return meter[1] - meter[0]


def check_bytes(what: str, needed: int, cap: int) -> None:
    """Refuse a computation that would allocate more than `cap` bytes."""
    if needed > cap:
        raise BudgetExceededError(what, needed, cap, "bytes")
