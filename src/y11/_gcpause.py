"""The one place the package pauses Python's cyclic garbage collector.

Building tens of thousands of small acyclic containers (parsed JSON, records,
matcher lists) sets off collections that walk them and free nothing.
"""
from __future__ import annotations

import functools
import gc


def gc_paused(fn):
    """`fn` run with the cyclic collector off. A `finally` turns it back on,
    and only if it was on when the call began, so a nested call or a caller
    that disabled it first keeps its state. The collector is process-wide:
    no other thread should toggle it during such a call."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused
