"""Pausing the cyclic garbage collector around allocation-heavy runs."""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off, then restore the caller's
    state: on again only if it was on.

    For runs that allocate millions of objects and build no reference
    cycles, whose collector passes would find nothing. Whatever the body
    still holds when it ends is alive when the collector comes back, and the
    first allocation after that may start a pass over it, so a body should
    drop what it no longer needs before it returns."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
