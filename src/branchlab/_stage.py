"""The one way to build a report stage."""

from __future__ import annotations

import time
from contextlib import contextmanager


@contextmanager
def stage(name, stages=None):
    """Yield a stage dict for the body to fill; time the whole body.

    When the body finishes the dict gets its `timing_s` and, if `stages` is
    given, is appended to it.  A body that raises leaves no stage behind.
    """
    started = time.perf_counter()
    entry = {"name": name}
    yield entry
    entry["timing_s"] = time.perf_counter() - started
    if stages is not None:
        stages.append(entry)
