"""Reference-speed timing for a machine whose speed drifts.

On a shared machine the CPU time of one fixed operation drifts by a factor
of two from one ten-second window to the next, and a fixed pure-Python loop
drifts with it: the clock rate and the sibling load change, not the work.
So the worker times this loop before every operation, and an operation's
CPU time is reported at the reference speed, at which the loop takes
NOMINAL_S:

    scaled = cpu * NOMINAL_S / median(loop times of the nearest operations)

Measured on one fixed ``limit`` call over two minutes, the medians of
ten-second windows spread 24-48 ms in CPU time and 17.9-20.6 scaled.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 20000
NOMINAL_S = 0.002
NEIGHBOURS = 10  # loop samples each side that set an operation's local speed


def loop_seconds():
    """CPU time of the fixed loop, now."""
    started = time.thread_time()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - started


def at_reference(cpu_seconds, loop_samples):
    """A CPU time at the reference speed, given loop samples taken around it."""
    return cpu_seconds * NOMINAL_S / statistics.median(loop_samples)


def scale(cpu_seconds, loop_samples):
    """Each CPU time at the reference speed; loop_samples[i] preceded op i."""
    return [
        at_reference(seconds, loop_samples[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1])
        for i, seconds in enumerate(cpu_seconds)
    ]
