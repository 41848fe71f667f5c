"""Host-speed probes: fixed pure-Python work, timed next to every measured process.

The speed of a shared host drifts by tens of percent within minutes and moves
every timing with it.  Work of different kinds drifts by different amounts:
on a 2-core 2.1 GHz Xeon VM the log-time of bigint<->decimal conversion
moved only 0.3 times as far as that of an interpreted loop.  So each workload
is scaled by the probe of the kind of work that dominates it.

Times are reported in reference seconds, raw seconds x REFERENCE_S / probe
seconds: what they would be on a host where the probe takes REFERENCE_S,
about its time on that VM when unloaded.
"""

from __future__ import annotations

import sys
import time

REFERENCE_S = 0.1


def _interpreter() -> None:
    """An interpreted loop of bigint arithmetic and tuple-keyed dict stores, as in series and enumeration."""
    x = 3**400
    acc = 0
    table = {}
    for i in range(40000):
        acc = (acc + x * i) % 1000000007
        table[(i & 1023, i >> 10)] = acc


def _decimal() -> None:
    """int->str->int of a 25,000-digit integer, as jsonio does for long sequences."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        int(str(7**30000))
    finally:
        sys.set_int_max_str_digits(limit)


# kind -> (work, repetitions that take about REFERENCE_S on that VM)
PROBES = {
    "interpreter": (_interpreter, 4),
    "decimal": (_decimal, 6),
}


def measure(kinds: set[str]) -> dict[str, float]:
    """Seconds each probe of `kinds` takes now."""
    out = {}
    for kind in sorted(kinds):
        work, repetitions = PROBES[kind]
        start = time.perf_counter()
        for _ in range(repetitions):
            work()
        out[kind] = time.perf_counter() - start
    return out
