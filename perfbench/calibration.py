"""A fixed round of pure-Python work that measures how fast the host runs
Python code at this moment.

On a host whose cores are shared with other machines, the speed of one core
switches between states some 35% apart every few seconds, so the wall time
of the same pass moves by as much from one minute to the next. The runner
times one round of this work just before and just after each pass and reports
the pass's time as a multiple of their mean: both slow down together, so the
ratio stays put while the seconds do not.

The work is box-overlap tests on frozen dataclasses, list appends and a
sort, the kind of work cocostream's matching does, and it never changes:
changing it changes every ratio the benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class _Box:
    left: float
    top: float
    right: float
    bottom: float


def _round() -> int:
    boxes = [
        _Box(i % 17, i % 13, i % 17 + 5 + i % 3, i % 13 + 4) for i in range(300)
    ]
    overlaps = []
    for a in boxes[:20]:
        for b in boxes:
            iw = min(a.right, b.right) - max(a.left, b.left)
            ih = min(a.bottom, b.bottom) - max(a.top, b.top)
            if iw > 0 and ih > 0:
                overlaps.append((iw * ih, a, b))
    overlaps.sort(key=lambda o: o[0])
    return len(overlaps)


def calibrate() -> float:
    """Seconds one round of the fixed work takes now."""
    t0 = perf_counter()
    _round()
    return perf_counter() - t0
