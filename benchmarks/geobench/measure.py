"""Sample statistics of geobench: nearest-rank percentiles, per-window
summaries, and the quiet-quartile rule.

A timed phase is cut into ``WINDOWS`` equal windows and every timing
metric is computed per window.  The reported value is the window at the
quiet quartile (of 10 windows best first, the third): the shared box
this runs on slows down for seconds at a time and, after a pause, runs
fast for a second or two, so neither the whole phase nor its single
best window repeats; a window a quarter of the way in from the best
ignores both.  Median and quartiles across windows are reported beside
it.
"""

from __future__ import annotations

import math
import statistics

WINDOWS = 10


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float | None:
    """The highest percentile that still has >= 10 samples beyond it."""
    return None if count < 20 else 1.0 - 10.0 / count


def spread(values: list[float]) -> dict:
    """Median and quartiles of per-window values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def quiet(values: list[float], better: str = "lower") -> dict:
    """The reported figure of one metric: the value of the window at
    the quiet quartile, with the across-window spread and the
    per-window values."""
    if not values:
        raise ValueError("no window holds a sample of this metric")
    best_first = sorted(values, reverse=better == "higher")
    return {"value": best_first[len(values) // 4], "windows": values, **spread(values)}


def window_of(moment: float, begin: float, seconds: float) -> int:
    return min(WINDOWS - 1, max(0, int((moment - begin) / seconds * WINDOWS)))


def latency_windows(samples: list[tuple], begin: float, seconds: float) -> list[list[float]]:
    """Latencies in ms of ``(kind, start, end, ...)`` samples, grouped
    by the window the operation ended in, each ascending."""
    windows: list[list[float]] = [[] for _ in range(WINDOWS)]
    for sample in samples:
        windows[window_of(sample[2], begin, seconds)].append((sample[2] - sample[1]) * 1e3)
    for window in windows:
        window.sort()
    return windows


def rate_windows(ends: list[float], begin: float, seconds: float) -> list[float]:
    """Completions per second in each window, taken between its first
    and its last completion so the figure is not quantised to whole
    operations per window."""
    windows: list[list[float]] = [[] for _ in range(WINDOWS)]
    for end in ends:
        windows[window_of(end, begin, seconds)].append(end)
    return [
        (len(window) - 1) / (max(window) - min(window)) for window in windows if len(window) > 1
    ]


def per_window(windows: list[list[float]], fraction: float) -> list[float]:
    return [percentile(window, fraction) for window in windows if window]


def p50(values: list[float]) -> float:
    return percentile(sorted(values), 0.5) if values else 0.0
