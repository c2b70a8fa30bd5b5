"""Answer checks of geobench: an exact point-in-polygon oracle over the
raw rows, and the rules that turn a reply into ``failed``.

The oracle shares no code with the engine (no covering, no cells), so
an error both engine paths share still shows.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from inputs import BATCH_ROWS, Op


def points_in_ring(xs: np.ndarray, ys: np.ndarray, ring: list) -> int:
    """Exact COUNT of the points inside the closed ``ring`` (even-odd
    rule, vectorised over the points that pass the bbox pre-filter)."""
    vx = np.asarray([v[0] for v in ring])
    vy = np.asarray([v[1] for v in ring])
    box = (xs >= vx.min()) & (xs <= vx.max()) & (ys >= vy.min()) & (ys <= vy.max())
    px, py = xs[box], ys[box]
    inside = np.zeros(len(px), dtype=bool)
    for x0, y0, x1, y1 in zip(vx[:-1], vy[:-1], vx[1:], vy[1:]):
        if y0 == y1:
            continue
        crosses = (y0 > py) != (y1 > py)
        inside ^= crosses & (px < x0 + (py - y0) * (x1 - x0) / (y1 - y0))
    return int(inside.sum())


def count_rel_error(engine: list[int], exact: list[int]) -> float:
    """Mean ``|engine COUNT - exact COUNT| / exact`` over the audit set
    (the covering is a superset, so this is the paper's cell-level
    approximation error)."""
    return float(np.mean([abs(e - x) / max(x, 1) for e, x in zip(engine, exact)]))


class Checker:
    """Counts attempted and failed operations of one caller (one per
    thread, so nothing is shared; :func:`totals` adds them up).

    ``failed`` = a non-``ok`` envelope or non-200 status (a timeout
    arrives as ``envelope is None``), a repeated payload whose ``data``
    differs from its first answer at the same ``version`` (see
    :func:`same_answer`), a non-monotone ``version`` seen by one caller, a whole-bounds count
    that is not the number of rows present at the stamped version, or
    an append that did not take all its rows.  Every append of the
    benchmark has ``BATCH_ROWS`` rows and versions start at 1, so
    version ``v`` holds ``base_rows + BATCH_ROWS * (v - 1)`` rows.
    """

    def __init__(self, base_rows: int) -> None:
        self.base_rows = base_rows
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.version = 1
        self._first: dict = {}

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1

    def check(self, op: Op, envelope: dict | None, status: int = 200) -> None:
        self.attempted += 1
        if envelope is None or status != 200 or envelope.get("ok") is not True:
            return self._fail("not_ok")
        version = envelope.get("version")
        if not isinstance(version, int) or version < self.version:
            return self._fail("version_not_monotone")
        self.version = version
        data = envelope["data"]
        if op.kind == "append":
            if data.get("appended") != BATCH_ROWS:
                self._fail("append_short")
            return None
        if op.kind == "bbox":
            if data["count"] != self.base_rows + BATCH_ROWS * (version - 1):
                self._fail("bounds_count")
            return None
        if op.key is not None:
            first = self._first.setdefault(op.key, (version, data))
            if first[0] != version:
                self._first[op.key] = (version, data)
            elif not same_answer(first[1], data):
                self._fail("answer_changed")
        return None


def same_answer(first: object, again: object) -> bool:
    """Whether two ``data`` blocks are the same answer: counts, names
    and shape exactly; float aggregates to 1e-9 relative, because a
    trained AggregateTrie folds the same cells in another grouping
    (the repo's own bit-identity gates exclude that case too); NaN (an
    empty region's min/max) equals NaN."""
    if isinstance(first, dict) and isinstance(again, dict):
        return first.keys() == again.keys() and all(
            same_answer(value, again[key]) for key, value in first.items()
        )
    if isinstance(first, list) and isinstance(again, list):
        return len(first) == len(again) and all(map(same_answer, first, again))
    if isinstance(first, float) and isinstance(again, float):
        return math.isclose(first, again, rel_tol=1e-9) or (first != first and again != again)
    return first == again


def totals(checkers: list[Checker]) -> tuple[int, int, dict]:
    """``(attempted, failed, reasons)`` over every caller of a run."""
    reasons: Counter = Counter()
    for checker in checkers:
        reasons.update(checker.reasons)
    return (
        sum(c.attempted for c in checkers),
        sum(c.failed for c in checkers),
        dict(reasons),
    )
