"""Synchronisation primitives for the serving layer.

The stdlib has locks and conditions but no readers-writer lock, and the
serving tier needs exactly one: queries may run concurrently with each
other (the planner/result caches are already internally
synchronised), but :meth:`Dataset.append` mutates
aggregate arrays in place -- the paper's single-writer, no-concurrent-
reader model -- so a write must exclude every read and vice versa.

:class:`RWLock` is the classic condition-variable implementation with
writer preference: once a writer is waiting, new readers queue behind
it, so a steady query stream cannot starve the write path.  Read
sections must therefore never nest (a reader re-acquiring while a
writer waits would deadlock); the API layer keeps all lock acquisition
at its outermost public entry points to honour that.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager

#: The installed lock observer (``repro.analysis.runtime``), or None.
#: Every acquire/release funnels through it when set, so the runtime
#: lock-order detector sees per-thread held-lock stacks without the
#: production class carrying any instrumentation state.  The module
#: global keeps the disabled-path cost to one load-and-compare.
_observer = None


def set_observer(observer) -> None:  # noqa: ANN001 - duck-typed hook
    """Install (or clear, with ``None``) the process-wide lock observer.

    The observer receives ``before_acquire(lock, mode)`` -- which may
    raise to veto an acquisition that would deadlock -- plus
    ``acquired(lock, mode)`` and ``released(lock, mode)``, with ``mode``
    one of ``"read"``/``"write"``.  Used by
    :func:`repro.analysis.runtime.install`; production code never calls
    this.
    """
    global _observer
    _observer = observer


class RWLock:
    """A readers-writer lock with writer preference.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Waiting writers block *new* readers, so writes cannot be
    starved by a continuous read stream.  Not re-entrant in either
    direction -- callers must keep read and write sections flat.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        observer = _observer
        if observer is not None:
            observer.before_acquire(self, "read")
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        if observer is not None:
            observer.acquired(self, "read")

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        observer = _observer
        if observer is not None:
            observer.released(self, "read")

    def acquire_write(self) -> None:
        observer = _observer
        if observer is not None:
            observer.before_acquire(self, "write")
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        if observer is not None:
            observer.acquired(self, "write")

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()
        observer = _observer
        if observer is not None:
            observer.released(self, "write")

    @contextmanager
    def read(self) -> Iterator[None]:
        """``with lock.read():`` -- a shared (reader) section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        """``with lock.write():`` -- an exclusive (writer) section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._cond:
            return (
                f"RWLock(readers={self._readers}, writer={self._writer}, "
                f"waiting={self._writers_waiting})"
            )
