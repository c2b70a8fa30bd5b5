"""The per-dataset materialized-view store: view map and refresh.

One :class:`MaterializedStore` lives on every :class:`Dataset` (each
filtered view holds its own -- the MV key's predicate component is
implicit in which store it lives in).  A view enters only through an
explicit ``materialize`` (or the sidecar restoring one) and leaves only
through ``drop_view`` / explicit invalidation: there is no admission
policy and no bound, so the write path refreshes exactly the views
somebody asked for.  The store owns two things:

* the **view map**, keyed by MV key and by name;
* the **refresh walk** the write path drives: on append the dataset
  calls :meth:`refresh_all` inside its exclusive section with the
  appended rows' leaf ids, and every view delta-applies
  (:meth:`MaterializedView.refresh`).

Thread model: lookups run under the dataset's shared read lock,
concurrently; the store serialises its own map and counter mutations
with an internal lock.  ``refresh_all`` runs only inside the dataset
write section, which excludes all readers.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.materialize.view import MaterializedView, MVKey


class MaterializedStore:
    """View map + telemetry for one dataset."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._views: dict[MVKey, MaterializedView] = {}
        self._by_name: dict[str, MaterializedView] = {}
        self._auto_names = 0
        # -- telemetry (service stats' ``mv`` block) --
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.drops = 0
        self.disk_bytes = 0
        self.incremental_refreshes = 0
        self.full_refreshes = 0
        self.delta_rows = 0

    def __len__(self) -> int:
        return len(self._views)

    # -- read path -------------------------------------------------------

    def lookup(self, key: MVKey | None) -> MaterializedView | None:
        """The view serving ``key``, or None."""
        if key is None:
            return None
        with self._lock:
            view = self._views.get(key)
            if view is None:
                self.misses += 1
                return None
            view.hits += 1
            self.hits += 1
            return view

    # -- admission / removal ---------------------------------------------

    def auto_name(self) -> str:
        with self._lock:
            self._auto_names += 1
            return f"mv-{self._auto_names}"

    def admit(self, view: MaterializedView) -> MaterializedView:
        """Install ``view``; raises KeyError on a duplicate key or name
        (the API layer maps it to the ``duplicate_view`` error code)."""
        with self._lock:
            if view.key in self._views:
                raise KeyError("a materialized view already serves this query")
            if view.name in self._by_name:
                raise KeyError(f"materialized view {view.name!r} already exists")
            self._views[view.key] = view
            self._by_name[view.name] = view
            self.admissions += 1
            return view

    def drop(self, name: str) -> MaterializedView | None:
        """Remove the view named ``name``; None when unknown."""
        with self._lock:
            view = self._by_name.pop(name, None)
            if view is None:
                return None
            self._views.pop(view.key, None)
            self.drops += 1
            return view

    def clear(self) -> int:
        """Drop every view (explicit invalidation); returns how many."""
        with self._lock:
            dropped = len(self._views)
            self._views.clear()
            self._by_name.clear()
            self.drops += dropped
            return dropped

    # -- the write path ---------------------------------------------------

    def refresh_all(self, handle, leaves: np.ndarray, version: int) -> int:  # noqa: ANN001
        """Delta-refresh every view after an append; returns the total
        appended-row contributions applied.  Caller holds the dataset
        write lock (readers excluded), so no internal lock is needed
        for the per-view mutation -- but take it anyway to stay safe
        against direct store use outside a Dataset."""
        with self._lock:
            views = list(self._views.values())
        applied = 0
        for view in views:
            incremental = view.incremental_refreshes
            full = view.full_refreshes
            applied += view.refresh(handle, leaves, version)
            self.incremental_refreshes += view.incremental_refreshes - incremental
            self.full_refreshes += view.full_refreshes - full
        self.delta_rows += applied
        return applied

    # -- introspection ----------------------------------------------------

    def views(self) -> list[MaterializedView]:
        with self._lock:
            return list(self._views.values())

    def views_info(self, current_version: int) -> list[dict]:
        return [view.info(current_version) for view in self.views()]

    def stats(self) -> dict:
        """The service ``mv`` telemetry block for this store."""
        with self._lock:
            views = list(self._views.values())
            return {
                "views": len(views),
                "hits": self.hits,
                "misses": self.misses,
                "admissions": self.admissions,
                "drops": self.drops,
                "incremental_refreshes": self.incremental_refreshes,
                "full_refreshes": self.full_refreshes,
                "delta_rows": self.delta_rows,
                "bytes": sum(view.nbytes() for view in views),
                "disk_bytes": self.disk_bytes,
            }
