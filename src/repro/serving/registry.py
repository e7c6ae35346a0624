"""Model registry: named fitted estimators with lazy load, eviction, hot-swap.

A long-lived serving process owns many estimators (one per schema, per
tenant, per snapshot generation). The registry is the single place they
live:

* **lazy load** — entries registered by artifact path (via
  :func:`repro.core.persistence.load_model`) are materialized on first
  :meth:`get` and can be dropped again under memory pressure;
* **eviction** — an optional ``budget_bytes`` bounds the summed
  ``size_bytes`` of resident models; least-recently-used *reloadable*
  entries (those backed by a path) are unloaded first, pinned in-memory
  entries never are;
* **hot-swap** — :meth:`swap` and :meth:`refresh` replace a model behind a
  name with one reference assignment and bump the entry's version, so
  readers holding the old object finish their batches untouched and result
  caches keyed on ``(name, version)`` invalidate themselves. Incremental
  refreshes train on a *copy* of the live estimator; readers are never
  blocked by gradient steps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.estimator import NeuroCard
from repro.core.refresh import clone_estimator
from repro.errors import ServingError
from repro.relational.schema import JoinSchema
from repro.serving import faults


@dataclass
class _Entry:
    """One named model slot. ``model`` is None while lazily unloaded."""

    name: str
    model: Optional[NeuroCard] = None
    path: Optional[Path] = None
    schema: Optional[JoinSchema] = None
    version: int = 0
    pinned: bool = field(default=False)
    #: Serializes lazy loads of this entry without the registry lock, so
    #: a seconds-long artifact load never stalls serving on other models.
    load_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def reloadable(self) -> bool:
        return self.path is not None

    @property
    def resident_bytes(self) -> int:
        return self.model.size_bytes if self.model is not None else 0


class ModelRegistry:
    """Thread-safe owner of named fitted estimators.

    The mutation lock only guards the registry's bookkeeping (entry dict,
    LRU order, versions) — never model inference. ``get`` returns the
    estimator object itself; a reader that obtained a model keeps using it
    even if the name is swapped or evicted mid-flight.
    """

    def __init__(self, budget_bytes: Optional[int] = None):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ServingError("budget_bytes must be positive (or None for unbounded)")
        self.budget_bytes = budget_bytes
        self._entries: Dict[str, _Entry] = {}
        self._lru: Dict[str, None] = {}  # insertion-ordered recency list
        self._lock = threading.RLock()
        self._subscribers: List[Callable[[str, NeuroCard, int], None]] = []
        self.loads = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Swap notifications
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[str, NeuroCard, int], None]) -> None:
        """Call ``callback(name, estimator, version)`` after every swap.

        Fired outside the registry lock, after the new version is visible
        to ``get_with_version``. The serving layer uses this to publish
        swapped models to worker pools *eagerly*, so a hot-swap under
        multiprocess load never serves a post-swap request from a stale
        worker version. A failing callback does not stop the others or
        undo the swap; once all have run, :meth:`swap` raises a
        :class:`~repro.errors.ServingError` chained to the first failure,
        so the caller (a refresher's ``RefreshEvent``, say) sees that a
        subscriber such as a pool publish could not follow the new version.
        """
        with self._lock:
            self._subscribers.append(callback)

    def _notify_swap(self, name: str, estimator: NeuroCard, version: int) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        errors = []
        for callback in subscribers:
            try:
                callback(name, estimator, version)
            except Exception as exc:  # reported below, after every callback
                errors.append(exc)
        if errors:
            raise ServingError(
                f"model {name!r} version {version} is swapped in, but "
                f"{len(errors)} of {len(subscribers)} swap subscriber(s) "
                f"failed: {errors[0]!r}"
            ) from errors[0]

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, estimator: NeuroCard) -> None:
        """Register a fitted in-memory estimator under ``name`` (pinned)."""
        if not estimator.is_fitted:
            raise ServingError(f"model {name!r} must be fitted before registration")
        with self._lock:
            if name in self._entries:
                raise ServingError(f"model {name!r} already registered; use swap()")
            self._entries[name] = _Entry(name=name, model=estimator, pinned=True)
            self._touch(name)
            self._evict_over_budget()

    def register_path(self, name: str, path: str | Path, schema: JoinSchema) -> None:
        """Register a saved artifact; it is loaded lazily on first ``get``."""
        with self._lock:
            if name in self._entries:
                raise ServingError(f"model {name!r} already registered; use swap()")
            self._entries[name] = _Entry(name=name, path=Path(path), schema=schema)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> NeuroCard:
        """The current estimator for ``name`` (loading it if needed)."""
        return self.get_with_version(name)[0]

    def get_with_version(self, name: str) -> Tuple[NeuroCard, int]:
        """``(model, version)`` atomically — the pair cache keys need."""
        with self._lock:
            entry = self._entry(name)
            if entry.model is not None:
                self._touch(name)
                self._evict_over_budget(keep=name)
                return entry.model, entry.version
        # Load outside the registry lock: rebuilding counts/sampler takes
        # seconds and must not stall serving on other (resident) models.
        # The per-entry lock keeps concurrent getters from loading twice.
        with entry.load_lock:
            with self._lock:
                if entry.model is None:
                    path, schema, version = entry.path, entry.schema, entry.version
                else:
                    path = None
            loaded = None
            if path is not None:
                from repro.core.persistence import load_model  # cycle-free at call time

                injector = faults.get_active()
                if injector is not None:
                    injector.check("registry.load")
                loaded = load_model(path, schema)
                # Fold the serving kernels before the model goes live, so
                # the first request after a lazy load is already compiled.
                loaded.precompile()
                with self._lock:
                    # A swap may have raced the load; the swapped-in model
                    # wins and the stale load is discarded.
                    if entry.model is None and entry.version == version:
                        entry.model = loaded
                        self.loads += 1
        with self._lock:
            self._touch(name)
            self._evict_over_budget(keep=name)
            if entry.model is not None:
                return entry.model, entry.version
        if loaded is not None:  # unloaded again mid-call: serve the fresh copy
            return loaded, version
        return self.get_with_version(name)

    def version(self, name: str) -> int:
        with self._lock:
            return self._entry(name).version

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    @property
    def resident_bytes(self) -> int:
        """Summed ``size_bytes`` of currently loaded models."""
        with self._lock:
            return sum(e.resident_bytes for e in self._entries.values())

    # ------------------------------------------------------------------
    # Hot-swap / refresh
    # ------------------------------------------------------------------
    def swap(self, name: str, estimator: NeuroCard) -> int:
        """Atomically replace the model behind ``name``; returns the new version.

        Readers that already hold the old object are unaffected; new ``get``
        calls see the new model and version immediately. Raises
        :class:`~repro.errors.ServingError` after the swap if a subscriber
        failed (see :meth:`subscribe`).
        """
        if not estimator.is_fitted:
            raise ServingError(f"swap({name!r}) requires a fitted estimator")
        injector = faults.get_active()
        if injector is not None:
            injector.check("registry.swap")  # fails the swap; old model serves
        # Compile outside the registry lock so a slow fold never stalls
        # lookups; duck-typed test models without the hook are fine.
        precompile = getattr(estimator, "precompile", None)
        if precompile is not None:
            precompile()
        with self._lock:
            entry = self._entry(name)
            entry.model = estimator
            # A stale artifact path must not resurrect the pre-swap weights
            # after an eviction; the swapped-in model lives in memory only
            # until save_model/register_path re-associate it with a file.
            entry.path = None
            entry.schema = None
            entry.pinned = True
            entry.version += 1
            self._touch(name)
            self._evict_over_budget(keep=name)
            version = entry.version
        self._notify_swap(name, estimator, version)
        return version

    def refresh(
        self,
        name: str,
        new_schema: JoinSchema,
        train_tuples: Optional[int] = None,
        *,
        fraction: Optional[float] = None,
        data_version: Optional[int] = None,
        throttle: Optional[float] = None,
    ) -> int:
        """Incremental-update ``name`` onto a new snapshot without blocking readers.

        The live estimator keeps serving while a clone
        (:func:`repro.core.refresh.clone_estimator` — the live inference
        engine is excluded from the copy and rebuilt, so its concurrently
        mutated caches are never touched and the clone never reuses kernels
        folded from pre-update weights) ingests the snapshot and takes the
        extra gradient steps; the trained copy is then swapped in. The
        incremental budget is ``train_tuples``, or ``fraction`` of the
        config's original budget (the streaming refresher passes the
        policy's fast fraction); with neither, only counts/sampler rebuild.
        ``data_version`` stamps the clone's snapshot generation, and
        ``throttle`` paces the background gradient steps so concurrent
        serving threads keep the GIL (pure pacing — weights are bitwise
        unaffected under a single-threaded sampler). Returns the new
        registry version.
        """
        current = self.get(name)  # materializes lazy entries before copying
        candidate = clone_estimator(current)
        candidate.update(
            new_schema,
            train_tuples=train_tuples,
            fraction=fraction,
            data_version=data_version,
            throttle=throttle,
        )
        return self.swap(name, candidate)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def unload(self, name: str) -> bool:
        """Drop a reloadable entry's resident model; True if memory was freed."""
        with self._lock:
            entry = self._entry(name)
            if entry.model is None or not entry.reloadable:
                return False
            entry.model = None
            self.evictions += 1
            return True

    def _evict_over_budget(self, keep: Optional[str] = None) -> None:
        if self.budget_bytes is None:
            return
        over = self.resident_bytes - self.budget_bytes
        if over <= 0:
            return
        for name in list(self._lru):  # oldest first
            if over <= 0:
                break
            if name == keep:
                continue
            entry = self._entries.get(name)
            if entry is None or entry.model is None or not entry.reloadable:
                continue
            over -= entry.resident_bytes
            entry.model = None
            self.evictions += 1

    # ------------------------------------------------------------------
    def _entry(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise ServingError(
                f"unknown model {name!r}; registered: {sorted(self._entries)}"
            )
        return entry

    def _touch(self, name: str) -> None:
        self._lru.pop(name, None)
        self._lru[name] = None
