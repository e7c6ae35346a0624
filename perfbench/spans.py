"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions and methods of each layer with
wrappers that record a span per call: name, duration, and *self* time (the
duration minus the spans of other traced layers nested inside it on the same
thread). Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every
original back. Spans stay in memory and are reduced to the per-layer metrics
of ``BENCHMARK.json`` when the run ends.

Only the process that runs the program is traced; the subplans-http load
generator, a process of its own, reports its request times to it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (per-layer metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("joins.counts.build_s", "s"),
    ("joins.sampler.busy_s", "s"),
    ("joins.sampler.tuples_per_s", "tuples/s"),
    ("core.encoding.busy_s", "s"),
    ("core.training.self_s", "s"),
    ("core.training.steps", "count"),
    ("nn.compiled.compile_s", "s"),
    ("core.progressive.plan_us", "us"),
    ("core.progressive.plan_calls", "count"),
    ("core.inference.batch_ms_p50", "ms"),
    ("core.inference.queries_per_batch", "queries"),
    ("core.inference.self_s", "s"),
    ("nn.compiled.fold_s", "s"),
    ("nn.compiled.fold_calls", "count"),
    ("nn.compiled.probs_s", "s"),
    ("nn.compiled.probs_rows", "rows"),
    ("relational.dsl.parse_us", "us"),
    ("serving.http.self_ms_p50", "ms"),
    ("serving.admission.admit_us", "us"),
    ("serving.cascade.route_us", "us"),
    ("serving.cascade.escalated_ratio", "ratio"),
    ("serving.cascade.calibrate_s", "s"),
    ("baselines.per_table.estimate_us", "us"),
    ("serving.scheduler.cache_hit_ratio", "ratio"),
    ("serving.scheduler.queue_wait_ms_p50", "ms"),
    ("serving.scheduler.batch_size_mean", "queries"),
    ("serving.workers.roundtrip_ms_p50", "ms"),
    ("serving.workers.publish_ms", "ms"),
    ("serving.updates.ingest_ms", "ms"),
    ("serving.updates.observe_ms", "ms"),
    ("core.refresh.clone_ms", "ms"),
    ("core.estimator.update_s", "s"),
    ("serving.registry.swap_ms", "ms"),
    ("serving.updates.refreshes_fast", "count"),
    ("serving.updates.refreshes_retrain", "count"),
)

Hook = Callable[[tuple, dict, object, float], None]


def request_tag(query) -> Optional[str]:
    """The request a query belongs to, from names of the form ``tag/k``."""
    name = getattr(query, "name", None) or ""
    tag, sep, _ = name.partition("/")
    return tag if sep else None


class Tracer:
    """Spans around the public calls into each layer (see module docstring)."""

    def __init__(self) -> None:
        #: Spans are recorded only while enabled, so the benchmark's own
        #: calls into the library (query generation, ground truth) stay out.
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, bool, object]] = []
        #: name -> [(duration_s, self_s)]
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Queued queries by id: (query, submit time), for the queue wait.
        self._queued: Dict[int, Tuple[object, float]] = {}
        #: Request tag -> [first submit start, last answer] inside the service.
        self.service_windows: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def record(self, name: str, duration: float) -> None:
        """A span timed elsewhere (across threads): its self time is its duration."""
        with self._lock:
            self.spans[name].append((duration, duration))

    def wrap(self, owner, attr: str, name: str, *,
             before: Optional[Hook] = None, after: Optional[Hook] = None) -> None:
        """Trace ``owner.attr`` (a plain function or method) as span ``name``.

        ``before(args, kwargs, None, start)`` runs as the call starts and
        ``after(args, kwargs, result, start)`` once it returned.
        """
        original = getattr(owner, attr)
        had_own = isinstance(owner, type) and attr in owner.__dict__
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            if before is not None:
                before(args, kwargs, None, start)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                with tracer._lock:
                    tracer.spans[name].append((duration, duration - nested))
            if after is not None:
                after(args, kwargs, result, start)
            return result

        self._patches.append((owner, attr, had_own or not isinstance(owner, type), original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        self.enabled = False
        while self._patches:
            owner, attr, restore, original = self._patches.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))

    def total(self, *names: str) -> float:
        return float(sum(d for n in names for d, _ in self.spans.get(n, ())))

    def self_total(self, *names: str) -> float:
        return float(sum(s for n in names for _, s in self.spans.get(n, ())))

    def median(self, name: str, scale: float) -> float:
        values = [d for d, _ in self.spans.get(name, ())]
        return float(np.median(values)) * scale if values else 0.0

    # ------------------------------------------------------------------
    # Serving hooks
    # ------------------------------------------------------------------
    def queued(self, query, start: float) -> None:
        with self._lock:
            self._queued[id(query)] = (query, start)

    def dequeued(self, query) -> None:
        with self._lock:
            self._queued.pop(id(query), None)

    def dispatched(self, queries, start: float) -> None:
        """The call carrying ``queries`` to the engine or the worker pool
        started at ``start``."""
        waits = []
        with self._lock:
            for query in queries:
                entry = self._queued.pop(id(query), None)
                if entry is not None and entry[0] is query:
                    waits.append(start - entry[1])
            self.spans["serving.scheduler.queue_wait"].extend((w, w) for w in waits)

    def pool_batch(self, start: float, future) -> None:
        """One ``WorkerPool.submit_batch`` from ``start`` until its future is done."""
        future.add_done_callback(
            lambda _f: self.record("serving.workers.roundtrip", time.perf_counter() - start)
        )

    def service_call(self, tag: Optional[str], start: float, future) -> None:
        """One ``EstimationService.submit`` of request ``tag`` and its answer."""
        if tag is None:
            return
        with self._lock:
            window = self.service_windows.setdefault(tag, [start, start])
            window[0] = min(window[0], start)

        def done(_future) -> None:
            now = time.perf_counter()
            with self._lock:
                window[1] = max(window[1], now)

        future.add_done_callback(done)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public call into every layer named in :data:`PER_LAYER`."""
    from repro.baselines.per_table import PerTableStatsEstimator
    from repro.core import estimator as estimator_module
    from repro.core.encoding import FusedEncoder
    from repro.core.estimator import NeuroCard
    from repro.core.inference import CompiledEngine
    from repro.core.progressive import ProgressiveSampler
    from repro.joins.counts import JoinCounts
    from repro.joins.sampler import FullJoinSampler
    from repro.nn.compiled import CompiledResMADE, FoldSession
    from repro.serving import http as http_module
    from repro.serving import registry as registry_module
    from repro.serving.admission import AdmissionController
    from repro.serving.cascade import EstimatorCascade
    from repro.serving.registry import ModelRegistry
    from repro.serving.scheduler import MicroBatchScheduler
    from repro.serving.service import EstimationService
    from repro.serving.updates import DriftMonitor, StreamingIngestor
    from repro.serving.workers import WorkerPool

    t = tracer
    t.wrap(JoinCounts, "__init__", "joins.counts")
    t.wrap(FullJoinSampler, "sample_row_id_matrix", "joins.sampler",
           after=lambda a, k, r, s: t.add("joins.sampler.tuples", a[1]))
    t.wrap(FusedEncoder, "encode_row_ids", "core.encoding")
    t.wrap(estimator_module, "train_autoregressive", "core.training",
           after=lambda a, k, r, s: t.add("core.training.steps", r.steps))
    t.wrap(CompiledResMADE, "compile", "nn.compiled.compile")
    t.wrap(ProgressiveSampler, "plan", "core.progressive.plan")
    t.wrap(CompiledEngine, "estimate_batch", "core.inference",
           before=lambda a, k, r, s: t.dispatched(a[1], s),
           after=lambda a, k, r, s: t.add("core.inference.queries", len(a[1])))
    t.wrap(FoldSession, "fold_rows", "nn.compiled.fold")
    t.wrap(FoldSession, "fold_slices", "nn.compiled.fold")
    t.wrap(FoldSession, "probs", "nn.compiled.probs",
           after=lambda a, k, r, s: t.add("nn.compiled.probs_rows", len(a[1])))
    t.wrap(FoldSession, "probs_multi", "nn.compiled.probs",
           after=lambda a, k, r, s: t.add("nn.compiled.probs_rows", len(a[1])))
    # The front end compiles wire queries through its own reference.
    t.wrap(http_module, "query_from_dict", "relational.dsl.parse")
    t.wrap(AdmissionController, "admit", "serving.admission.admit")
    t.wrap(EstimatorCascade, "route", "serving.cascade.route")
    t.wrap(EstimatorCascade, "calibrate", "serving.cascade.calibrate")
    t.wrap(PerTableStatsEstimator, "estimate", "baselines.per_table.estimate")
    t.wrap(EstimationService, "submit", "serving.service.submit",
           after=lambda a, k, r, s: t.service_call(request_tag(a[1]), s, r))

    def scheduler_submitted(args, kwargs, future, start):
        query = args[1]
        future.add_done_callback(lambda _f: t.dequeued(query))

    t.wrap(MicroBatchScheduler, "submit", "serving.scheduler.submit",
           before=lambda a, k, r, s: t.queued(a[1], s), after=scheduler_submitted)
    t.wrap(WorkerPool, "submit_batch", "serving.workers.submit",
           before=lambda a, k, r, s: t.dispatched(a[3], s),
           after=lambda a, k, r, s: t.pool_batch(s, r))
    t.wrap(WorkerPool, "publish", "serving.workers.publish")
    t.wrap(StreamingIngestor, "ingest_many", "serving.updates.ingest")
    t.wrap(DriftMonitor, "observe", "serving.updates.observe")
    t.wrap(registry_module, "clone_estimator", "core.refresh.clone")
    t.wrap(NeuroCard, "update", "core.estimator.update")
    t.wrap(ModelRegistry, "swap", "serving.registry.swap")
    return tracer


def per_layer_metrics(
    tracer: Tracer,
    *,
    http_client_ms: Optional[Dict[str, float]] = None,
    escalated_ratio: float = 0.0,
    scheduler_stats: Optional[Dict[str, float]] = None,
    refresh_strategies: Tuple[str, ...] = (),
) -> Dict[str, float]:
    """Reduce the recorded spans to the :data:`PER_LAYER` metrics.

    A layer the workload never calls reads 0. Per-call latencies are
    medians; ``*_s`` busy times are sums over the run (all set-ups and the
    measured phase).
    """
    t = tracer
    sampler_s = t.total("joins.sampler")
    sched = scheduler_stats or {}
    http_self = []
    for tag, client_ms in (http_client_ms or {}).items():
        window = t.service_windows.get(tag)
        if window is not None:
            http_self.append(client_ms - (window[1] - window[0]) * 1e3)
    inference_calls = t.calls("core.inference")
    requests = sched.get("requests", 0)
    return {
        "joins.counts.build_s": t.total("joins.counts"),
        "joins.sampler.busy_s": sampler_s,
        "joins.sampler.tuples_per_s": (
            t.counts["joins.sampler.tuples"] / sampler_s if sampler_s else 0.0
        ),
        "core.encoding.busy_s": t.total("core.encoding"),
        "core.training.self_s": t.self_total("core.training"),
        "core.training.steps": t.counts["core.training.steps"],
        "nn.compiled.compile_s": t.total("nn.compiled.compile"),
        "core.progressive.plan_us": t.median("core.progressive.plan", 1e6),
        "core.progressive.plan_calls": t.calls("core.progressive.plan"),
        "core.inference.batch_ms_p50": t.median("core.inference", 1e3),
        "core.inference.queries_per_batch": (
            t.counts["core.inference.queries"] / inference_calls if inference_calls else 0.0
        ),
        "core.inference.self_s": t.self_total("core.inference"),
        "nn.compiled.fold_s": t.total("nn.compiled.fold"),
        "nn.compiled.fold_calls": t.calls("nn.compiled.fold"),
        "nn.compiled.probs_s": t.self_total("nn.compiled.probs"),
        "nn.compiled.probs_rows": t.counts["nn.compiled.probs_rows"],
        "relational.dsl.parse_us": t.median("relational.dsl.parse", 1e6),
        "serving.http.self_ms_p50": float(np.median(http_self)) if http_self else 0.0,
        "serving.admission.admit_us": t.median("serving.admission.admit", 1e6),
        "serving.cascade.route_us": t.median("serving.cascade.route", 1e6),
        "serving.cascade.escalated_ratio": escalated_ratio,
        "serving.cascade.calibrate_s": t.total("serving.cascade.calibrate"),
        "baselines.per_table.estimate_us": t.median("baselines.per_table.estimate", 1e6),
        "serving.scheduler.cache_hit_ratio": (
            sched.get("cache_hits", 0) / requests if requests else 0.0
        ),
        "serving.scheduler.queue_wait_ms_p50": t.median("serving.scheduler.queue_wait", 1e3),
        "serving.scheduler.batch_size_mean": float(sched.get("mean_batch_size", 0.0)),
        "serving.workers.roundtrip_ms_p50": t.median("serving.workers.roundtrip", 1e3),
        "serving.workers.publish_ms": t.median("serving.workers.publish", 1e3),
        "serving.updates.ingest_ms": t.median("serving.updates.ingest", 1e3),
        "serving.updates.observe_ms": t.median("serving.updates.observe", 1e3),
        "core.refresh.clone_ms": t.median("core.refresh.clone", 1e3),
        "core.estimator.update_s": t.total("core.estimator.update"),
        "serving.registry.swap_ms": t.median("serving.registry.swap", 1e3),
        "serving.updates.refreshes_fast": float(refresh_strategies.count("fast")),
        "serving.updates.refreshes_retrain": float(refresh_strategies.count("retrain")),
    }
