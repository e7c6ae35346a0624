"""The three workloads: ranges-batch, subplans-http, ingest-refresh.

Each runs the program through its public API only, sets it up ``N_SETUPS``
times (``setup_s`` is the median), measures for about ``seconds`` in whole
rounds of operations, and checks every answer against ground truth counted
by SQLite in a separate process (``truth.py``), cross-checked by the
program's own exact executor.
"""

from __future__ import annotations

import contextlib
import gc
import math
import multiprocessing
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    BATCH,
    N_SETUPS,
    Outcome,
    executor_mismatches,
    latency_summary,
    make_schema,
    median,
    neurocard_config,
    peak_rss_mb,
    plan_key,
    process_peak_rss_mb,
    qerror_summary,
    ranges_queries,
    sqlite_counts,
    stable_seed,
    subplans,
    valid_estimate,
)
from loadgen import drive
from spans import Tracer, per_layer_metrics

from repro.baselines import PostgresEstimator
from repro.core.estimator import NeuroCard
from repro.eval.calibration import calibration_workload
from repro.eval.harness import true_cardinalities
from repro.eval.updates import partition_stream
from repro.joins.counts import JoinCounts
from repro.relational.dsl import query_to_dict
from repro.relational.query import Query
from repro.serving import (
    CascadeConfig,
    EstimationService,
    HttpConfig,
    HttpServerThread,
    ServingConfig,
    StreamingIngestor,
    WorkerPool,
)

MODEL = "imdb"
#: Queries an optimizer plans on subplans-http (the first 200 of the fixed
#: set, which cover all 18 JOB-light join graphs); about 1200 sub-plans.
N_PLANNED = 200
#: Queries judged on ingest-refresh's final snapshot.
N_EVAL = 500
#: §7.6 year partitions: the oldest is served first, four are ingested.
N_PARTITIONS = 5
#: Closed-loop clients (threads) on the serving workloads.
N_CLIENTS = 2


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]):
    """Record spans only inside this block (the program's own work)."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


def _median_setup(setup, tracer, out: Outcome):
    """Run ``setup`` N_SETUPS times; keep the last, tear the others down.

    ``setup`` returns ``(state, close)``; ``close`` stops what it started.
    A torn-down set-up is released before the next one starts, so one
    program instance lives at a time and ``peak_rss_mb`` counts one.
    """
    times = []
    for i in range(N_SETUPS):
        start = time.perf_counter()
        with traced(tracer):
            state, close = setup()
        times.append(time.perf_counter() - start)
        if i < N_SETUPS - 1:
            close()
            del state, close
            gc.collect()
    out.metrics["setup_s"] = median(times)
    return state, close


def _answer(future) -> float:
    """A judged answer, nan when its future failed (the judging check fails)."""
    try:
        return float(future.result(timeout=120))
    except Exception:  # noqa: BLE001 - judged as invalid
        return math.nan


def _worker_install(model) -> str:
    """Install ``model`` on a fresh 1-worker pool: "ok", or the error raised.

    ingest-refresh serves in-process (README, "Worker pool"); this shows in
    every run whether a worker process could serve the refreshed model.
    """
    pool = WorkerPool(n_workers=1, name="install-probe")
    try:
        pool.publish(model, timeout=60)
        return "ok"
    except Exception as exc:  # noqa: BLE001 - reported, not gated
        cause = f" ({exc.__cause__})" if exc.__cause__ is not None else ""
        return f"failed: {exc}{cause}"[:300]
    finally:
        pool.close()


def _query_rngs(seed: int, tag, indices) -> List[np.random.Generator]:
    return [np.random.default_rng([seed, stable_seed(tag), int(i)]) for i in indices]


# ----------------------------------------------------------------------
# ranges-batch: the engine alone
# ----------------------------------------------------------------------
def ranges_batch(seed: int, seconds: float, tracer: Optional[Tracer]):
    out = Outcome()
    schema = make_schema()
    queries = ranges_queries(schema, JoinCounts(schema))
    truths = sqlite_counts(schema, queries)
    out.check("executor equals SQLite", executor_mismatches(schema, queries, truths) == 0)
    postgres = PostgresEstimator(schema)
    baseline = qerror_summary([postgres.estimate(q) for q in queries], truths)

    def setup():
        model = NeuroCard(make_schema(), neurocard_config()).fit()
        model.precompile()
        return model, lambda: None

    model, _ = _median_setup(setup, tracer, out)
    rng = np.random.default_rng(seed)
    latencies: List[float] = []
    rates: List[float] = []

    def one_pass(pass_no: int, timed: bool) -> np.ndarray:
        order = rng.permutation(len(queries))
        estimates = np.full(len(queries), np.nan)
        for lo in range(0, len(order), BATCH):
            idx = order[lo:lo + BATCH]
            batch = [queries[i] for i in idx]
            rngs = _query_rngs(seed, ("pass", pass_no), idx)
            out.attempted += 1
            start = time.perf_counter()
            try:
                answer = model.estimate_batch(batch, rngs=rngs)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                out.failed += 1
                out.notes.append(f"estimate_batch raised {exc!r}")
                continue
            if timed:
                latencies.append((time.perf_counter() - start) * 1e3)
                rates.append(len(batch) / (latencies[-1] / 1e3))
            if len(answer) != len(batch) or not all(valid_estimate(v) for v in answer):
                out.failed += 1
                continue
            estimates[idx] = answer
        return estimates

    with traced(tracer):
        warm = one_pass(0, timed=False)
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            passes += 1
            one_pass(passes, timed=True)

    out.check("operations were timed", len(latencies) > 0)
    out.metrics["estimates_per_s"] = median(rates)
    # Tens of batch calls: too few for a tail, so the median alone.
    out.metrics["latency_p50_ms"] = latency_summary(latencies)["latency_p50_ms"]
    out.metrics.update(qerror_summary(warm, truths))
    out.metrics["model_bytes"] = float(model.size_bytes)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    for name in ("qerror_p50", "qerror_p95", "qerror_p99"):
        out.check(f"NeuroCard {name} <= Postgres", out.metrics[name] <= baseline[name])
        out.extra[f"postgres_{name}"] = baseline[name]
    out.extra["passes"] = passes
    per_layer = per_layer_metrics(tracer) if tracer is not None else None
    return out, per_layer


# ----------------------------------------------------------------------
# subplans-http: an optimizer planning over the wire, cascade on
# ----------------------------------------------------------------------
def subplans_http(seed: int, seconds: float, tracer: Optional[Tracer]):
    out = Outcome()
    schema = make_schema()
    planned = ranges_queries(schema, JoinCounts(schema))[:N_PLANNED]
    unique: Dict[str, int] = {}
    distinct: List[Query] = []
    requests: List[List[int]] = []  # per planned query: its sub-plans' ids
    for query in planned:
        ids = []
        for sub in subplans(query, schema):
            key = plan_key(sub)
            if key not in unique:
                unique[key] = len(distinct)
                distinct.append(sub)
            ids.append(unique[key])
        requests.append(ids)
    truths = sqlite_counts(schema, distinct)
    out.check("executor equals SQLite", executor_mismatches(schema, distinct, truths) == 0)
    # One pinned seed per distinct sub-plan: re-plans hit the result cache.
    plan_seeds = [stable_seed(seed, key) for key in unique]

    def setup():
        setup_schema = make_schema()
        model = NeuroCard(setup_schema, neurocard_config()).fit()
        model.precompile()
        service = EstimationService(
            config=ServingConfig(
                max_batch=BATCH, workers=1,
                cascade=CascadeConfig(tiers=("per_table", "neural")),
            )
        )
        service.register(MODEL, model)
        cascade = service.enable_cascade()
        held_out = calibration_workload(setup_schema, seed=0, counts=model.counts)
        cascade.calibrate(held_out, true_cardinalities(setup_schema, held_out, model.counts))
        # Start the worker and install the model on it before the first request.
        service.scheduler(MODEL)
        service.pool(MODEL).publish(model, service.registry.version(MODEL))
        server = HttpServerThread(service, HttpConfig(port=0)).start()
        return (model, service, server), lambda: server.stop(close_service=True)

    (model, service, server), close = _median_setup(setup, tracer, out)
    ctx = multiprocessing.get_context("spawn")
    receive, send = ctx.Pipe(duplex=False)
    loadgen = ctx.Process(
        target=drive,
        args=(
            server.host, server.port, MODEL,
            [[query_to_dict(distinct[u]) for u in ids] for ids in requests],
            [[plan_seeds[u] for u in ids] for ids in requests],
            seed, seconds, N_CLIENTS, send,
        ),
        name="perfbench-loadgen",
    )
    try:
        with traced(tracer):
            loadgen.start()
            send.close()
            rows = receive.recv() if receive.poll(150) else None
            loadgen.join(timeout=30)
        stats = service.scheduler(MODEL).stats()
        model_bytes = float(model.size_bytes)
        worker_rss = [process_peak_rss_mb(pid) for pid in service.pool(MODEL).worker_pids()]
    finally:
        if loadgen.is_alive():
            loadgen.terminate()
            loadgen.join()
        close()
    out.check("the load generator reported", rows is not None)
    rows = rows or []

    first_answer: Dict[int, Tuple[float, str]] = {}
    client_ms: Dict[str, float] = {}
    latencies: List[float] = []
    spans: Dict[int, List[float]] = {}  # round -> [first start, last end, estimates]
    answered = neural = 0
    for number, q, warm, start, ms, answer, tiers, error in rows:
        ids = requests[q]
        out.attempted += 1
        ok = (
            error is None
            and len(answer) == len(ids) == len(tiers)
            and all(valid_estimate(v) for v in answer)
        )
        if not ok:
            out.failed += 1
            if error is not None:
                out.notes.append(f"request failed: {error}")
            continue
        for u, value, tier in zip(ids, answer, tiers):
            first_answer.setdefault(u, (value, tier))
        if not warm:
            latencies.append(ms)
            client_ms[f"r{number}"] = ms
            span = spans.setdefault(number // len(requests), [start, start, 0])
            span[0] = min(span[0], start)
            span[1] = max(span[1], start + ms / 1e3)
            span[2] += len(ids)
            answered += len(ids)
            neural += sum(t == "neural" for t in tiers)

    out.check("operations were timed", len(latencies) > 0)
    out.metrics["estimates_per_s"] = median([n / (b - a) for a, b, n in spans.values()])
    summary = latency_summary(latencies)
    out.metrics["latency_p50_ms"] = summary["latency_p50_ms"]
    if "latency_p99_ms" in summary:
        out.extra["latency_p99_ms"] = summary["latency_p99_ms"]
    answered_ids = sorted(first_answer)
    out.metrics.update(
        qerror_summary([first_answer[u][0] for u in answered_ids],
                       [truths[u] for u in answered_ids])
    )
    out.metrics["model_bytes"] = model_bytes
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.extra["worker_peak_rss_mb"] = max(worker_rss, default=math.nan)
    out.check("every sub-plan answered", len(answered_ids) == len(distinct))
    for u in answered_ids:
        value, tier = first_answer[u]
        if tier == "per_table" and len(distinct[u].tables) == 1:
            out.check(
                "per_table exact on single tables",
                abs(value - truths[u]) <= 1e-9 * max(abs(truths[u]), 1.0),
            )
    escalated = neural / answered if answered else 0.0
    out.extra["escalated_ratio"] = escalated
    out.extra["requests"] = len(latencies)
    out.extra["distinct_subplans"] = len(distinct)
    per_layer = None
    if tracer is not None:
        per_layer = per_layer_metrics(
            tracer, http_client_ms=client_ms, escalated_ratio=escalated,
            scheduler_stats=stats,
        )
    return out, per_layer


# ----------------------------------------------------------------------
# ingest-refresh: writes beside reads
# ----------------------------------------------------------------------
def ingest_refresh(seed: int, seconds: float, tracer: Optional[Tracer]):
    out = Outcome()
    schema = make_schema()
    counts = JoinCounts(schema)
    judged = ranges_queries(schema, counts)[:N_EVAL]
    # The read stream: fresh queries per seed, each sent with its own seed,
    # so no read repeats and the result cache cannot answer it.
    reads = ranges_queries(schema, counts, seed=stable_seed("reads", seed))

    def setup():
        snapshots, deltas = partition_stream(make_schema(), N_PARTITIONS)
        model = NeuroCard(snapshots[0], neurocard_config()).fit()
        model.precompile()
        service = EstimationService(config=ServingConfig(max_batch=BATCH))
        service.register(MODEL, model)
        ingestor = StreamingIngestor(snapshots[0])
        refresher = service.serve_with_updates(MODEL, ingestor)
        service.submit(judged[0], seed=0).result(timeout=120)  # first answer
        return (snapshots, deltas, model, service, ingestor, refresher), service.close

    (snapshots, deltas, initial, service, ingestor, refresher), close = _median_setup(
        setup, tracer, out
    )
    truths = sqlite_counts(snapshots[0], judged, inserts=deltas[1:])
    swaps: List[Tuple[float, int, int]] = []  # (time, registry version, data version)
    service.registry.subscribe(
        lambda name, est, version: swaps.append((time.perf_counter(), version, est.data_version))
    )
    start_version = service.registry.version(MODEL)
    lock = threading.Lock()
    stop = threading.Event()
    records: List[Tuple[float, float]] = []  # (submitted, answered) per read
    counter = {"next": 0}

    def client_loop():
        while not stop.is_set():
            with lock:
                number = counter["next"]
                counter["next"] += 1
                out.attempted += 1
            query = reads[number % len(reads)]
            start = time.perf_counter()
            try:
                value = service.submit(query, seed=stable_seed(seed, "read", number)).result(
                    timeout=120
                )
            except Exception as exc:  # noqa: BLE001 - a failed read
                with lock:
                    out.failed += 1
                    out.notes.append(f"read failed: {exc!r}")
                continue
            done = time.perf_counter()
            with lock:
                if valid_estimate(value):
                    records.append((start, done))
                else:
                    out.failed += 1

    def wait_for(predicate, limit_s: float) -> bool:
        deadline = time.perf_counter() + limit_s
        while not predicate():
            if time.perf_counter() > deadline:
                return False
            time.sleep(0.002)
        return True

    ingested: List[Tuple[float, int]] = []  # (ingest_many returned, data version)
    try:
        with traced(tracer):
            threads = [threading.Thread(target=client_loop) for _ in range(N_CLIENTS)]
            phase_start = time.perf_counter()
            for t in threads:
                t.start()
            try:
                for k, delta in enumerate(deltas[1:], start=1):
                    due = phase_start + k * seconds / len(deltas)
                    time.sleep(max(due - time.perf_counter(), 0.0))
                    version = ingestor.ingest_many(delta)
                    ingested.append((time.perf_counter(), version))
                    refreshed = wait_for(
                        lambda: any(e.data_version == version for e in refresher.history), 150
                    )
                    out.check("every ingest refreshed", refreshed)
                    if not refreshed:
                        break
                last_swap = swaps[-1][0] if swaps else phase_start
                wait_for(
                    lambda: time.perf_counter() >= phase_start + seconds
                    and any(s >= last_swap for s, _ in list(records)),
                    60,
                )
            finally:
                stop.set()
                for t in threads:
                    t.join()

            events = list(refresher.history)
            served = service.registry.get(MODEL)
            # Judge the final model as the service serves it, and the model
            # set up on the oldest partition directly, with equal seeds.
            eval_seeds = [stable_seed(seed, "judge", i) for i in range(len(judged))]
            futures = [service.submit(q, seed=s) for q, s in zip(judged, eval_seeds)]
            final_est = [_answer(f) for f in futures]
            initial_est = np.concatenate([
                initial.estimate_batch(
                    judged[lo:lo + BATCH],
                    rngs=[np.random.default_rng(s) for s in eval_seeds[lo:lo + BATCH]],
                )
                for lo in range(0, len(judged), BATCH)
            ])
        stats = service.scheduler(MODEL).stats()
        final_schema, final_version = ingestor.snapshot()
        registry_version = service.registry.version(MODEL)
        out.extra["worker_install"] = _worker_install(served)
    finally:
        close()

    during, rate, refresh_s = refresh_reads(records, ingested, swaps)
    out.check("reads were answered during refreshes", len(during) > 0)
    out.metrics["estimates_per_s"] = rate
    summary = latency_summary([(b - a) * 1e3 for a, b in during])
    out.metrics["latency_p50_ms"] = summary["latency_p50_ms"]
    if "latency_p99_ms" in summary:
        out.extra["latency_p99_ms"] = summary["latency_p99_ms"]
    out.metrics.update(qerror_summary(final_est, truths))
    initial_q = qerror_summary(initial_est, truths)
    out.metrics["model_bytes"] = float(served.size_bytes)
    out.metrics["peak_rss_mb"] = peak_rss_mb()

    out.check("executor equals SQLite on the final snapshot",
              executor_mismatches(final_schema, judged, truths) == 0)
    out.check("every judged answer valid", all(valid_estimate(v) for v in final_est))
    out.check("refreshed model beats the initial one",
              out.metrics["qerror_p50"] < initial_q["qerror_p50"])
    ok_events = [e for e in events if e.ok]
    out.check("every refresh succeeded", len(ok_events) == len(events) == len(deltas) - 1)
    out.check("registry version advances once per refresh",
              registry_version == start_version + len(ok_events)
              and [v for _, v, _ in swaps] == list(range(start_version + 1,
                                                          registry_version + 1)))
    out.check("served data_version is the last ingest",
              bool(ingested) and served.data_version == final_version == ingested[-1][1])
    out.check("a read was answered after every refresh",
              len(refresh_s) == len(ingested) == len(deltas) - 1)
    if refresh_s:
        out.extra["refresh_s"] = float(np.median(refresh_s))
    strategies = tuple(e.strategy for e in ok_events)
    out.extra["strategies"] = "/".join(strategies)
    out.extra["initial_qerror_p50"] = initial_q["qerror_p50"]
    out.extra["reads"] = len(records)
    out.extra["reads_during_refresh"] = len(during)
    per_layer = None
    if tracer is not None:
        per_layer = per_layer_metrics(
            tracer, scheduler_stats=stats, refresh_strategies=strategies
        )
    return out, per_layer


def refresh_reads(
    records: List[Tuple[float, float]],
    ingested: List[Tuple[float, int]],
    swaps: List[Tuple[float, int, int]],
) -> Tuple[List[Tuple[float, float]], float, List[float]]:
    """Reduce ingest-refresh's read log to ``(reads during refreshes,
    estimates_per_s, refresh_s per ingest)``.

    A refresh runs from ``ingest_many`` returning until its version is
    swapped in. Reads submitted then meet the contention this workload
    exists for; judging only them keeps the mix of contended and idle reads
    out of it. A refresh's ``refresh_s`` ends at the first answer to a read
    submitted after its swap. With no refresh window the rate reads nan.
    """
    windows = []
    for returned, version in ingested:
        swapped = [s for s, _, dv in swaps if dv == version]
        if swapped:
            windows.append((returned, swapped[0]))
    during = [(a, b) for a, b in records if any(lo <= a < hi for lo, hi in windows)]
    busy = sum(hi - lo for lo, hi in windows)
    rate = len(during) / busy if busy > 0 else math.nan
    refresh_s = []
    for returned, swapped in windows:
        answered = [b for a, b in records if a >= swapped]
        if answered:
            refresh_s.append(min(answered) - returned)
    return during, rate, refresh_s


WORKLOADS = {
    "ranges-batch": ranges_batch,
    "subplans-http": subplans_http,
    "ingest-refresh": ingest_refresh,
}
