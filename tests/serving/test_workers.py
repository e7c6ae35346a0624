"""Multiprocess worker pool: zero-copy attach, fault injection, hot-swap.

The pool's contracts under test:

* **zero-copy equivalence** — a worker skeleton attaching the published
  shared-memory blob (weights + compiled buffers) answers bitwise like
  the training process's estimator;
* **fail-fast worker death** — a SIGKILL'd worker fails its in-flight
  batches with a chained ServingError, is respawned, and pinned-seed
  requests afterwards are bitwise-identical to pre-crash answers;
* **hot-swap under load** — a registry swap during multiprocess traffic
  produces zero failed and zero stale-version responses;
* **the inline path stays the oracle** — pooled results match inline
  results (bitwise for the fp64/pickled engines, to fp32-kernel
  tolerance for compiled estimators).
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.core.inference import attach_engine_state, export_engine_state
from repro.errors import EstimationError, ServingError
from repro.eval.updates import partition_stream
from repro.nn.compiled import pack_layout, read_blob, write_blob
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import (
    EstimationService,
    ModelRegistry,
    ServingConfig,
    StreamingIngestor,
    WorkerPool,
)
from repro.workloads.generators import job_light_ranges_queries
from repro.workloads.imdb import ImdbScale, job_light_schema

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


class SlowModel:
    """Picklable duck-typed model with a per-batch delay (for kill windows)."""

    is_fitted = True
    size_bytes = 512

    def __init__(self, tag: float, delay: float = 0.0):
        self.tag = tag
        self.delay = delay

    def estimate_batch(self, queries, n_samples=None, rngs=None):
        if self.delay:
            time.sleep(self.delay)
        return np.full(len(queries), self.tag, dtype=np.float64)

    def estimate(self, query, **kwargs) -> float:
        return float(self.estimate_batch([query])[0])


def _query():
    return Query.make(["R"], [Predicate("R", "year", ">=", 1995)])


# ----------------------------------------------------------------------
# Zero-copy export/attach (in-process, no workers involved)
# ----------------------------------------------------------------------
def test_blob_round_trip_is_bitwise(tiny_trained):
    """Skeleton + attached blob answers bitwise like the trained original."""
    schema, est = tiny_trained
    arrays = {
        f"param::{i}": p.value for i, p in enumerate(est.model.parameters())
    }
    arrays.update(
        ("compiled::" + key, value)
        for key, value in export_engine_state(est.inference).items()
    )
    manifest, nbytes = pack_layout(arrays)
    buf = bytearray(nbytes)
    write_blob(arrays, manifest, buf)
    views = read_blob(manifest, buf)
    assert all(not view.flags.writeable for view in views.values())

    twin = NeuroCard(schema, est.config).prepare()
    twin.attach_parameters(
        [views[f"param::{i}"] for i in range(len(est.model.parameters()))]
    )
    attach_engine_state(
        twin.inference,
        {k[len("compiled::"):]: v for k, v in views.items() if k.startswith("compiled::")},
    )
    queries = [_query()] * 4
    rngs_a = [np.random.default_rng(7 + i) for i in range(4)]
    rngs_b = [np.random.default_rng(7 + i) for i in range(4)]
    original = est.estimate_batch(queries, rngs=rngs_a)
    attached = twin.estimate_batch(queries, rngs=rngs_b)
    np.testing.assert_array_equal(np.asarray(attached), np.asarray(original))


def test_attach_parameters_rejects_mismatched_shapes(tiny_trained):
    schema, est = tiny_trained
    twin = NeuroCard(schema, est.config).prepare()
    values = [p.value for p in est.model.parameters()]
    with pytest.raises(EstimationError, match="parameter count"):
        twin.attach_parameters(values[:-1])
    bad = list(values)
    bad[0] = np.zeros((3, 3), dtype=np.float64)
    with pytest.raises(EstimationError, match="mismatch"):
        twin.attach_parameters(bad)


def test_export_state_requires_compiled_mode(tiny_trained):
    from repro.core.inference import compiled_model

    schema, est = tiny_trained
    fp64 = NeuroCard(schema, est.config).prepare(compile="fp64")
    with pytest.raises(EstimationError, match="fp64"):
        compiled_model(fp64.inference).export_state()
    # And the engine-level helper degrades to "nothing to share" instead.
    assert export_engine_state(fp64.inference) == {}


# ----------------------------------------------------------------------
# Pooled serving vs the inline oracle path
# ----------------------------------------------------------------------
def test_pool_matches_inline_compiled(tiny_trained):
    """Sharded fp32 serving reproduces the single-process path."""
    _schema, est = tiny_trained
    queries = [_query()] * 8
    inline = est.estimate_batch(
        queries, rngs=[np.random.default_rng(40 + i) for i in range(8)]
    )
    with WorkerPool(n_workers=2, name="fp32", min_shard=1) as pool:
        pool.publish(est, 1)
        assert pool.shared_bytes > 0  # zero-copy transport, not pickle
        pooled = pool.estimate_batch(
            queries, rngs=[np.random.default_rng(40 + i) for i in range(8)]
        )
    np.testing.assert_allclose(pooled, np.asarray(inline), rtol=5e-6)


def test_pool_is_bitwise_on_fp64_engine(oracle_engine, workload):
    """Pickle-transported fp64 oracle engine: sharding changes nothing."""
    inline = [
        float(oracle_engine.estimate(q, rng=np.random.default_rng(100 + i)))
        for i, q in enumerate(workload)
    ]
    with WorkerPool(n_workers=2, name="fp64", min_shard=1) as pool:
        pool.publish(oracle_engine, 1)
        pooled = [
            pool.estimate(q, seed=100 + i) for i, q in enumerate(workload)
        ]
    assert pooled == inline


def test_scheduler_executor_path_matches_seeded_submits(oracle_engine, workload):
    """scheduler(executor=pool) resolves seeded futures bitwise-stably."""
    from repro.serving.scheduler import MicroBatchScheduler

    expected = [
        float(oracle_engine.estimate(q, rng=np.random.default_rng(55 + i)))
        for i, q in enumerate(workload)
    ]
    with WorkerPool(n_workers=2, name="exec", min_shard=1) as pool:
        with MicroBatchScheduler(
            lambda: (oracle_engine, 3),
            max_batch=4,
            max_wait_us=500,
            cache_size=0,
            executor=pool,
        ) as sched:
            futures = [
                sched.submit(q, seed=55 + i) for i, q in enumerate(workload)
            ]
            got = [f.result(timeout=60) for f in futures]
    assert got == expected
    assert pool.stats()["batches"] > 0  # really took the sharded path


# ----------------------------------------------------------------------
# Fault injection: worker death mid-batch
# ----------------------------------------------------------------------
def test_worker_death_fails_fast_and_respawns(oracle_engine, workload):
    with WorkerPool(n_workers=2, name="doomed", min_shard=1) as pool:
        pool.publish(SlowModel(tag=1.0, delay=3.0), 1)
        rngs = [np.random.default_rng(i) for i in range(4)]
        model, version = pool._client_source()
        future = pool.submit_batch(model, version, [_query()] * 4, rngs=rngs)
        deadline = time.time() + 10
        while not pool.worker_pids() and time.time() < deadline:
            time.sleep(0.01)
        victim = pool.worker_pids()[0]
        time.sleep(0.3)  # let the shards reach the workers
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(ServingError, match="died mid-batch"):
            future.result(timeout=30)
        try:
            future.result(timeout=0)
        except ServingError as exc:
            assert isinstance(exc.__cause__, RuntimeError)
            assert "exited with code" in str(exc.__cause__)

        # The pool respawned the worker and republished version 1; a
        # fresh publish + pinned seeds must serve bitwise as before.
        pool.publish(oracle_engine, 2)
        assert pool.stats()["respawns"] >= 1
        assert len(pool.worker_pids()) == 2
        recovered = [
            pool.estimate(q, seed=200 + i) for i, q in enumerate(workload)
        ]
        expected = [
            float(oracle_engine.estimate(q, rng=np.random.default_rng(200 + i)))
            for i, q in enumerate(workload)
        ]
        assert recovered == expected


# ----------------------------------------------------------------------
# Hot-swap under multiprocess load
# ----------------------------------------------------------------------
def test_hot_swap_under_load_has_no_stale_or_failed_responses(workload):
    registry = ModelRegistry()
    registry.register("m", SlowModel(tag=1.0))
    config = ServingConfig(
        workers=2, max_batch=8, max_wait_us=500, cache_size=0, min_shard=1
    )
    results: list = []
    failures: list = []
    stop = threading.Event()

    with EstimationService(registry, config=config) as service:
        warm = service.estimate(workload[0], model="m")
        assert warm == 1.0

        def client():
            while not stop.is_set():
                try:
                    results.append(service.estimate(workload[0], model="m"))
                except BaseException as exc:  # noqa: BLE001 - recorded, fails test
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        service.swap("m", SlowModel(tag=2.0))
        # swap() returned => every worker has attached the new version;
        # anything submitted from here on must see the new model.
        post_swap = [service.estimate(workload[0], model="m") for _ in range(8)]
        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert not failures, failures
    assert results and set(results) <= {1.0, 2.0}
    assert post_swap == [2.0] * 8


def test_pool_refuses_unpicklable_and_surfaces_closed(workload):
    pool = WorkerPool(n_workers=1, name="edge")
    try:
        with pytest.raises(ServingError, match="picklable"):
            pool.publish(threading.Lock(), 1)
    finally:
        pool.close()
    with pytest.raises(ServingError, match="closed"):
        pool.estimate_batch(workload[:1])


def test_pool_serves_fast_refreshed_models_over_partitions():
    """Workers install fast-refreshed models (§7.6 partition stream).

    ``NeuroCard.update`` keeps the layout the weights were trained with
    while the snapshot grows, so a fanout vocabulary derived afresh from
    the new snapshot can be wider than the trained embedding. The pool
    ships the trained layout with the schema; every read after the first
    fast refresh must be answered by the worker.
    """
    schema = job_light_schema(ImdbScale(n_title=300, seed=0))
    snapshots, deltas = partition_stream(schema, 5)
    config = NeuroCardConfig(
        d_emb=8, d_ff=32, n_blocks=1, train_tuples=4_000, batch_size=256,
        progressive_samples=32, sampler_threads=1, seed=0,
    )
    model = NeuroCard(snapshots[0], config).fit()
    queries = job_light_ranges_queries(schema, n=8, seed=3)
    failed_after_fast = []
    with EstimationService(config=ServingConfig(workers=1)) as service:
        service.register("m", model)
        ingestor = StreamingIngestor(snapshots[0])
        refresher = service.serve_with_updates("m", ingestor)
        for delta in deltas[1:]:
            version = ingestor.ingest_many(delta)
            deadline = time.monotonic() + 120
            while not any(e.data_version == version for e in refresher.history):
                assert time.monotonic() < deadline, "ingest was never refreshed"
                time.sleep(0.01)
            if not any(e.strategy == "fast" for e in refresher.history):
                continue
            for i, query in enumerate(queries):
                try:
                    service.submit(query, seed=i).result(timeout=60)
                except Exception as exc:  # noqa: BLE001 - recorded, fails test
                    failed_after_fast.append(exc)
        events = list(refresher.history)
    assert any(e.strategy == "fast" for e in events)
    assert all(e.ok for e in events), [e.error for e in events]
    assert not failed_after_fast, failed_after_fast[:1]
