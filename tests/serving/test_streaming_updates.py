"""Streaming updates: ingest, drift monitoring, background refresh, torn reads."""

import threading
import time

import numpy as np
import pytest

from repro.core.estimator import NeuroCard
from repro.core.progressive import ProgressiveSampler
from repro.core.refresh import fast_refresh_budget
from repro.errors import DataError, ServingError
from repro.eval.harness import evaluate_estimator
from repro.joins.sampler import FullJoinSampler
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table
from repro.serving import (
    BackgroundRefresher,
    DriftMonitor,
    MicroBatchScheduler,
    ModelRegistry,
    RefreshPolicy,
    StreamingIngestor,
)
from tests.core.oracle import OracleModel
from tests.core.test_estimator import correlated_schema, small_config


def two_table_schema(child_rows):
    """R(id, year) <- C(rid, kind); child_rows = [(rid, kind), ...]."""
    root = Table.from_dict(
        "R", {"id": list(range(20)), "year": [1990 + (i % 8) for i in range(20)]}
    )
    child = Table.from_dict(
        "C", {"rid": [r[0] for r in child_rows], "kind": [r[1] for r in child_rows]}
    )
    return JoinSchema(
        tables={"R": root, "C": child},
        edges=[JoinEdge("R", "C", (("id", "rid"),))],
        root="R",
    )


BASE_CHILD_ROWS = [(i % 20, i % 4) for i in range(40)]


@pytest.fixture(scope="module")
def updatable():
    """A small trained estimator whose snapshot we append to (module-owned)."""
    schema = correlated_schema(n_root=60, seed=2)
    # Serve the first 70% of C2; the rest arrives later as appends.
    c2 = schema.table("C2")
    initial = schema.replace_table(c2.take(np.arange(int(c2.n_rows * 0.7))))
    config = small_config(
        train_tuples=3_000, sampler_threads=1, progressive_samples=32,
        d_ff=32, batch_size=256,
    )
    return schema, initial, NeuroCard(initial, config).fit()


def c2_suffix_batches(full_schema, initial_schema, n_batches=2):
    """The held-back C2 rows as append batches (dictionaries shared)."""
    c2 = full_schema.table("C2")
    start = initial_schema.table("C2").n_rows
    splits = np.array_split(np.arange(start, c2.n_rows), n_batches)
    return [c2.take(chunk) for chunk in splits if len(chunk)]


class TestStreamingIngestor:
    def test_versions_and_row_accounting(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        ingestor = StreamingIngestor(schema)
        assert ingestor.snapshot()[1] == 0
        v1 = ingestor.ingest_rows("C", {"rid": [1, 2], "kind": [0, 1]})
        v2 = ingestor.ingest_rows("C", {"rid": [3], "kind": [2]})
        assert (v1, v2) == (1, 2)
        snap, version = ingestor.snapshot()
        assert version == 2
        assert snap.table("C").n_rows == len(BASE_CHILD_ROWS) + 3
        stats = ingestor.stats()
        assert stats["rows_ingested"] == 3
        assert stats["batches_ingested"] == 2

    def test_snapshots_are_immutable_and_shared_dictionary(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        ingestor = StreamingIngestor(schema)
        before, _ = ingestor.snapshot()
        ingestor.ingest_rows("C", {"rid": [0], "kind": [3]})
        after, _ = ingestor.snapshot()
        assert before.table("C").n_rows == len(BASE_CHILD_ROWS)  # untouched
        assert np.array_equal(
            before.table("C").column("kind").dictionary,
            after.table("C").column("kind").dictionary,
        )

    def test_strict_mode_rejects_new_dictionary_values(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        ingestor = StreamingIngestor(schema)
        with pytest.raises(DataError, match="dictionaries"):
            ingestor.ingest_rows("C", {"rid": [0], "kind": [99]})
        # The failed batch must not have bumped the version.
        assert ingestor.snapshot()[1] == 0

    def test_non_strict_mode_grows_dictionaries(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        ingestor = StreamingIngestor(schema, strict_dictionaries=False)
        ingestor.ingest_rows("C", {"rid": [0], "kind": [99]})
        snap, _ = ingestor.snapshot()
        assert snap.table("C").column("kind").domain_size == 6  # 4 + new + NULL

    def test_multi_table_delta_is_one_version(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        ingestor = StreamingIngestor(schema)
        version = ingestor.ingest_many(
            {
                "R": Table.from_dict("R", {"id": [5], "year": [1994]}),
                "C": Table.from_dict("C", {"rid": [5, 5], "kind": [0, 1]}),
            }
        )
        assert version == 1
        with pytest.raises(DataError, match="empty"):
            ingestor.ingest_many({})


class TestAppendRebuildProperty:
    """Appends + rebuild must equal constructing from concatenated data."""

    def test_ingested_schema_equals_direct_construction(self):
        rng = np.random.default_rng(11)
        base_rows = [(int(r), int(k)) for r, k in
                     zip(rng.integers(0, 20, 30), rng.integers(0, 4, 30))]
        schema = two_table_schema(base_rows)
        # Appends draw from values already in the base dictionaries (the
        # strict shared-code-space contract).
        rids = sorted({r for r, _ in base_rows})
        kinds = sorted({k for _, k in base_rows})
        ingestor = StreamingIngestor(schema)
        appended = []
        for _ in range(4):
            batch = [(rids[int(i)], kinds[int(j)]) for i, j in
                     zip(rng.integers(0, len(rids), 7),
                         rng.integers(0, len(kinds), 7))]
            appended.extend(batch)
            ingestor.ingest_rows(
                "C", {"rid": [r for r, _ in batch], "kind": [k for _, k in batch]}
            )
        streamed, version = ingestor.snapshot()
        assert version == 4
        direct = two_table_schema(base_rows + appended)
        for tname in ("R", "C"):
            st, dt = streamed.table(tname), direct.table(tname)
            assert st.n_rows == dt.n_rows
            for col in st.column_names:
                assert np.array_equal(st.codes(col), dt.codes(col))
                assert np.array_equal(
                    st.column(col).dictionary, dt.column(col).dictionary
                )

    def test_for_snapshot_routing_matches_fresh_sampler(self):
        rng = np.random.default_rng(3)
        base_rows = [(int(r), int(k)) for r, k in
                     zip(rng.integers(0, 20, 25), rng.integers(0, 4, 25))]
        schema = two_table_schema(base_rows)
        sampler = FullJoinSampler(schema)
        ingestor = StreamingIngestor(schema)
        rids = sorted({r for r, _ in base_rows})
        kinds = sorted({k for _, k in base_rows})
        ingestor.ingest_rows(
            "C", {"rid": [rids[0], rids[2], rids[0]], "kind": kinds[:3]}
        )
        streamed, _ = ingestor.snapshot()

        routed = sampler.for_snapshot(streamed)
        fresh = FullJoinSampler(streamed)
        assert routed.full_join_size == fresh.full_join_size
        assert routed.specs == sampler.specs  # column universe preserved
        # Fragment routing state is identical to a from-scratch build...
        for table in routed.table_order:
            a_idx, a_cum = routed._descend[table]
            b_idx, b_cum = fresh._descend[table]
            assert np.array_equal(a_idx, b_idx)
            assert np.array_equal(a_cum, b_cum)
        # ...and so is everything downstream: sampled id matrices and the
        # assembled model-ready batches, bitwise under a pinned stream.
        rows_a = routed.sample_row_id_matrix(256, np.random.default_rng(5))
        rows_b = fresh.sample_row_id_matrix(256, np.random.default_rng(5))
        assert np.array_equal(rows_a, rows_b)
        batch_a = routed.assemble(routed.row_ids_as_dict(rows_a))
        batch_b = fresh.assemble(fresh.row_ids_as_dict(rows_b))
        for name in batch_a:
            assert np.array_equal(batch_a[name], batch_b[name])

    def test_verify_append_rejects_non_appends(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        sampler = FullJoinSampler(schema)
        shrunk = schema.replace_table(schema.table("C").take(np.arange(10)))
        with pytest.raises(DataError, match="shrank"):
            sampler.verify_append(shrunk)
        # Same row count but a mutated prefix row is not an append either.
        codes = schema.table("C").codes("kind").copy()
        codes[0] = (codes[0] % 4) + 1
        from repro.relational.column import Column

        mutated = schema.replace_table(
            Table(
                "C",
                [
                    schema.table("C").column("rid"),
                    Column("kind", codes, schema.table("C").column("kind").dictionary),
                ],
            )
        )
        with pytest.raises(DataError, match="mutated"):
            sampler.verify_append(mutated)

    def test_verify_append_counts_new_rows(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        sampler = FullJoinSampler(schema)
        ingestor = StreamingIngestor(schema)
        ingestor.ingest_rows("C", {"rid": [1, 1, 2], "kind": [0, 1, 2]})
        streamed, _ = ingestor.snapshot()
        assert sampler.verify_append(streamed) == {"R": 0, "C": 3}


class TestDriftMonitor:
    def test_no_drift_on_identical_snapshot(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        monitor = DriftMonitor(schema)
        report = monitor.observe(schema, 0)
        assert report.max_divergence == 0.0
        assert report.ingested_fraction == 0.0
        assert not report.is_stale

    def test_policy_triggers_exactly_at_drift_threshold(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        monitor = DriftMonitor(schema, columns=["C.kind"])
        ingestor = StreamingIngestor(schema)
        ingestor.ingest_rows("C", {"rid": [0] * 10, "kind": [3] * 10})
        snap, version = ingestor.snapshot()
        report = monitor.observe(snap, version)
        assert report.max_divergence > 0
        at = RefreshPolicy(
            drift_threshold=report.max_divergence, ingest_threshold=None
        )
        above = RefreshPolicy(
            drift_threshold=np.nextafter(report.max_divergence, 1.0),
            ingest_threshold=None,
        )
        assert at.decide(report) == "fast"        # inclusive: == threshold fires
        assert above.decide(report) == "none"     # epsilon above does not

    def test_policy_triggers_exactly_at_ingest_threshold(self):
        schema = two_table_schema(BASE_CHILD_ROWS)  # 20 + 40 = 60 baseline rows
        monitor = DriftMonitor(schema, columns=["C.kind"])
        ingestor = StreamingIngestor(schema)
        ingestor.ingest_rows("C", {"rid": [0] * 6, "kind": [0] * 6})  # 6/60 = 0.1
        report = monitor.observe(*ingestor.snapshot())
        assert report.ingested_fraction == pytest.approx(0.1)
        at = RefreshPolicy(drift_threshold=None, ingest_threshold=0.1)
        above = RefreshPolicy(drift_threshold=None, ingest_threshold=0.1 + 1e-9)
        assert at.decide(report) == "fast"
        assert above.decide(report) == "none"

    def test_severe_drift_escalates_to_retrain(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        monitor = DriftMonitor(schema, columns=["C.kind"])
        ingestor = StreamingIngestor(schema)
        ingestor.ingest_rows("C", {"rid": [0] * 200, "kind": [3] * 200})
        report = monitor.observe(*ingestor.snapshot())
        policy = RefreshPolicy(drift_threshold=0.05, retrain_drift_threshold=0.5)
        assert report.max_divergence >= 0.5
        assert policy.decide(report) == "retrain"

    def test_domain_growth_forces_retrain(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        monitor = DriftMonitor(schema, columns=["C.kind"])
        ingestor = StreamingIngestor(schema, strict_dictionaries=False)
        ingestor.ingest_rows("C", {"rid": [0], "kind": [42]})
        report = monitor.observe(*ingestor.snapshot())
        assert report.domains_changed
        assert RefreshPolicy().decide(report) == "retrain"

    def test_staleness_qerror_signal(self):
        schema = two_table_schema(BASE_CHILD_ROWS)
        monitor = DriftMonitor(schema)
        policy = RefreshPolicy(
            drift_threshold=None, ingest_threshold=None, qerror_threshold=5.0
        )
        # Degraded serving quality triggers even with NO new data ingested:
        # the refresh takes extra gradient steps on the current snapshot.
        for q in (2.0, 6.0, 8.0):
            monitor.record_qerror(q)
        report = monitor.observe(schema, 0)
        assert report.staleness_qerror == 6.0  # rolling median
        assert not report.is_stale
        assert policy.decide(report) == "fast"
        # Rebasing (a refresh) clears the staleness window.
        ingestor = StreamingIngestor(schema)
        ingestor.ingest_rows("C", {"rid": [0], "kind": [0]})
        monitor.rebase(*ingestor.snapshot())
        assert monitor.observe(*ingestor.snapshot()).staleness_qerror == 1.0


class TestNoTornReads:
    def test_swap_mid_stream_serves_only_pre_or_post_versions(self):
        """Every pinned-seed result is bitwise one of the two model versions.

        Uses the deterministic tabular oracle (batch-composition invariant),
        so pre/post expectations are exact and the check is bitwise.
        """
        old_schema = two_table_schema(BASE_CHILD_ROWS)
        ingestor = StreamingIngestor(old_schema)
        ingestor.ingest_rows(
            "C", {"rid": [1, 3, 5, 7, 9, 11] * 4, "kind": [0, 1, 2, 3] * 6}
        )
        new_schema, _ = ingestor.snapshot()

        def engine(schema):
            oracle = OracleModel(schema, factorization_bits=2, exclude=("R.id", "C.rid"))
            return ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)

        old_engine, new_engine = engine(old_schema), engine(new_schema)
        queries = [
            Query.make(["R", "C"], [Predicate("C", "kind", "=", k % 4)])
            for k in range(8)
        ]
        n_samples = 64
        expected = {}
        for i, q in enumerate(queries):
            expected[i] = (
                old_engine.estimate(q, n_samples=n_samples,
                                    rng=np.random.default_rng(i)),
                new_engine.estimate(q, n_samples=n_samples,
                                    rng=np.random.default_rng(i)),
            )

        holder = {"model": old_engine, "version": 0}
        with MicroBatchScheduler(
            lambda: (holder["model"], holder["version"]),
            max_batch=4, max_wait_us=200, cache_size=0, n_samples=n_samples,
        ) as scheduler:
            results = []
            stop = threading.Event()

            def swapper():
                while not stop.is_set():
                    # Atomic publication order: new model first, version
                    # second, exactly like ModelRegistry.swap under its lock.
                    holder["model"], holder["version"] = new_engine, 1
                    time.sleep(0.0005)
                    holder["model"], holder["version"] = old_engine, 0
                    time.sleep(0.0005)

            flipper = threading.Thread(target=swapper)
            flipper.start()
            try:
                for round_ in range(30):
                    futures = [
                        (i, scheduler.submit(q, seed=i))
                        for i, q in enumerate(queries)
                    ]
                    results.extend((i, f.result()) for i, f in futures)
            finally:
                stop.set()
                flipper.join()
        assert results
        for i, value in results:
            assert value in expected[i], (
                f"query {i} observed {value!r}, neither pre-swap "
                f"{expected[i][0]!r} nor post-swap {expected[i][1]!r}"
            )

    def test_ingest_while_serving_real_estimator(self, updatable):
        """Clients never see an error or a half-refreshed model under ingest."""
        full, initial, estimator = updatable
        registry = ModelRegistry()
        registry.register("live", estimator)
        ingestor = StreamingIngestor(initial)
        refresher = BackgroundRefresher(
            registry, "live", ingestor,
            policy=RefreshPolicy(
                drift_threshold=None, ingest_threshold=0.01,
                retrain_drift_threshold=2.0,  # always the fast strategy
            ),
            poll_interval=0.01,
        ).start()
        query = Query.make(["R", "C2"], [Predicate("C2", "score", "<=", 10)])
        failures = []
        stop = threading.Event()
        scheduler = MicroBatchScheduler(
            lambda: registry.get_with_version("live"),
            max_batch=8, max_wait_us=500, cache_size=0, n_samples=32,
        )

        def client(cid):
            try:
                i = 0
                while not stop.is_set():
                    value = scheduler.submit(query, seed=cid * 10_000 + i).result()
                    assert np.isfinite(value) and value >= 0.0
                    i += 1
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        clients = [threading.Thread(target=client, args=(c,)) for c in range(2)]
        for t in clients:
            t.start()
        try:
            for batch in c2_suffix_batches(full, initial, n_batches=2):
                version = ingestor.ingest(batch)
                deadline = time.monotonic() + 60
                while (
                    refresher.stats()["last_data_version"] < version
                    and refresher.last_error is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
        finally:
            stop.set()
            for t in clients:
                t.join()
            refresher.close()
            scheduler.close()
        assert not failures
        assert refresher.last_error is None
        served = registry.get("live")
        assert served.data_version == ingestor.version
        assert served.schema.table("C2").n_rows == full.table("C2").n_rows
        assert all(e.strategy == "fast" and e.ok for e in refresher.history)


class TestRefreshFailure:
    def test_failed_refresh_leaves_old_model_serving(self, updatable):
        _, initial, estimator = updatable
        registry = ModelRegistry()
        registry.register("live", estimator)
        before_version = registry.version("live")
        ingestor = StreamingIngestor(initial, strict_dictionaries=False)
        # New dictionary values make the fast (shared-vocabulary) strategy
        # impossible: update() must raise, and serving must be unaffected.
        ingestor.ingest_rows("C2", {"rid": [0], "score": [999_999]})
        refresher = BackgroundRefresher(registry, "live", ingestor)
        event = refresher.refresh_now("fast")
        assert not event.ok
        assert refresher.last_error is event.error
        assert registry.get("live") is estimator           # old object intact
        assert registry.version("live") == before_version  # no version bump
        # The poisoned version is not retried until new data arrives.
        assert refresher.poll_once() is None
        assert len(refresher.history) == 1

    def test_failed_swap_subscriber_fails_the_refresh_event(self, updatable):
        """A subscriber that cannot follow the swap (a pool publish, say)
        must not be reported as a successful refresh."""
        full, initial, estimator = updatable
        registry = ModelRegistry()
        registry.register("live", estimator)
        before_version = registry.version("live")
        seen = []

        def broken(name, est, version):
            raise RuntimeError("pool could not install")

        registry.subscribe(broken)
        registry.subscribe(lambda name, est, version: seen.append(version))
        ingestor = StreamingIngestor(initial)
        ingestor.ingest_many({"C2": c2_suffix_batches(full, initial, 1)[0]})
        refresher = BackgroundRefresher(registry, "live", ingestor)
        event = refresher.refresh_now("fast")
        assert not event.ok
        assert isinstance(event.error, ServingError)
        assert isinstance(event.error.__cause__, RuntimeError)
        assert refresher.stats()["failures"] == 1
        # The swap itself went through, and later subscribers still ran.
        assert registry.version("live") == before_version + 1
        assert seen == [before_version + 1]

    def test_unknown_model_and_strategy_rejected(self, updatable):
        _, initial, estimator = updatable
        registry = ModelRegistry()
        registry.register("live", estimator)
        ingestor = StreamingIngestor(initial)
        with pytest.raises(ServingError, match="unknown model"):
            BackgroundRefresher(registry, "nope", ingestor)
        refresher = BackgroundRefresher(registry, "live", ingestor)
        event = refresher.refresh_now("hourly")
        assert not event.ok and isinstance(event.error, ServingError)


class TestCacheInvalidationOnRefresh:
    def test_result_cache_invalidates_on_version_bump(self, updatable):
        full, initial, estimator = updatable
        registry = ModelRegistry()
        registry.register("live", estimator)
        ingestor = StreamingIngestor(initial)
        refresher = BackgroundRefresher(
            registry, "live", ingestor,
            policy=RefreshPolicy(retrain_drift_threshold=2.0),
        )
        query = Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)])
        with MicroBatchScheduler(
            lambda: registry.get_with_version("live"),
            max_batch=8, max_wait_us=200, cache_size=64, n_samples=32,
        ) as scheduler:
            first = scheduler.submit(query, seed=9).result()
            assert scheduler.submit(query, seed=9).result() == first
            assert scheduler.stats()["cache_hits"] == 1

            ingestor.ingest(c2_suffix_batches(full, initial, n_batches=1)[0])
            event = refresher.refresh_now("fast")
            assert event.ok and event.model_version == registry.version("live")

            batches_before = scheduler.stats()["batches"]
            refreshed = scheduler.submit(query, seed=9).result()
            stats = scheduler.stats()
            assert stats["cache_hits"] == 1            # not served from cache
            assert stats["batches"] == batches_before + 1
            assert np.isfinite(refreshed)


class TestThrottledRefresh:
    def test_throttled_update_weights_bitwise_equal(self, updatable):
        """The duty cycle paces wall time only: weights match unthrottled."""
        full, initial, estimator = updatable
        from repro.core.refresh import clone_estimator

        fast, slow = clone_estimator(estimator), clone_estimator(estimator)
        snapshot = initial.replace_table(full.table("C2"))
        fast.update(snapshot, train_tuples=512)
        slow.update(snapshot, train_tuples=512, throttle=0.5)
        for a, b in zip(fast.model.parameters(), slow.model.parameters()):
            assert np.array_equal(a.value, b.value)

    def test_invalid_throttle_rejected(self, updatable):
        full, initial, estimator = updatable
        from repro.core.refresh import clone_estimator
        from repro.errors import EstimationError

        clone = clone_estimator(estimator)
        snapshot = initial.replace_table(full.table("C2"))
        with pytest.raises(EstimationError, match="throttle"):
            clone.update(snapshot, train_tuples=512, throttle=0.0)
        with pytest.raises(EstimationError, match="throttle"):
            clone.update(snapshot, train_tuples=512, throttle=1.5)


class TestSchedulerFlusherDeath:
    def test_flusher_death_fails_pending_futures_with_cause(self):
        from tests.serving.conftest import FakeModel

        scheduler = MicroBatchScheduler(
            lambda: (FakeModel(tag=1.0), 0),
            max_batch=4, max_wait_us=50_000, cache_size=0,
        )
        boom = RuntimeError("flusher exploded")

        def dying_flush(batch):
            raise boom

        scheduler._flush = dying_flush
        future = scheduler.submit(Query.make(["R"], []))
        with pytest.raises(ServingError, match="flusher died"):
            future.result(timeout=5)
        try:
            future.result(timeout=5)
        except ServingError as exc:
            assert exc.__cause__ is boom  # SamplerError-style chaining
        # Later submits fail fast with the same chained diagnosis instead
        # of queueing forever behind a dead flusher.
        with pytest.raises(ServingError, match="flusher died"):
            scheduler.submit(Query.make(["R"], []))


class TestHarnessFirstFailure:
    def test_concurrent_eval_surfaces_first_underlying_exception(self):
        class ExplodingService:
            """submit() fails with an error naming the query index."""

            def submit(self, query):
                from concurrent.futures import Future

                future = Future()
                future.set_exception(ValueError(f"query {query.index} failed"))
                return future

        class FakeQuery:
            def __init__(self, index):
                self.index = index

        queries = [FakeQuery(i) for i in range(6)]
        with pytest.raises(ValueError, match="query 0 failed"):
            evaluate_estimator(
                "bad", ExplodingService(), queries, [1.0] * 6, concurrency=3
            )


class TestIncrementalFitEntryPoint:
    def test_update_fraction_budget_and_data_version(self, updatable):
        full, initial, estimator = updatable
        from repro.core.refresh import clone_estimator

        clone = clone_estimator(estimator)
        assert clone.data_version == estimator.data_version == 0
        seen_before = clone.train_result.tuples_seen
        budget = fast_refresh_budget(clone.config, 0.01)
        snapshot = initial.replace_table(full.table("C2"))
        clone.update(snapshot, fraction=0.01, data_version=7)
        assert clone.data_version == 7
        assert clone.train_result.tuples_seen - seen_before == pytest.approx(
            budget, abs=clone.config.batch_size
        )
        # The original serving estimator was never touched by the clone.
        assert estimator.data_version == 0
        assert estimator.schema.table("C2").n_rows == initial.table("C2").n_rows

    def test_update_without_budget_only_rebuilds(self, updatable):
        full, initial, estimator = updatable
        from repro.core.refresh import clone_estimator

        clone = clone_estimator(estimator)
        seen_before = clone.train_result.tuples_seen
        clone.update(initial.replace_table(full.table("C2")))
        assert clone.train_result.tuples_seen == seen_before  # no training
        assert clone.data_version == 1  # auto-bump
