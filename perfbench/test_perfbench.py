"""Self-tests for the benchmark's ground truth, sub-plans, percentiles and tracer."""

from __future__ import annotations

import itertools
import json
import math
import os

import pytest

from common import (
    MIN_P99_SAMPLES,
    Outcome,
    connected_subsets,
    latency_summary,
    plain_edges,
    qerror_summary,
    sqlite_counts,
    subplans,
)
from spans import Tracer, install
from truth import SqliteTruth

from repro.joins.executor import query_cardinality
from repro.relational.dsl import query_to_dict
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table

# Two tables, hand-sized so every count below can be checked by eye.
MOVIES = {
    "id": [1, 2, 3, 4],
    "code": ["P00009", "P00010", "P00100", None],
    "year": [1990, 2000, 2010, 2020],
}
ROLES = {
    "movie_id": [1, 1, 2, None, 3, 3, 3, 9],
    "kind": ["a", "b", "a", "a", "c", None, "b", "a"],
}


def tiny_schema() -> JoinSchema:
    return JoinSchema(
        tables={
            "movies": Table.from_dict("movies", MOVIES),
            "roles": Table.from_dict("roles", ROLES),
        },
        edges=[JoinEdge("movies", "roles", (("id", "movie_id"),))],
        root="movies",
    )


# (query, expected COUNT(*)) — NULL keys and values never match.
CASES = [
    (Query.make(["movies"]), 4),
    (Query.make(["roles"]), 8),
    # movie 1 x2, 2 x1, 3 x3; the NULL key and the dangling 9 join nothing.
    (Query.make(["movies", "roles"]), 6),
    # Zero-padded strings order like the numbers they pad: 9 < 10 < 100.
    (Query.make(["movies"], [Predicate("movies", "code", "<", "P00100")]), 2),
    (Query.make(["movies"], [Predicate("movies", "code", ">=", "P00010")]), 2),
    (Query.make(["movies", "roles"], [Predicate("movies", "code", "<=", "P00010")]), 3),
    (Query.make(["roles"], [Predicate("roles", "kind", "IN", ("a", "c"))]), 5),
    (
        Query.make(
            ["movies", "roles"],
            [Predicate("roles", "kind", "IN", ("b", "c")), Predicate("movies", "year", ">", 1990)],
        ),
        2,
    ),
    (Query.make(["movies", "roles"], [Predicate("roles", "kind", "=", "z")]), 0),
]


def test_sqlite_counts_hand_built_schema():
    schema = tiny_schema()
    truth = SqliteTruth({"movies": MOVIES, "roles": ROLES}, plain_edges(schema))
    try:
        for query, expected in CASES:
            assert truth.count(query_to_dict(query)) == expected, str(query)
    finally:
        truth.close()


def test_executor_agrees_with_the_hand_counts():
    schema = tiny_schema()
    for query, expected in CASES:
        assert query_cardinality(schema, query) == expected, str(query)


def test_child_process_counts_decoded_tables_and_inserts():
    """The benchmark's path: tables decoded from codes, counted in a child."""
    schema = tiny_schema()
    assert sqlite_counts(schema, [q for q, _ in CASES]) == [e for _, e in CASES]
    extra = Table.from_dict("roles", {"movie_id": [4, 4], "kind": ["a", None]})
    joined = Query.make(["movies", "roles"])
    assert sqlite_counts(schema, [joined], inserts=[{"roles": extra}]) == [8]


@pytest.mark.parametrize("k", range(5))
def test_star_subplans_are_the_connected_subsets(k):
    children = [f"c{i}" for i in range(k)]
    tables = ["hub"] + children
    edges = [("hub", c) for c in children]
    got = connected_subsets(tables, edges)
    assert len(got) == 2**k + k if k else len(got) == 1
    assert len(set(got)) == len(got)
    # Brute force: a subset is connected when it is one table, or holds the
    # hub (every edge of a star touches it).
    expected = {
        s
        for r in range(1, len(tables) + 1)
        for s in itertools.combinations(tables, r)
        if len(s) == 1 or "hub" in s
    }
    assert set(got) == expected


def test_chain_subplans_are_contiguous_runs():
    tables = ["a", "b", "c", "d"]
    got = connected_subsets(tables, [("a", "b"), ("b", "c"), ("c", "d")])
    assert len(got) == 4 * 5 // 2
    assert ("a", "c") not in got and ("b", "c", "d") in got


def test_subplans_carry_the_filters_of_their_tables():
    schema = tiny_schema()
    query = Query.make(
        ["movies", "roles"],
        [Predicate("movies", "year", ">", 1990), Predicate("roles", "kind", "=", "a")],
    )
    by_tables = {p.tables: p.predicates for p in subplans(query, schema)}
    assert set(by_tables) == {("movies",), ("roles",), ("movies", "roles")}
    assert by_tables[("movies",)] == (query.predicates[0],)
    assert by_tables[("roles",)] == (query.predicates[1],)
    assert by_tables[("movies", "roles")] == query.predicates


def test_no_p99_below_a_thousand_operations():
    few = latency_summary([float(i) for i in range(MIN_P99_SAMPLES - 1)])
    assert set(few) == {"latency_p50_ms"}
    enough = latency_summary([float(i) for i in range(MIN_P99_SAMPLES)])
    assert set(enough) == {"latency_p50_ms", "latency_p99_ms"}
    assert enough["latency_p99_ms"] == pytest.approx(989.01)


def test_a_run_without_samples_still_reports_and_fails():
    """No operation succeeded: the figures read nan, the JSON line still comes."""
    from run import END_TO_END, result_line
    from workloads import refresh_reads

    assert math.isnan(latency_summary([])["latency_p50_ms"])
    assert all(math.isnan(v) for v in qerror_summary([], []).values())
    during, rate, refresh_s = refresh_reads([], [(1.0, 2)], [(1.5, 2, 2)])
    assert (during, refresh_s) == ([], []) and rate == 0.0
    during, rate, refresh_s = refresh_reads([], [(1.0, 2)], [])  # never swapped
    assert (during, refresh_s) == ([], []) and math.isnan(rate)

    out = Outcome(attempted=7, failed=7)
    out.metrics["latency_p50_ms"] = latency_summary([])["latency_p50_ms"]

    def strict(constant):
        raise ValueError(f"not JSON: {constant}")

    line = json.loads(result_line(out, None), parse_constant=strict)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (7, 7)
    assert set(line["metrics"]) == set(END_TO_END)
    assert all(m["value"] is None for m in line["metrics"].values())


def test_tracer_records_only_when_enabled_and_restores_the_library():
    from repro.core.estimator import NeuroCard
    from repro.core.inference import CompiledEngine
    from repro.joins.counts import JoinCounts
    from repro.serving import registry

    from repro.serving.workers import WorkerPool

    originals = (JoinCounts.__init__, NeuroCard.update, registry.clone_estimator,
                 WorkerPool.submit_batch, WorkerPool.publish)
    had_estimate_batch = "estimate_batch" in CompiledEngine.__dict__
    tracer = install(Tracer())
    try:
        assert JoinCounts.__init__ is not originals[0]
        JoinCounts(tiny_schema())  # disabled: not recorded
        assert tracer.calls("joins.counts") == 0
        tracer.enabled = True
        JoinCounts(tiny_schema())
        assert tracer.calls("joins.counts") == 1
    finally:
        tracer.uninstall()
    assert (JoinCounts.__init__, NeuroCard.update, registry.clone_estimator,
            WorkerPool.submit_batch, WorkerPool.publish) == originals
    assert ("estimate_batch" in CompiledEngine.__dict__) == had_estimate_batch


def test_self_time_excludes_nested_spans():
    class Layer:
        def outer(self):
            self.inner()

        def inner(self):
            pass

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    tracer.enabled = True
    Layer().outer()
    tracer.uninstall()
    (outer_total, outer_self), = tracer.spans["outer"]
    (inner_total, _), = tracer.spans["inner"]
    assert outer_self == pytest.approx(outer_total - inner_total)


def test_reported_metrics_match_benchmark_json():
    from run import END_TO_END
    from spans import PER_LAYER

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
