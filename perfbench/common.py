"""Shared pieces of the benchmark: inputs, ground truth, checks, summaries.

Everything here is the benchmark's own code. It reaches the program only
through public calls (schema generators, ``Query``, the DSL encoder and the
exact executor used for the cross-check), and computes the ground truth in a
child process that never imports the program (``truth.py``).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NeuroCardConfig
from repro.eval.metrics import q_error
from repro.joins.counts import JoinCounts
from repro.joins.executor import query_cardinality
from repro.relational.dsl import query_to_dict
from repro.relational.query import Query
from repro.relational.schema import JoinSchema
from repro.relational.table import Table
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale

HERE = os.path.dirname(os.path.abspath(__file__))

#: Synthetic JOB-light scale: 1500 titles and ~23k child rows, small enough
#: that SQLite counts 1000 queries in about a second.
SCALE = ImdbScale(n_title=1500, seed=0)
#: Generator seed of the fixed JOB-light-ranges query set (the library's
#: default). The set is fixed so that q-errors move only with the program
#: and the inference draws, not with which 1000 queries were drawn.
RANGES_SEED = 2
N_RANGES = 1000
#: Every workload answers in batches/micro-batches of at most this size.
BATCH = 64
#: Complete program set-ups per run; ``setup_s`` is their median.
N_SETUPS = 3
#: Percentile rule: a p99 needs at least ten samples beyond it.
MIN_P99_SAMPLES = 1000


def neurocard_config() -> NeuroCardConfig:
    """The one model configuration every workload trains.

    Sized for a 2-core machine: about 4-5 s of training, yet at the q-error
    ordering the paper claims against the Postgres-style baseline.
    ``sampler_threads=1`` keeps training deterministic: a multi-worker
    sampler interleaves batches by timing, so weights and q-errors would
    change from run to run.
    """
    return NeuroCardConfig(
        d_emb=16,
        d_ff=64,
        n_blocks=1,
        factorization_bits=14,
        batch_size=512,
        train_tuples=120_000,
        learning_rate=1e-2,
        progressive_samples=256,
        sampler_threads=1,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS,
        seed=0,
    )


def make_schema() -> JoinSchema:
    return job_light_schema(SCALE)


def ranges_queries(schema: JoinSchema, counts: Optional[JoinCounts] = None,
                   seed: int = RANGES_SEED, n: int = N_RANGES) -> List[Query]:
    return job_light_ranges_queries(schema, n=n, seed=seed, counts=counts)


# ----------------------------------------------------------------------
# Ground truth: SQLite in a child process, cross-checked by the executor
# ----------------------------------------------------------------------
def plain_columns(table: Table) -> Dict[str, list]:
    """Column-wise Python values of a table (None for NULL).

    ``tolist`` turns NumPy scalars into Python ints and strs; handed to
    SQLite as NumPy scalars they would be stored as blobs.
    """
    out = {}
    for name in table.column_names:
        column = table.column(name)
        codes = column.codes
        values = np.empty(len(codes), dtype=object)
        present = codes > 0
        if present.any():
            values[present] = column.dictionary[codes[present] - 1].tolist()
        out[name] = values.tolist()
    return out


def plain_edges(schema: JoinSchema) -> List[dict]:
    return [
        {"parent": e.parent, "child": e.child, "keys": [list(k) for k in e.keys]}
        for e in schema.edges
    ]


def sqlite_counts(
    schema: JoinSchema,
    queries: Sequence[Query],
    inserts: Sequence[Mapping[str, Table]] = (),
) -> List[int]:
    """Exact counts of ``queries`` from a SQLite copy of ``schema``'s tables.

    ``inserts`` are appended in order first (one mapping per ingest). Runs
    ``truth.py`` in a child process, so the program's memory and code stay
    out of the count and the count stays out of the program's peak memory.
    """
    request = {
        "tables": {n: plain_columns(t) for n, t in schema.tables.items()},
        "edges": plain_edges(schema),
        "inserts": [
            {name: plain_columns(t) for name, t in batch.items()} for batch in inserts
        ],
        "queries": [query_to_dict(q) for q in queries],
    }
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "truth.py")],
        input=json.dumps(request).encode(),
        capture_output=True,
        timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"truth.py failed: {done.stderr.decode()[-2000:]}")
    counts = json.loads(done.stdout)["counts"]
    if len(counts) != len(queries):
        raise RuntimeError("truth.py returned the wrong number of counts")
    return counts


def executor_mismatches(
    schema: JoinSchema, queries: Sequence[Query], truths: Sequence[int]
) -> int:
    """Queries on which ``joins.executor.query_cardinality`` disagrees."""
    counts = JoinCounts(schema)
    return sum(
        query_cardinality(schema, q, counts) != t for q, t in zip(queries, truths)
    )


# ----------------------------------------------------------------------
# Sub-plans
# ----------------------------------------------------------------------
def connected_subsets(
    tables: Sequence[str], edges: Sequence[Tuple[str, str]]
) -> List[Tuple[str, ...]]:
    """Every non-empty subset of ``tables`` that ``edges`` connect.

    Ordered by size, then by position in ``tables``. A star with ``k``
    children yields ``2**k + k`` subsets: the centre with any subset of its
    children, plus each child alone.
    """
    tables = list(tables)
    adjacent = {t: set() for t in tables}
    for a, b in edges:
        if a in adjacent and b in adjacent:
            adjacent[a].add(b)
            adjacent[b].add(a)
    out = []
    for size in range(1, len(tables) + 1):
        for subset in itertools.combinations(tables, size):
            members = set(subset)
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                node = frontier.pop()
                for nxt in adjacent[node] & members - seen:
                    seen.add(nxt)
                    frontier.append(nxt)
            if seen == members:
                out.append(subset)
    return out


def subplans(query: Query, schema: JoinSchema) -> List[Query]:
    """The optimizer's view of ``query``: each connected sub-join with the
    query's filters on the sub-join's tables (the full query included)."""
    edges = [(e.parent, e.child) for e in schema.edges]
    return [
        Query.make(subset, [p for p in query.predicates if p.table in subset])
        for subset in connected_subsets(query.tables, edges)
    ]


def plan_key(query: Query) -> str:
    """Canonical text of a query, equal for equal sub-plans."""
    doc = query_to_dict(query)
    doc.pop("name", None)
    doc["tables"] = sorted(doc["tables"])
    doc["filters"] = sorted(json.dumps(f, sort_keys=True) for f in doc["filters"])
    return json.dumps(doc, sort_keys=True)


def stable_seed(*parts) -> int:
    """A 31-bit seed from the parts' text (stable across processes)."""
    return zlib.crc32(repr(parts).encode()) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """Median always; the 99th percentile only with >= 1000 samples.

    With fewer, fewer than ten samples lie beyond the 99th percentile and
    it would describe single outliers, not a tail. No samples read nan.
    """
    arr = np.asarray(samples_ms, dtype=np.float64)
    out = {"latency_p50_ms": median(arr)}
    if arr.size >= MIN_P99_SAMPLES:
        out["latency_p99_ms"] = float(np.percentile(arr, 99))
    return out


def median(values) -> float:
    """The median, or nan when nothing was measured."""
    return float(np.median(values)) if len(values) else math.nan


def qerror_summary(estimates: Sequence[float], truths: Sequence[float]) -> Dict[str, float]:
    """q-error quantiles; nan when no estimate is given."""
    errors = np.array([q_error(e, t) for e, t in zip(estimates, truths)])
    if not errors.size:
        return {"qerror_p50": math.nan, "qerror_p95": math.nan, "qerror_p99": math.nan}
    p50, p95, p99 = np.quantile(errors, [0.5, 0.95, 0.99])
    return {"qerror_p50": float(p50), "qerror_p95": float(p95), "qerror_p99": float(p99)}


def valid_estimate(value) -> bool:
    """An answer counts as failed when it is not a finite, non-negative number."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and value >= 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live child process (``VmHWM``), nan if unknown."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return math.nan


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Measured figures that are not gated (printed as report lines).
    extra: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(self.checks.get(name, True) and ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())
