"""Reference q-errors of the classical estimators on ranges-batch's queries.

Prints the q-error quantiles of the Postgres-style, per-table and IBJS
baselines on the fixed JOB-light-ranges set, against the same SQLite truth
the benchmark uses. IBJS keeps every sampled row at this scale (no cap is
reached), so it is exact and its row checks the truth itself. Run from the
repository root::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from common import make_schema, qerror_summary, ranges_queries, sqlite_counts

    from repro.baselines import IBJSEstimator, PostgresEstimator
    from repro.baselines.per_table import PerTableStatsEstimator
    from repro.joins.counts import JoinCounts

    schema = make_schema()
    counts = JoinCounts(schema)
    queries = ranges_queries(schema, counts)
    truths = sqlite_counts(schema, queries)
    baselines = {
        "postgres": PostgresEstimator(schema),
        "per_table": PerTableStatsEstimator(schema, counts),
        "ibjs": IBJSEstimator(schema, counts, max_samples=10**7, seed=0),
    }
    for name, estimator in baselines.items():
        summary = qerror_summary([estimator.estimate(q) for q in queries], truths)
        print(name, " ".join(f"{k}={v:.4g}" for k, v in summary.items()))


if __name__ == "__main__":
    main()
