"""Exact COUNT(*) ground truth from an in-memory SQLite copy of the tables.

Standalone on purpose: this module imports only the standard library, so the
counts it returns are computed apart from the program under test (no NumPy,
no ``repro``). The benchmark runs it as a child process::

    python3 perfbench/truth.py < request.json > counts.json

The request is one JSON object::

    {"tables": {"title": {"id": [0, 1, ...], "kind_id": [...]}, ...},
     "edges": [{"parent": "title", "child": "cast_info",
                "keys": [["id", "movie_id"]]}, ...],
     "inserts": [{"cast_info": {"movie_id": [...], ...}}, ...],
     "queries": [{"tables": [...], "filters": [{"table": ..., "column": ...,
                  "op": "<=", "value": ...}]}, ...]}

``inserts`` are applied in order after the initial load (one entry per
ingest), and every query in the wire format of ``repro.relational.dsl`` is
counted against the final contents. NULL is JSON ``null``; SQL semantics
then make NULL keys join nothing and NULL values match no filter, which is
the estimator's contract too. The response is ``{"counts": [int, ...]}``.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from typing import Dict, Iterable, List, Mapping, Sequence

#: Wire operators (after ``repro.relational.dsl`` normalisation) to SQL.
_SQL_OPS = {"=": "=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class SqliteTruth:
    """An in-memory SQLite database holding a join schema's rows."""

    def __init__(self, tables: Mapping[str, Mapping[str, Sequence]], edges: Iterable[Mapping]):
        self.db = sqlite3.connect(":memory:")
        self.edges = [
            (e["parent"], e["child"], [tuple(pair) for pair in e["keys"]]) for e in edges
        ]
        self.columns: Dict[str, List[str]] = {}
        for name, columns in tables.items():
            self.columns[name] = list(columns)
            cols = ", ".join(_ident(c) for c in columns)
            self.db.execute(f"CREATE TABLE {_ident(name)} ({cols})")
            self.insert(name, columns)
        for parent, child, keys in self.edges:
            for pcol, ccol in keys:
                for table, col in ((parent, pcol), (child, ccol)):
                    index = _ident(f"ix_{table}_{col}")
                    self.db.execute(
                        f"CREATE INDEX IF NOT EXISTS {index} ON {_ident(table)} ({_ident(col)})"
                    )

    def insert(self, name: str, columns: Mapping[str, Sequence]) -> None:
        """Append rows given column-wise (every column of the table)."""
        order = self.columns[name]
        if sorted(columns) != sorted(order):
            raise ValueError(f"insert into {name!r} must give columns {order}")
        rows = zip(*(columns[c] for c in order))
        marks = ", ".join("?" for _ in order)
        self.db.executemany(f"INSERT INTO {_ident(name)} VALUES ({marks})", rows)

    def sql(self, query: Mapping) -> tuple:
        """``(sql, params)`` counting ``query``'s equi-join under its filters."""
        tables = list(query["tables"])
        members = set(tables)
        where: List[str] = []
        params: List[object] = []
        for parent, child, keys in self.edges:
            if parent in members and child in members:
                for pcol, ccol in keys:
                    where.append(
                        f"{_ident(parent)}.{_ident(pcol)} = {_ident(child)}.{_ident(ccol)}"
                    )
        for flt in query.get("filters", ()):
            column = f"{_ident(flt['table'])}.{_ident(flt['column'])}"
            op = flt["op"]
            if op == "IN":
                values = list(flt["value"])
                if not values:
                    where.append("0")
                    continue
                where.append(f"{column} IN ({', '.join('?' for _ in values)})")
                params.extend(values)
            else:
                where.append(f"{column} {_SQL_OPS[op]} ?")
                params.append(flt["value"])
        sql = "SELECT COUNT(*) FROM " + ", ".join(_ident(t) for t in tables)
        if where:
            sql += " WHERE " + " AND ".join(where)
        return sql, params

    def count(self, query: Mapping) -> int:
        sql, params = self.sql(query)
        return int(self.db.execute(sql, params).fetchone()[0])

    def close(self) -> None:
        self.db.close()


def answer(request: Mapping) -> Dict[str, List[int]]:
    """Load, apply inserts, count every query: the child-process entry point."""
    truth = SqliteTruth(request["tables"], request["edges"])
    try:
        for batch in request.get("inserts", ()):
            for name, columns in batch.items():
                truth.insert(name, columns)
        return {"counts": [truth.count(q) for q in request["queries"]]}
    finally:
        truth.close()


if __name__ == "__main__":
    json.dump(answer(json.load(sys.stdin)), sys.stdout)
