"""The subplans-http load generator: a process of its own, two closed loops.

Runs in a child process so that the clients' JSON and socket work never
competes with the server for one interpreter lock: the server process holds
the program, this one holds the optimizer. Two threads, each with its own
keep-alive :class:`~repro.serving.HttpEstimationClient` (``max_retries=0``,
so no failure is hidden), take requests from one shared stream: rounds, each
a seeded permutation of the planned queries. One warm-up round runs first;
then rounds run until ``seconds`` have passed, stopping at a round boundary.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np


def drive(host: str, port: int, model: str, requests: List[List[dict]],
          seeds: List[List[int]], stream_seed: int, seconds: float,
          n_clients: int, conn) -> None:
    """Send the stream; report every request through ``conn`` at the end.

    ``requests[q]`` holds query ``q``'s sub-plans as wire documents and
    ``seeds[q]`` their pinned seeds. Each report row is ``(number, q,
    warm, latency_ms, estimates, tiers, error)``; sub-plans of request
    ``number`` are named ``r{number}/{k}`` so the server side can tell
    requests apart.
    """
    from repro.relational.dsl import query_from_dict
    from repro.serving import HttpEstimationClient

    parsed = [[query_from_dict(doc) for doc in docs] for docs in requests]
    rng = np.random.default_rng(stream_seed)
    lock = threading.Lock()
    state = {"next": 0, "deadline": None, "order": None}
    rows: list = []
    n_queries = len(requests)

    def take() -> Optional[tuple]:
        with lock:
            number = state["next"]
            pos = number % n_queries
            if pos == 0:
                if number == n_queries:  # warm-up done: the clock starts
                    state["deadline"] = time.perf_counter() + seconds
                elif number > n_queries and time.perf_counter() >= state["deadline"]:
                    return None
                state["order"] = rng.permutation(n_queries)
            state["next"] = number + 1
            return number, int(state["order"][pos])

    def client_loop() -> None:
        client = HttpEstimationClient(host, port, model, max_retries=0, timeout=60.0)
        try:
            while True:
                job = take()
                if job is None:
                    return
                number, q = job
                batch = [
                    type(sub)(sub.tables, sub.predicates, f"r{number}/{k}")
                    for k, sub in enumerate(parsed[q])
                ]
                start = time.perf_counter()
                try:
                    answer = client.estimate_batch(batch, seeds=seeds[q])
                    row = (number, q, number < n_queries, start,
                           (time.perf_counter() - start) * 1e3,
                           [float(v) for v in answer], list(client.last_tier or []), None)
                except Exception as exc:  # noqa: BLE001 - reported as failed
                    row = (number, q, number < n_queries, start,
                           (time.perf_counter() - start) * 1e3, [], [], repr(exc))
                with lock:
                    rows.append(row)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    conn.send(rows)
    conn.close()
