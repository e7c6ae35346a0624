"""Draws from deduplicated conditionals: exact against expanded rows.

The compiled engine evaluates one conditional per distinct token prefix
and hands the draw helpers a row -> conditional index map instead of an
expanded ``(rows, D)`` array. The CDF (and a tilted draw's mass) is built
once per distinct conditional, and each sample row finds its inverse-CDF
index by a bisection over the flattened CDFs once a call is large enough.
Both must be bitwise-equal to drawing from explicitly expanded rows with
the plain compare-count, at either dtype, on both sides of the method
switch, and through every hand-off of the batched walk.
"""

import numpy as np
import pytest

from repro.core import inference
from repro.core.estimator import NeuroCard
from repro.core.inference import CompiledEngine, build_engine
from repro.core.progressive import (
    _BISECT_MIN_ROWS,
    _draw_interval,
    _draw_tilted,
)
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from tests.core.test_estimator import correlated_schema, small_config

DTYPES = [np.float32, np.float64]
DOMAINS = [1, 2, 5, 64, 310]
# One call below the bisection switch, one above it.
ROW_COUNTS = [40, _BISECT_MIN_ROWS + 300]


def conditionals(rng, n_distinct, d, dtype):
    """Normalized rows with zero-probability runs (CDF ties) and a
    zero-mass row."""
    p = rng.random((n_distinct, d))
    p[rng.random((n_distinct, d)) < 0.3] = 0.0
    p[:, d // 3 : d // 3 + max(d // 4, 1)] = 0.0
    p[0] = 0.0
    total = p.sum(axis=1, keepdims=True)
    p = np.divide(p, total, out=np.zeros_like(p), where=total > 0)
    return p.astype(dtype)


def uniforms(rng, n):
    u = rng.random(n)
    u[::7] = 0.0
    u[3::7] = np.nextafter(1.0, 0.0)
    return u


def index_map(rng, n_rows, n_distinct):
    idx = rng.integers(0, n_distinct, n_rows)
    idx[:n_distinct] = np.arange(n_distinct)[: n_rows]  # every row used
    idx[::11] = 0  # the zero-mass conditional recurs
    return idx


def reference_interval(probs, lo, hi, u):
    """The expanded-row draw: one CDF per sample row, compare-count."""
    cum = np.cumsum(probs, axis=1)
    rows = np.arange(len(probs))
    upper = cum[rows, hi]
    lower = np.where(lo > 0, cum[rows, np.maximum(lo - 1, 0)], 0.0)
    mass = np.maximum(upper - lower, 0.0)
    target = (lower + u * mass).astype(probs.dtype, copy=False)
    drawn = (cum < target[:, None]).sum(axis=1)
    return mass, np.clip(drawn, lo, hi)


def reference_tilted(probs, tilt, u):
    q = probs * tilt[None, :]
    mass = q.sum(axis=1)
    cums = np.cumsum(q, axis=1)
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = (cums < target[:, None]).sum(axis=1)
    return mass, np.minimum(idx, probs.shape[1] - 1)


def assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestDrawHelpers:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", DOMAINS)
    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_interval_map_equals_expanded_rows(self, dtype, d, n_rows):
        rng = np.random.default_rng(d * 1000 + n_rows)
        n_distinct = max(n_rows // 6, 2)
        probs = conditionals(rng, n_distinct, d, dtype)
        idx = index_map(rng, n_rows, n_distinct)
        lo = rng.integers(0, d, n_rows)
        hi = np.maximum(lo, rng.integers(0, d, n_rows))
        lo[::5] = 0
        hi[::3] = d - 1
        u = uniforms(rng, n_rows)
        expanded = probs[idx]
        want = reference_interval(expanded, lo, hi, u)
        assert_bitwise(_draw_interval(probs, lo, hi, u, idx), want)
        assert_bitwise(_draw_interval(expanded, lo, hi, u), want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", DOMAINS)
    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_tilted_map_equals_expanded_rows(self, dtype, d, n_rows):
        rng = np.random.default_rng(d * 1000 + n_rows + 1)
        n_distinct = max(n_rows // 6, 2)
        probs = conditionals(rng, n_distinct, d, dtype)
        idx = index_map(rng, n_rows, n_distinct)
        tilt = 1.0 / np.arange(1, d + 1, dtype=np.float64)
        tilt[0] = 0.0  # the fanout-0 slot carries no mass
        u = uniforms(rng, n_rows)
        expanded = probs[idx]
        want = reference_tilted(expanded, tilt, u)
        assert_bitwise(_draw_tilted(probs, tilt, u, idx), want)
        assert_bitwise(_draw_tilted(expanded, tilt, u), want)

    def test_draws_land_on_the_conditional_support(self):
        """Bisection picks the first entry whose CDF reaches the target,
        so tied (zero-probability) entries are never drawn."""
        rng = np.random.default_rng(9)
        probs = conditionals(rng, 50, 64, np.float64)[1:]  # positive mass
        idx = rng.integers(0, len(probs), _BISECT_MIN_ROWS + 1)
        lo = np.zeros(len(idx), dtype=np.int64)
        hi = np.full(len(idx), 63)
        _, drawn = _draw_interval(probs, lo, hi, rng.random(len(idx)), idx)
        assert (probs[idx, drawn] > 0).all()


# ----------------------------------------------------------------------
# The batched walk: every hand-off of conditionals to the draws
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def factorized():
    """A trained model over 2-bit subcolumns: more walk steps per query."""
    schema = correlated_schema(n_root=120, seed=1)
    config = small_config(
        train_tuples=6_000, sampler_threads=1, progressive_samples=64,
        factorization_bits=2,
    )
    return NeuroCard(schema, config).fit()


def run(engine, queries, n, seed=40):
    return engine.estimate_batch(
        queries, n_samples=n,
        rngs=[np.random.default_rng(seed + i) for i in range(len(queries))],
    )


def walk_spy(monkeypatch):
    """Record ``(col, took_tail, dedup_on)`` as each column step starts."""
    seen = []
    original = CompiledEngine._compiled_column

    def spy(self, col, *args):
        state = args[-1]
        tail = state.get("tail")
        seen.append((col, tail is not None and tail[0] == col, state["dedup"]))
        return original(self, col, *args)

    monkeypatch.setattr(CompiledEngine, "_compiled_column", spy)
    return seen


def sharing_spy(monkeypatch):
    """Record ``(distinct conditionals, sample rows)`` per interval draw."""
    seen = []
    original = inference._draw_interval

    def spy(probs, lo, hi, u, idx=None):
        seen.append((len(probs), len(lo)))
        return original(probs, lo, hi, u, idx)

    monkeypatch.setattr(inference, "_draw_interval", spy)
    return seen


def expand_draws(monkeypatch):
    """Make the engine draw from explicitly expanded ``probs[idx]`` rows."""
    for name in ("_draw_interval", "_draw_tilted"):
        original = getattr(inference, name)

        def expanded(probs, *args, _original=original):
            *head, idx = args
            return _original(probs if idx is None else probs[idx], *head)

        monkeypatch.setattr(inference, name, expanded)


def fp32_map_equals_expanded(estimator, queries, n):
    engine = estimator.inference
    got = run(engine, queries, n)
    with pytest.MonkeyPatch.context() as mp:
        expand_draws(mp)
        want = run(engine, queries, n)
    np.testing.assert_array_equal(got, want)


def fp64_equals_off(estimator, queries, n):
    J = estimator.counts.full_join_size
    off = build_engine(estimator.model, estimator.layout, J, "off")
    fp64 = build_engine(estimator.model, estimator.layout, J, "fp64")
    np.testing.assert_array_equal(run(off, queries, n), run(fp64, queries, n))


def sharing_batch():
    """Repeated equality/IN shapes: most rows share a prefix."""
    shapes = [
        Query.make(["R"], [Predicate("R", "year", "=", 1995)]),
        Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
        Query.make(["R", "C2"], [Predicate("C2", "score", "<", 12),
                                 Predicate("R", "year", "=", 1993)]),
        Query.make(["R", "C1"], [Predicate("R", "year", "IN", (1991, 1996))]),
    ]
    return shapes * 6


def tail_batch():
    """Queries omitting C1 or C2: their fanout columns follow the indicator
    run and read its shared pass; C1-joined queries skip the first one."""
    return [
        Query.make(["R"], [Predicate("R", "year", ">=", 1994)]),
        Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 2)]),
        Query.make(["R", "C2"], [Predicate("C2", "score", "<=", 20)]),
        Query.make(["R", "C1", "C2"], [Predicate("R", "year", "<", 1996)]),
        Query.make(["C1"], [Predicate("C1", "kind", "IN", (0, 1))]),
        Query.make(["R", "C1"], []),
    ]


@pytest.fixture(scope="module")
def wide():
    """A trained model that keeps the 200-value ``R.id`` column."""
    schema = correlated_schema(n_root=200, seed=1)
    config = small_config(
        train_tuples=4_000, sampler_threads=1, progressive_samples=64,
        exclude_columns=("C1.rid", "C2.rid"),
    )
    return NeuroCard(schema, config).fit()


def divergent_batch():
    """Ranges on ``R.id``: prefixes turn almost all distinct by the
    ``C2.score`` step, which switches deduplication off. Both fanout
    columns run afterwards, the first reading the indicator run's pass,
    the second a plain per-row forward."""
    joined = [
        Query.make(["R", "C2"], [Predicate("R", "id", ">=", 10 * i),
                                 Predicate("R", "year", "<=", 1996 + i),
                                 Predicate("C2", "score", ">=", i)])
        for i in range(3)
    ]
    alone = [
        Query.make(["R"], [Predicate("R", "id", "<=", 150 + 10 * i)])
        for i in range(3)
    ]
    return joined + alone


class TestEngineHandOffs:
    def test_heavy_prefix_sharing(self, factorized, monkeypatch):
        queries = sharing_batch()
        seen = sharing_spy(monkeypatch)
        fp64_equals_off(factorized, queries, 48)
        assert any(n_probs < n_rows for n_probs, n_rows in seen)
        fp32_map_equals_expanded(factorized, queries, 48)

    def test_indicator_run_tail_hand_off(self, factorized, monkeypatch):
        queries = tail_batch()
        fp64_equals_off(factorized, queries, 64)
        seen = walk_spy(monkeypatch)
        fp32_map_equals_expanded(factorized, queries, 64)
        assert any(took_tail for _, took_tail, _ in seen)

    def test_dedup_switches_off_mid_walk(self, wide, monkeypatch):
        queries = divergent_batch()
        fp64_equals_off(wide, queries, 32)
        seen = walk_spy(monkeypatch)
        fp32_map_equals_expanded(wide, queries, 32)
        # Deduplicated for the first steps, then off for the tail hand-off
        # and for a plain forward after it.
        assert seen[0][2] and seen[1][2]
        after = [(took_tail, dedup) for _, took_tail, dedup in seen if not dedup]
        assert (True, False) in after and (False, False) in after
