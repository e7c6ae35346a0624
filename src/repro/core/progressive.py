"""Progressive-sampling inference with schema subsetting (paper §6).

Given the learned autoregressive distribution over the full outer join, a
query's cardinality is |J| · E[ 1{filters} · Π_{T∈Q} 1_T / Π_{R∉Q} F_R ]
(Eq. 9). The Monte Carlo integrator walks the model's column order, and for
each *constrained* column computes the conditional probability mass of the
valid region, multiplies it into the sample weight, and draws an in-region
value to condition subsequent columns. Unconstrained columns are wildcard-
skipped via the model's MASK tokens (never sampled).

Fanout downscaling is Rao-Blackwellized: each fanout column contributes the
exact conditional expectation Σ_f p(f|·)/f to the weight, and the value used
to condition later columns is drawn from the tilted distribution
q(f) ∝ p(f|·)/f, which keeps the estimator unbiased for Π 1/F.

Two serving paths share the per-column programs below:

- ``estimate`` walks one query at a time — the readable reference
  implementation and the correctness oracle for the batched engine;
- ``estimate_batch`` packs Q queries into one ``(Q · n_samples, n_cols)``
  token matrix and shares a single ``model.conditional`` forward pass per
  column across every query constraining it, gathering only the still-alive
  rows of participating queries.

Both resolve queries through :meth:`ProgressiveSampler.plan`, which caches
the table-set-dependent plan parts (indicator and fanout column sets) and
per-predicate region translations across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import Layout
from repro.core.factorization import Factorizer, IntervalState, SetTrie
from repro.core.regions import Region
from repro.errors import EstimationError, QueryError
from repro.relational.query import Query


#: Below this many sample rows *and* compared entries (rows x domain) the
#: inverse-CDF lookup compares each row against its whole CDF; above, the
#: fixed-step bisection wins. Crossover measured on fp32 CDFs, one core:
#: the bisection's ~log2(D) numpy dispatches cost more than one D-wide
#: compare pass for a few hundred rows (310-wide domain, 64 rows: 29 us
#: compare vs 59 us bisect), and less from about 1k rows or 64k entries
#: (256 rows: 98 vs 73 us; 16384 rows: 12.9 ms vs 0.84 ms).
_BISECT_MIN_ROWS = 1024
_BISECT_MIN_ENTRIES = 1 << 16


def _count_below(cum, idx, target):
    """``(cum[idx] < target[:, None]).sum(axis=1)``, computed exactly.

    ``idx`` maps each sample row to its CDF row of ``cum`` (``None``: one
    CDF row per sample row). A CDF row is a cumsum of non-negative values,
    so it is non-decreasing (a NaN or inf can only run on to its end), and
    the compare-count equals the row's lower-bound insertion point. Large
    calls find that point with a branchless fixed-step bisection over the
    flattened CDFs: ~log2(D) gathers per row instead of D compares, and no
    ``(rows, D)`` expansion.
    """
    n_rows, d = len(target), cum.shape[1]
    if n_rows < _BISECT_MIN_ROWS and n_rows * d < _BISECT_MIN_ENTRIES:
        rows = cum if idx is None else cum[idx]
        return (rows < target[:, None]).sum(axis=1)
    flat = cum.ravel()
    base = (np.arange(n_rows) if idx is None else idx) * d
    ptr = base.copy()
    # Invariant: the answer lies in [ptr - base, ptr - base + size].
    size = d
    while size > 1:
        half = size >> 1
        ptr += half * (flat[ptr + half] < target)
        size -= half
    return ptr - base + (flat[ptr] < target)


def _draw_interval(probs, lo, hi, u, idx=None):
    """In-interval mass and a sample from the renormalized conditional.

    ``u`` holds one uniform variate per sample row; callers draw them from
    the query's generator so row subsetting preserves the stream. ``idx``
    optionally maps each sample row to its row of ``probs``: sample rows
    that share a token prefix share one conditional, whose CDF is then
    built once and read through the map.
    """
    cum = np.cumsum(probs, axis=1)
    rows = np.arange(len(lo)) if idx is None else idx
    upper = cum[rows, hi]
    lower = np.where(lo > 0, cum[rows, np.maximum(lo - 1, 0)], 0.0)
    mass = np.maximum(upper - lower, 0.0)
    # Compare in the probs' own dtype: a no-op in the fp64 reference path,
    # and half the comparison traffic for fp32 compiled conditionals.
    target = (lower + u * mass).astype(probs.dtype, copy=False)
    drawn = _count_below(cum, idx, target)
    return mass, np.clip(drawn, lo, hi)


def _draw_set(probs, codes, u):
    """In-set mass and a sample among ``codes`` (shared across rows)."""
    sub = probs[:, codes]
    mass = sub.sum(axis=1)
    cums = np.cumsum(sub, axis=1)
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = (cums < target[:, None]).sum(axis=1)
    return mass, codes[np.minimum(idx, len(codes) - 1)]


def _draw_tilted(probs, tilt, u, idx=None):
    """Mass Σ p·tilt and a sample from q ∝ p·tilt (fanout downscaling).

    ``idx`` maps sample rows to rows of ``probs`` as in
    :func:`_draw_interval`; the mass and CDF are computed per ``probs`` row.
    """
    q = probs * tilt[None, :]
    mass = q.sum(axis=1)
    cums = np.cumsum(q, axis=1)
    if idx is not None:
        mass = mass[idx]
    target = (u * mass).astype(cums.dtype, copy=False)
    drawn = _count_below(cums, idx, target)
    return mass, np.minimum(drawn, probs.shape[1] - 1)


@dataclass(frozen=True)
class QueryPlan:
    """A query resolved against the layout: everything inference needs.

    ``regions`` maps constrained content-spec names to their valid regions,
    ``indicators`` and ``fanouts`` are the indicator/fanout spec names this
    query constrains. Plans are immutable and safe to cache/share.
    """

    regions: Tuple[Tuple[str, Region], ...]
    indicators: FrozenSet[str]
    fanouts: FrozenSet[str]

    @property
    def is_empty(self) -> bool:
        return any(region.is_empty for _, region in self.regions)

    def region_map(self) -> Dict[str, Region]:
        return dict(self.regions)

    def cache_key(self) -> tuple:
        """Hashable canonical form of this plan.

        Two queries with the same table set and the same per-column valid
        regions produce equal keys regardless of predicate spelling
        (``x >= 3 AND x >= 5`` vs ``x >= 5``), so serving-layer result
        caches can coalesce them. Set regions are keyed by their sorted
        code bytes; intervals by their inclusive bounds.
        """
        regions = tuple(
            (name, region.kind, region.lo, region.hi,
             None if region.codes is None else region.codes.tobytes())
            for name, region in self.regions
        )
        return (regions, self.indicators, self.fanouts)


# ----------------------------------------------------------------------
# Per-column programs. One op instance handles one (query, spec) pair and
# is stepped through the spec's model columns; ``live`` index arrays let
# the batched engine run the same program on a row subset.
# ----------------------------------------------------------------------


class _IntervalOp:
    """Range filter: per-subcolumn progressively-relaxed bounds (§5)."""

    needs_rng = True

    def __init__(self, factorizer: Factorizer, region: Region, n: int):
        if factorizer.is_factorized:
            self.state: Optional[IntervalState] = IntervalState(
                factorizer, region.lo, region.hi, n
            )
            self.lo = self.hi = None
        else:
            self.state = None
            self.lo = np.full(n, region.lo, dtype=np.int64)
            self.hi = np.full(n, region.hi, dtype=np.int64)

    def draw(self, k, probs, live, u):
        lo, hi = (self.lo, self.hi) if self.state is None else self.state.bounds(k)
        return _draw_interval(probs, lo[live], hi[live], u)

    def observe(self, k, live, drawn):
        if self.state is not None:
            self.state.observe(k, drawn, idx=live)


class _SetOp:
    """IN filter: explicit code set, walked through the trie if factorized."""

    needs_rng = True

    def __init__(
        self,
        factorizer: Factorizer,
        region: Region,
        n: int,
        trie: Optional[SetTrie] = None,
    ):
        if factorizer.is_factorized:
            self.trie: Optional[SetTrie] = (
                trie if trie is not None else SetTrie(factorizer, region.to_codes())
            )
            self.nodes = np.zeros(n, dtype=np.int64)
            self.codes = None
        else:
            self.trie = None
            self.codes = region.to_codes()

    def draw(self, k, probs, live, u):
        if self.trie is None:
            return _draw_set(probs, self.codes, u)
        mass = np.zeros(len(probs), dtype=np.float64)
        drawn = np.zeros(len(probs), dtype=np.int64)
        nodes = self.nodes[live]
        for node in np.unique(nodes):
            members = np.flatnonzero(nodes == node)
            codes = self.trie.codes_at(int(node), k)
            if len(codes) == 0:
                continue
            mass[members], drawn[members] = _draw_set(probs[members], codes, u[members])
        return mass, drawn

    def observe(self, k, live, drawn):
        if self.trie is not None:
            self.nodes[live] = self.trie.advance(self.nodes[live], drawn, k)


class _IndicatorOp:
    """Membership constraint: weight by p(in-table), pin the token to 1."""

    needs_rng = False

    def draw(self, k, probs, live, u):
        return probs[:, 1], np.ones(len(probs), dtype=np.int64)

    def observe(self, k, live, drawn):
        pass


class _FanoutOp:
    """Rao-Blackwellized 1/F downscaling for one omitted-table fanout."""

    needs_rng = True

    def __init__(self, reciprocals: np.ndarray):
        self.reciprocals = reciprocals

    def draw(self, k, probs, live, u):
        return _draw_tilted(probs, self.reciprocals, u)

    def observe(self, k, live, drawn):
        pass


def _content_op(
    factorizer: Factorizer, region: Region, n: int, trie: Optional[SetTrie] = None
):
    if region.kind == "interval":
        return _IntervalOp(factorizer, region, n)
    return _SetOp(factorizer, region, n, trie=trie)


class ProgressiveSampler:
    """Monte Carlo cardinality estimates over a trained density model.

    ``model`` only needs ``conditional(tokens, col, wildcard) -> (B, dom)``;
    tests exercise this class against an exact tabular oracle as well as the
    trained ResMADE.
    """

    #: Bound on cached per-predicate region translations before reset.
    REGION_CACHE_LIMIT = 4096

    def __init__(self, model, layout: Layout, full_join_size: float):
        self.model = model
        self.layout = layout
        self.full_join_size = float(full_join_size)
        # Resolve the per-column conditional once: compiled models and
        # ResMADE expose the sliced ``column_conditional`` fast path, duck-
        # typed oracles fall back to the full ``conditional``.
        self._column_conditional = (
            getattr(model, "column_conditional", None) or model.conditional
        )
        self._shape_cache: Dict[FrozenSet[str], Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self._region_cache: Dict[tuple, Region] = {}
        self._trie_cache: Dict[tuple, SetTrie] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Variance-adaptive bookkeeping: per-batch diagnostics of the most
        # recent adaptive run plus cumulative counters (see
        # :meth:`estimate_batch` and :meth:`adaptive_stats`).
        self.last_adaptive: Optional[Dict[str, np.ndarray]] = None
        self._adaptive_batches = 0
        self._adaptive_queries = 0
        self._adaptive_escalated = 0
        self._adaptive_samples_saved = 0

    # A sampler wraps an already-built model, so it is registrable at every
    # serving depth (ModelRegistry checks ``is_fitted``/``size_bytes``).
    @property
    def is_fitted(self) -> bool:
        return bool(getattr(self.model, "is_fitted", True))

    @property
    def size_bytes(self) -> int:
        return int(getattr(self.model, "size_bytes", 0) or 0)

    # ------------------------------------------------------------------
    # Query planning
    # ------------------------------------------------------------------
    def regions_for_query(self, query: Query) -> Dict[str, Region]:
        """Per-content-spec valid regions (predicates on one column intersect)."""
        regions: Dict[str, Region] = {}
        for pred in query.predicates:
            name = self.layout.content_spec_name(pred.table, pred.column)
            if name not in self.layout.spec_ranges:
                raise QueryError(
                    f"column {name} was excluded from the model; cannot filter on it"
                )
            region = self._predicate_region(pred)
            regions[name] = regions[name].intersect(region) if name in regions else region
        return regions

    def fanout_plan(self, query: Query) -> set:
        """Fanout spec names that downscale this query's omitted tables."""
        plan = set()
        for omitted, edge in self.layout.schema.fanout_edges_for_omitted(query.tables):
            name = self.layout.fanout_spec_name(omitted, edge)
            if name is not None:
                plan.add(name)
        return plan

    def _predicate_region(self, pred) -> Region:
        key = self._predicate_key(pred)
        if key is not None and key in self._region_cache:
            return self._region_cache[key]
        region = Region.from_predicate(
            pred.code_region(self.layout.schema.table(pred.table))
        )
        if key is not None:
            if len(self._region_cache) >= self.REGION_CACHE_LIMIT:
                self._region_cache.clear()
            self._region_cache[key] = region
        return region

    @staticmethod
    def _predicate_key(pred) -> Optional[tuple]:
        value = pred.value
        if isinstance(value, (list, set, frozenset)):
            value = tuple(value)
        key = (pred.table, pred.column, pred.op, value)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def _content_op_for(self, name: str, region: Region, n: int):
        """Column program for one content spec; set tries are cached.

        Trie construction walks the IN codes once per level, so repeated
        query shapes (same spec, same code set) reuse one immutable trie —
        the per-call state (drawn node ids) lives in the op, not the trie.
        """
        factorizer = self.layout.factorizers[name]
        trie = None
        if region.kind != "interval" and factorizer.is_factorized:
            codes = region.to_codes()
            key = (name, codes.tobytes())
            trie = self._trie_cache.get(key)
            if trie is None:
                if len(self._trie_cache) >= self.REGION_CACHE_LIMIT:
                    self._trie_cache.clear()
                trie = SetTrie(factorizer, codes)
                self._trie_cache[key] = trie
        return _content_op(factorizer, region, n, trie=trie)

    def plan(self, query: Query) -> QueryPlan:
        """Resolve ``query`` into a :class:`QueryPlan`, using the caches.

        The indicator/fanout sets depend only on the query's table subset
        and are cached per table set; per-predicate region translations are
        cached by (table, column, op, value).
        """
        tables_key = frozenset(query.tables)
        shape = self._shape_cache.get(tables_key)
        if shape is None:
            self.plan_cache_misses += 1
            indicators = frozenset(
                self.layout.indicator_spec_name(t) for t in query.tables
            )
            fanouts = frozenset(self.fanout_plan(query))
            shape = (indicators, fanouts)
            self._shape_cache[tables_key] = shape
        else:
            self.plan_cache_hits += 1
        regions = self.regions_for_query(query)
        return QueryPlan(
            regions=tuple(sorted(regions.items())),
            indicators=shape[0],
            fanouts=shape[1],
        )

    # ------------------------------------------------------------------
    # Sequential path (the batched engine's correctness oracle)
    # ------------------------------------------------------------------
    def estimate(
        self, query: Query, n_samples: int = 512, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Estimated COUNT(*) of ``query`` (non-negative float)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        query.validate(self.layout.schema)
        selectivity = self.estimate_selectivity(query, n_samples, rng)
        return selectivity * self.full_join_size

    def estimate_selectivity(
        self, query: Query, n_samples: int, rng: np.random.Generator
    ) -> float:
        """E[1{filters} Π 1_T / Π F] under the learned full-join distribution."""
        if n_samples < 1:
            raise EstimationError("need at least one progressive sample")
        plan = self.plan(query)
        if plan.is_empty:
            return 0.0
        regions = plan.region_map()

        n_cols = self.layout.n_columns
        tokens = np.zeros((n_samples, n_cols), dtype=np.int64)
        wildcard = np.ones((n_samples, n_cols), dtype=bool)
        weight = np.ones(n_samples, dtype=np.float64)
        alive = np.ones(n_samples, dtype=bool)
        all_rows = np.arange(n_samples)

        for spec in self.layout.specs:
            start, _end = self.layout.spec_ranges[spec.name]
            if spec.kind == "content":
                region = regions.get(spec.name)
                if region is None:
                    continue
                op = self._content_op_for(spec.name, region, n_samples)
                n_sub = self.layout.factorizers[spec.name].n_sub
            elif spec.kind == "indicator":
                if spec.name not in plan.indicators:
                    continue
                op, n_sub = _IndicatorOp(), 1
            else:  # fanout
                if spec.name not in plan.fanouts:
                    continue
                op, n_sub = _FanoutOp(
                    self.layout.fanout_encoders[spec.name].reciprocals
                ), 1
            for k in range(n_sub):
                col = start + k
                probs = self.model.conditional(tokens, col, wildcard)
                u = rng.random(n_samples) if op.needs_rng else None
                mass, drawn = op.draw(k, probs, all_rows, u)
                self._apply(tokens, wildcard, weight, alive, col, mass, drawn)
                op.observe(k, all_rows, drawn)
            if not alive.any():
                return 0.0
        return float(weight.mean())

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def estimate_batch(
        self,
        queries: Sequence[Query],
        n_samples: int = 512,
        rng: Optional[np.random.Generator] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        max_rel_var: Optional[float] = None,
        min_samples: Optional[int] = None,
    ) -> np.ndarray:
        """Estimated COUNT(*) for many queries in one packed pass.

        All queries share one ``(Q · n_samples, n_cols)`` token matrix and a
        single model forward pass per constrained column; estimates match a
        loop over :meth:`estimate` (given the same per-query generators in
        ``rngs``) because every query keeps its own uniform-variate stream.

        ``rngs`` pins one generator per query (used by the equivalence
        tests); by default independent streams are spawned from ``rng``.

        ``max_rel_var`` switches on **variance-adaptive sampling**: every
        query first runs a probe walk of ``min_samples`` rows (default
        ``max(16, n_samples // 8)``) on a spawned side-stream, and only the
        queries whose estimator's relative standard error —
        ``sqrt(Var(w)/k) / mean(w)`` over the probe weights ``w`` — exceeds
        the bound are escalated to a full ``n_samples`` walk. Converged
        queries stop consuming batch slots after the probe, and escalated
        queries run on their *untouched* per-query generators, so their
        results equal a fixed ``n_samples`` run exactly. Per-batch
        diagnostics land in :attr:`last_adaptive`; cumulative counters in
        :meth:`adaptive_stats`.
        """
        queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64)
        if n_samples < 1:
            raise EstimationError("need at least one progressive sample")
        if rngs is None:
            root = rng if rng is not None else np.random.default_rng(0)
            rngs = root.spawn(len(queries))
        elif len(rngs) != len(queries):
            raise EstimationError("need exactly one rng per query")
        plans = []
        for query in queries:
            query.validate(self.layout.schema)
            plans.append(self.plan(query))
        if max_rel_var is not None:
            selectivity = self._adaptive_batch(
                plans, n_samples, rngs, float(max_rel_var), min_samples
            )
        else:
            # Fixed runs clear the diagnostics: last_adaptive always
            # describes the most recent batch, never a stale adaptive one.
            self.last_adaptive = None
            selectivity = self._run_batch_weights(plans, n_samples, rngs).mean(axis=1)
        return selectivity * self.full_join_size

    def _adaptive_batch(
        self,
        plans: Sequence["QueryPlan"],
        n_samples: int,
        rngs: Sequence[np.random.Generator],
        max_rel_var: float,
        min_samples: Optional[int],
    ) -> np.ndarray:
        """Probe-then-escalate executor (see :meth:`estimate_batch`)."""
        if max_rel_var < 0:
            raise EstimationError("max_rel_var must be >= 0")
        n_probe = min_samples if min_samples is not None else max(16, n_samples // 8)
        if n_probe < 2:
            raise EstimationError("adaptive sampling needs min_samples >= 2")
        n_probe = min(int(n_probe), n_samples)
        # The probe consumes a spawned side-stream so each query's own
        # generator stays pristine: an escalated query replays the exact
        # walk a fixed n_samples run would, making escalated results
        # bitwise-reproducible against the non-adaptive path.
        probe_rngs = [r.spawn(1)[0] for r in rngs]
        w = self._run_batch_weights(plans, n_probe, probe_rngs)
        mean = w.mean(axis=1)
        # Sample variance of the per-row weights -> standard error of the
        # probe-mean estimator. All-zero weights (empty or fully pruned
        # queries) have zero variance and converge immediately.
        se = np.sqrt(w.var(axis=1, ddof=1) / n_probe)
        rel_se = np.divide(
            se, mean, out=np.zeros_like(mean), where=mean > 0.0
        )
        escalate = (rel_se > max_rel_var) & (n_probe < n_samples)
        estimates = mean
        if escalate.any():
            idx = np.flatnonzero(escalate)
            full = self._run_batch_weights(
                [plans[i] for i in idx], n_samples, [rngs[i] for i in idx]
            ).mean(axis=1)
            estimates = mean.copy()
            estimates[idx] = full
        n_effective = np.where(escalate, n_probe + n_samples, n_probe)
        self.last_adaptive = {
            "probe_samples": int(n_probe),
            "max_samples": int(n_samples),
            "rel_se": rel_se,
            "escalated": escalate,
            "n_effective": n_effective,
        }
        self._adaptive_batches += 1
        self._adaptive_queries += len(plans)
        self._adaptive_escalated += int(escalate.sum())
        self._adaptive_samples_saved += int(n_samples * len(plans) - n_effective.sum())
        return estimates

    def adaptive_stats(self) -> Dict[str, int]:
        """Cumulative variance-adaptive counters (all zero when unused).

        ``samples_saved`` compares against every query running a fixed
        ``n_samples`` walk — escalated queries *cost* an extra probe, so
        the counter can go negative on workloads that never converge.
        """
        return {
            "adaptive_batches": self._adaptive_batches,
            "adaptive_queries": self._adaptive_queries,
            "adaptive_escalated": self._adaptive_escalated,
            "adaptive_samples_saved": self._adaptive_samples_saved,
        }

    def _run_batch_weights(
        self,
        plans: Sequence[QueryPlan],
        n: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Per-row selectivity weights, ``(n_queries, n)``; row means are the
        per-plan selectivity estimates. Queries are rows ``qi*n:(qi+1)*n``."""
        n_queries = len(plans)
        n_cols = self.layout.n_columns
        tokens = np.zeros((n_queries * n, n_cols), dtype=np.int64)
        wildcard = np.ones((n_queries * n, n_cols), dtype=bool)
        weight = np.ones(n_queries * n, dtype=np.float64)
        alive = np.ones(n_queries * n, dtype=bool)
        slices = [slice(qi * n, (qi + 1) * n) for qi in range(n_queries)]
        regions = [plan.region_map() for plan in plans]

        active: List[int] = []
        for qi, plan in enumerate(plans):
            if plan.is_empty:
                weight[slices[qi]] = 0.0
                alive[slices[qi]] = False
            else:
                active.append(qi)

        # Prefix group ids: rows sharing (token, wildcard) history share a
        # group, so the shared forward pass only evaluates unique prefixes.
        # Maintained incrementally — one cheap 1-D unique per column —
        # instead of re-deduplicating full token rows.
        group = np.zeros(n_queries * n, dtype=np.int64)

        for spec in self.layout.specs:
            if not active:
                break
            start, _end = self.layout.spec_ranges[spec.name]
            if spec.kind == "content":
                parts = [qi for qi in active if spec.name in regions[qi]]
                if not parts:
                    continue
                ops = {
                    qi: self._content_op_for(spec.name, regions[qi][spec.name], n)
                    for qi in parts
                }
                n_sub = self.layout.factorizers[spec.name].n_sub
            elif spec.kind == "indicator":
                parts = [qi for qi in active if spec.name in plans[qi].indicators]
                if not parts:
                    continue
                ops = {qi: _IndicatorOp() for qi in parts}
                n_sub = 1
            else:  # fanout
                parts = [qi for qi in active if spec.name in plans[qi].fanouts]
                if not parts:
                    continue
                tilt = self.layout.fanout_encoders[spec.name].reciprocals
                ops = {qi: _FanoutOp(tilt) for qi in parts}
                n_sub = 1
            for k in range(n_sub):
                col = start + k
                self._batch_column(
                    col, k, parts, ops, slices,
                    tokens, wildcard, weight, alive, rngs, group,
                )
                # Fold the new column into the prefix groups (wildcard rows
                # of non-participating queries share one sentinel value).
                dom = self.layout.domains[col] + 1
                key = group * (dom + 1) + np.where(
                    wildcard[:, col], dom, tokens[:, col]
                )
                _, group = np.unique(key, return_inverse=True)
            active = [qi for qi in active if alive[slices[qi]].any()]
        return weight.reshape(n_queries, n)

    def _batch_column(
        self, col, k, parts, ops, slices, tokens, wildcard, weight, alive, rngs, group
    ) -> None:
        """One shared forward pass + per-query draw/apply for model column ``col``.

        ``group`` assigns rows with identical (token, wildcard) prefixes to
        the same id — mostly-wildcard prefixes repeat heavily across queries
        and samples, so the forward pass only evaluates one representative
        row per group and fans the conditionals back out.
        """
        live_local = {qi: np.flatnonzero(alive[slices[qi]]) for qi in parts}
        rows = np.concatenate(
            [slices[qi].start + live_local[qi] for qi in parts]
        )
        conditional = self._column_conditional
        probs = None
        if len(rows):
            _, first_local, inverse = np.unique(
                group[rows], return_index=True, return_inverse=True
            )
            if len(first_local) < len(rows):
                first = rows[first_local]
                probs = conditional(tokens[first], col, wildcard[first])[inverse]
            else:
                probs = conditional(tokens[rows], col, wildcard[rows])
        offset = 0
        for qi in parts:
            sl, live = slices[qi], live_local[qi]
            op = ops[qi]
            # Full-length uniform draw keeps the query's stream identical to
            # the sequential path regardless of how many rows are alive.
            u = rngs[qi].random(sl.stop - sl.start) if op.needs_rng else None
            if len(live) == 0:
                continue
            p = probs[offset : offset + len(live)]
            offset += len(live)
            mass_live, drawn_live = op.draw(
                k, p, live, u[live] if u is not None else None
            )
            mass = np.zeros(sl.stop - sl.start, dtype=np.float64)
            drawn = np.zeros(sl.stop - sl.start, dtype=np.int64)
            mass[live], drawn[live] = mass_live, drawn_live
            self._apply(
                tokens[sl], wildcard[sl], weight[sl], alive[sl], col, mass, drawn
            )
            op.observe(k, live, drawn_live)

    # ------------------------------------------------------------------
    @staticmethod
    def _apply(tokens, wildcard, weight, alive, col, mass, drawn):
        mass = np.clip(np.asarray(mass, dtype=np.float64), 0.0, None)
        weight *= np.where(alive, mass, 0.0)
        alive &= mass > 0
        tokens[:, col] = np.where(alive, drawn, 0)
        wildcard[:, col] = False
