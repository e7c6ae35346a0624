"""Compiled inference engine: the plan-specialized serving executor.

:class:`~repro.core.progressive.ProgressiveSampler` is the readable
reference implementation (and correctness oracle) of batched progressive
sampling — PR 1's engine, kept byte-for-byte. :class:`CompiledEngine` is
its compiled twin: the same Monte Carlo walk, re-executed with everything
that is constant per query plan hoisted out of the hot loop:

* model forwards run through :class:`~repro.nn.compiled.CompiledResMADE`
  kernels (embedding-folded LUTs, degree-sorted prefix-sliced blocks,
  sliced output heads, fp32 scratch reuse) via an incremental
  :class:`~repro.nn.compiled.FoldSession`: each finalized column is folded
  into a running pre-activation buffer exactly once per walk instead of
  being re-gathered on every later forward pass;
* per-query draw loops are vectorized per op class — all queries
  filtering a column by intervals share one cumulative-sum/draw pass over
  their concatenated rows (same for fanout tilts and indicators; IN-set
  walks keep the per-query trie state) — and the post-draw weight/token
  bookkeeping lands in one gather/scatter pass over the participating
  slices instead of one Python iteration per query;
* draws run on the distinct prefixes: the network evaluates one
  conditional per distinct token prefix, and the draw helpers take that
  ``(distinct, D)`` array plus a row -> conditional index map. Each CDF
  (and each tilted mass) is built once per distinct prefix, and each
  sample row finds its inverse-CDF index through the map — by a
  fixed-step bisection on large calls — so no ``(rows, D)`` expansion
  is ever made.

Every per-row quantity (conditional mass, drawn token, weight update) is
computed by the same formulas on the same values as the reference loop,
so the restructure is exact: in ``"fp64"`` mode (reference forward under
the compiled executor) results are **bitwise-equal** to
``ProgressiveSampler.estimate_batch``, which the tests and the
``bench_compiled_inference`` CI gate pin. ``"fp32"`` mode swaps in the
compiled kernels for the speed (estimates within 1e-4 relative).

Modes (``NeuroCardConfig.compiled_inference``):

``"off"``
    The reference engine, unchanged.
``"fp32"``
    Compiled executor + compiled fp32 kernels — the serving fast path.
``"fp64"``
    Oracle mode: compiled executor, reference forward — bitwise-equal to
    ``"off"`` by construction; pins that the executor adds zero drift.

Plan pre-compilation (:func:`precompile_plan`) seeds the kernel's
wildcard-constant cache with every pattern a resolved
:class:`~repro.core.progressive.QueryPlan` will present, so registered
workloads pay pattern assembly before traffic arrives. Compiled state is
derived from the weights: never persisted (snapshot artifacts carry only
the raw parameters plus the configured modes), and dropped via
:func:`invalidate_compiled` whenever weights change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.progressive import (
    ProgressiveSampler,
    QueryPlan,
    _draw_interval,
    _draw_tilted,
    _FanoutOp,
    _IndicatorOp,
    _IntervalOp,
)
from repro.errors import EstimationError
from repro.nn.compiled import CompiledResMADE, supports_compilation

#: Recognized values for ``NeuroCardConfig.compiled_inference``.
INFERENCE_MODES = ("off", "fp32", "fp64")

#: Recognized values for ``NeuroCardConfig.quantization``.
QUANTIZATION_MODES = ("off", "int16", "int8")

def _compress(key: np.ndarray) -> np.ndarray:
    """``np.unique(key, return_inverse=True)[1]`` without the sort.

    Ranks each key by value via a presence-count prefix sum, which yields
    exactly the inverse array ``np.unique`` produces (ids ordered by key
    value) in O(n + span) — the group-id maintenance of the batched walk
    is called once per model column, so this is hot. Falls back to the
    sort when the value span dwarfs the array (counting would scan more
    memory than sorting touches).
    """
    kmin = int(key.min())
    span = int(key.max()) - kmin + 1
    if span > max(4 * len(key), 1 << 15):
        return np.unique(key, return_inverse=True)[1]
    shifted = key - kmin
    rank = np.cumsum(np.bincount(shifted, minlength=span) > 0) - 1
    return rank[shifted]


def _first_and_inverse(ids: np.ndarray):
    """First-occurrence indices + inverse for already-compressed group ids.

    Equivalent to ``np.unique(ids, return_index=True, return_inverse=True)``
    (ids are dense ranks, so value order == sorted order) without sorting.
    """
    span = int(ids.max()) + 1
    rank = np.cumsum(np.bincount(ids, minlength=span) > 0) - 1
    inverse = rank[ids]
    first = np.empty(int(rank[-1]) + 1, dtype=np.int64)
    first[inverse[::-1]] = np.arange(len(ids) - 1, -1, -1)
    return first, inverse


class CompiledEngine(ProgressiveSampler):
    """Plan-specialized batched executor (see module docstring).

    The sequential :meth:`~ProgressiveSampler.estimate` path is inherited
    unchanged (it runs through the compiled model's stateless kernel);
    only the batched walk is re-executed here.
    """

    def __init__(
        self,
        model,
        layout,
        full_join_size: float,
        mode: str = "fp32",
        quantization: str = "off",
    ):
        if mode not in ("fp32", "fp64"):
            raise EstimationError(
                f"CompiledEngine mode must be 'fp32' or 'fp64', got {mode!r}"
            )
        if quantization != "off" and mode != "fp32":
            raise EstimationError(
                "quantized kernels require the fp32 compiled engine "
                f"(got mode={mode!r})"
            )
        if not isinstance(model, CompiledResMADE):
            if mode == "fp32":
                # Raises for non-ResMADE models: fp32 needs real kernels.
                model = CompiledResMADE(model, mode="fp32", quantization=quantization)
            elif supports_compilation(model):
                model = CompiledResMADE(model, mode="fp64")
            # else: duck-typed oracle model under the fp64 executor — used
            # by the tests to pin the executor against the reference loop.
        self.mode = mode
        super().__init__(model, layout, full_join_size)

    # ------------------------------------------------------------------
    def _run_batch_weights(
        self,
        plans: Sequence[QueryPlan],
        n: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """The reference ``_run_batch_weights`` walk with a kernel fold
        session and the vectorized column step below. Structure
        intentionally mirrors :meth:`ProgressiveSampler._run_batch_weights`
        line by line."""
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

        session = (
            self.model.begin_session(tokens, wildcard)
            if self.mode == "fp32" and isinstance(self.model, CompiledResMADE)
            else None
        )
        group = np.zeros(n_queries * n, dtype=np.int64)
        # Adaptive prefix dedup (fp32 only): duplicates across rows can only
        # shrink as the walk conditions on more columns, so once a column
        # sees almost no sharing the group bookkeeping is pure overhead —
        # stop probing and run the kernels on the raw live rows. The fp64
        # oracle mode keeps the reference behavior bit for bit.
        state = {"dedup": True}

        specs = self.layout.specs
        i = 0
        while i < len(specs):
            if not active:
                break
            spec = specs[i]
            if session is not None and spec.kind == "indicator":
                j = i
                while j < len(specs) and specs[j].kind == "indicator":
                    j += 1
                if j - i > 1:
                    # The first processed column after the run also has a
                    # fully deterministic prefix (indicator tokens follow
                    # membership, skipped columns stay MASK) — its head can
                    # ride the same blocks pass.
                    tail_col = None
                    for later in specs[j:]:
                        if later.kind == "content":
                            hit = any(later.name in regions[qi] for qi in active)
                        elif later.kind == "indicator":
                            hit = any(
                                later.name in plans[qi].indicators for qi in active
                            )
                        else:
                            hit = any(
                                later.name in plans[qi].fanouts for qi in active
                            )
                        if hit:
                            tail_col = self.layout.spec_ranges[later.name][0]
                            break
                    group, active = self._indicator_run(
                        specs[i:j], plans, active, slices, tokens, wildcard,
                        weight, alive, group, session, state, n, n_queries,
                        tail_col,
                    )
                    i = j
                    continue
            start, _end = self.layout.spec_ranges[spec.name]
            i += 1
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
                self._compiled_column(
                    col, k, parts, ops, slices,
                    tokens, wildcard, weight, alive, rngs, group, session, state,
                )
                group = self._fold_group(group, col, tokens, wildcard, session, state)
            any_alive = alive.reshape(n_queries, n).any(axis=1)
            active = [qi for qi in active if any_alive[qi]]
        return weight.reshape(n_queries, n)

    def _fold_group(self, group, col, tokens, wildcard, session, state):
        """Refine prefix-group ids with one more finalized column.

        The column's token values are rank-compressed first (usually only a
        handful of distinct values were drawn), which keeps the combined
        key span small enough for the counting relabel; ranking preserves
        value order, so the resulting ids match the reference's
        ``np.unique`` relabel exactly.
        """
        if session is not None and not state["dedup"]:
            return group
        dom = self.layout.domains[col]
        tok = _compress(np.where(wildcard[:, col], dom, tokens[:, col]))
        key = group * (int(tok.max()) + 1) + tok
        return _compress(key)

    def _indicator_run(
        self, run, plans, active, slices, tokens, wildcard, weight, alive,
        group, session, state, n, n_queries, tail_col=None,
    ):
        """Consecutive indicator columns: one blocks pass serves them all.

        Indicator draws are deterministic — a participating row's token is
        pinned to 1 (or the row is dead and its token/weight are zeroed
        regardless of the conditional) and a non-participating row stays
        MASK — so every column of the run can be folded into the session
        buffer *before* its conditional is evaluated, and a single compiled
        blocks pass at the widest prefix yields all run conditionals via
        per-column output heads. Rows that die mid-run read garbage
        conditionals afterwards, but every consumer multiplies them by
        ``where(alive, ·, 0)``, so the results match the column-at-a-time
        walk (fp32 path only; the fp64 oracle keeps the reference loop).
        """
        layout = self.layout
        cols = [layout.spec_ranges[s.name][0] for s in run]
        parts_per = [
            [qi for qi in active if s.name in plans[qi].indicators] for s in run
        ]
        session.ensure_folded(cols[0])
        # Pre-fold the run columns with their (deterministic) post-draw
        # ids: 1 inside participating slices, MASK elsewhere. With a tail
        # column riding the pass, the last run column (and the skipped
        # all-MASK columns up to the tail) pre-fold too.
        prefold = cols if tail_col is not None else cols[:-1]
        for col, parts in zip(prefold, parts_per):
            if parts:
                session.fold_slices(col, [slices[qi] for qi in parts], 1)
            else:
                session.folded = max(session.folded, col + 1)
        head_cols = list(cols)
        if tail_col is not None:
            session.folded = max(session.folded, tail_col)
            head_cols.append(tail_col)

        union = np.flatnonzero(alive)
        probs_per = None
        inverse = None
        if len(union):
            if state["dedup"]:
                # Rows may share a token prefix across queries, but their
                # indicator columns depend on which tables the row's query
                # joins — extend the dedup key with that membership pattern.
                pattern = np.zeros(n_queries, dtype=np.int64)
                for bit, parts in enumerate(parts_per):
                    for qi in parts:
                        pattern[qi] |= 1 << bit
                pattern = _compress(pattern)
                key = group[union] * (int(pattern.max()) + 1) + pattern[union // n]
                first, inverse = _first_and_inverse(_compress(key))
                reps = union[first]
                if len(first) == len(union):
                    inverse = None
                    reps = union
            else:
                reps = union
            probs_per = session.probs_multi(reps, head_cols)
            if tail_col is not None:
                state["tail"] = (tail_col, union, inverse, probs_per[-1])

        for col, parts, probs_u in zip(cols, parts_per, probs_per or [None] * len(cols)):
            if not parts:
                continue
            all_live = np.flatnonzero(alive)
            bounds = np.searchsorted(
                all_live,
                [b for qi in parts for b in (slices[qi].start, slices[qi].stop)],
            )
            taking, apply_rows_parts, mass_parts = [], [], []
            for idx, qi in enumerate(parts):
                seg = all_live[bounds[2 * idx] : bounds[2 * idx + 1]]
                if not len(seg):
                    continue
                pos = np.searchsorted(union, seg)
                at = inverse[pos] if inverse is not None else pos
                taking.append(qi)
                apply_rows_parts.append((seg - slices[qi].start, probs_u[at, 1]))
            if taking:
                apply_rows = np.concatenate(
                    [np.arange(slices[qi].start, slices[qi].stop) for qi in taking]
                )
                mass_full = np.zeros(len(apply_rows), dtype=np.float64)
                drawn_full = np.zeros(len(apply_rows), dtype=np.int64)
                for j, (live, mass) in enumerate(apply_rows_parts):
                    mass_full[j * n + live] = mass
                    drawn_full[j * n + live] = 1
                mass_full = np.clip(mass_full, 0.0, None)
                w = weight[apply_rows]
                a = alive[apply_rows]
                w *= np.where(a, mass_full, 0.0)
                a &= mass_full > 0
                weight[apply_rows] = w
                alive[apply_rows] = a
                tokens[apply_rows, col] = np.where(a, drawn_full, 0)
                wildcard[apply_rows, col] = False
            group = self._fold_group(group, col, tokens, wildcard, session, state)
            any_alive = alive.reshape(n_queries, n).any(axis=1)
            active = [qi for qi in active if any_alive[qi]]
            if not active:
                break
        return group, active

    # ------------------------------------------------------------------
    def _compiled_column(
        self, col, k, parts, ops, slices, tokens, wildcard, weight, alive,
        rngs, group, session, state,
    ) -> None:
        """One column step: shared forward + per-op-class vectorized draws.

        Row-wise math is identical to ``ProgressiveSampler._batch_column``
        (same conditionals, same uniform streams, same update formulas);
        only the looping is restructured, so ``fp64`` mode is bitwise-equal
        to the reference.
        """
        n = slices[0].stop - slices[0].start
        # One global scan for the live rows, split per query afterwards —
        # equivalent to a flatnonzero per participating slice.
        all_live = np.flatnonzero(alive)
        bounds = np.searchsorted(
            all_live, [b for qi in parts for b in (slices[qi].start, slices[qi].stop)]
        )
        live_local, segments = {}, []
        for i, qi in enumerate(parts):
            seg = all_live[bounds[2 * i] : bounds[2 * i + 1]]
            segments.append(seg)
            live_local[qi] = seg - slices[qi].start
        rows = np.concatenate(segments)

        # ``probs`` holds one conditional per distinct prefix; ``idx`` maps
        # each entry of ``rows`` to its conditional (None: one per row, in
        # order). The draws read through the map, never expanding it.
        probs, idx = None, None
        tail = state.pop("tail", None)
        if tail is not None and tail[0] == col and len(rows):
            # This column's conditionals were produced by the preceding
            # indicator run's shared blocks pass; map our live rows into it.
            _, t_union, t_inverse, t_probs = tail
            pos = np.searchsorted(t_union, rows)
            if t_inverse is None:
                probs = t_probs[pos]
            else:
                used = t_inverse[pos]
                first_local, idx = _first_and_inverse(used)
                # The run's pass covered every live row; keep the
                # conditionals this column reads.
                probs = t_probs if len(first_local) == len(t_probs) else (
                    t_probs[used[first_local]]
                )
        elif len(rows) and session is not None and not state["dedup"]:
            probs = session.probs(rows, col)
        elif len(rows):
            first_local, inverse = _first_and_inverse(group[rows])
            if session is not None and len(first_local) > 0.9 * len(rows):
                state["dedup"] = False
            fwd = rows
            if len(first_local) < len(rows):
                fwd, idx = rows[first_local], inverse
            if session is not None:
                probs = session.probs(fwd, col)
            else:
                probs = self._column_conditional(tokens[fwd], col, wildcard[fwd])

        # Per-query uniform draws, full length, in parts order — the exact
        # stream consumption of the reference loop (and the sequential
        # path), regardless of how many rows are still alive.
        us = {
            qi: (rngs[qi].random(n) if ops[qi].needs_rng else None) for qi in parts
        }

        # Segment offsets of each query's live rows inside ``rows``/``probs``.
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(seg) for seg in segments], out=offsets[1:])
        mass_all = np.zeros(len(rows), dtype=np.float64)
        drawn_all = np.zeros(len(rows), dtype=np.int64)

        interval, fanout, indicator, rest = [], [], [], []
        for pi, qi in enumerate(parts):
            if len(live_local[qi]) == 0:
                continue
            op = ops[qi]
            if isinstance(op, _IntervalOp):
                interval.append(pi)
            elif isinstance(op, _FanoutOp):
                fanout.append(pi)
            elif isinstance(op, _IndicatorOp):
                indicator.append(pi)
            else:
                rest.append(pi)

        n_nonzero = sum(1 for qi in parts if len(live_local[qi]))

        def positions(group_list):
            # Homogeneous column (every query runs the same op class, the
            # common case): address all rows with a no-copy slice.
            if len(group_list) == n_nonzero:
                return slice(None)
            return np.concatenate(
                [np.arange(offsets[pi], offsets[pi + 1]) for pi in group_list]
            )

        def gathered_u(group_list):
            return np.concatenate(
                [us[parts[pi]][live_local[parts[pi]]] for pi in group_list]
            )

        def conditionals(pos):
            # (conditionals, map) for the sample rows at ``pos``.
            return (probs, idx[pos]) if idx is not None else (probs[pos], None)

        if interval:
            pos = positions(interval)
            bounds = [self._interval_bounds(ops, parts, live_local, pi, k)
                      for pi in interval]
            lo = np.concatenate([b[0] for b in bounds])
            hi = np.concatenate([b[1] for b in bounds])
            p, m = conditionals(pos)
            mass_all[pos], drawn_all[pos] = _draw_interval(
                p, lo, hi, gathered_u(interval), m
            )
        if fanout:
            pos = positions(fanout)
            tilt = ops[parts[fanout[0]]].reciprocals
            p, m = conditionals(pos)
            mass_all[pos], drawn_all[pos] = _draw_tilted(
                p, tilt, gathered_u(fanout), m
            )
        if indicator:
            pos = positions(indicator)
            p, m = conditionals(pos)
            mass_all[pos] = p[:, 1] if m is None else p[m, 1]
            drawn_all[pos] = 1
        for pi in rest:  # IN-set ops: per-query trie state
            qi = parts[pi]
            seg = slice(offsets[pi], offsets[pi + 1])
            u = us[qi]
            p, m = conditionals(seg)
            mass_all[seg], drawn_all[seg] = ops[qi].draw(
                k, p if m is None else p[m], live_local[qi],
                u[live_local[qi]] if u is not None else None,
            )

        # One gather/scatter pass applies every participating query's
        # update (the reference applies per query; values are identical).
        taking = [pi for pi in range(len(parts)) if len(live_local[parts[pi]])]
        if not taking:
            return
        apply_rows = np.concatenate(
            [np.arange(slices[parts[pi]].start, slices[parts[pi]].stop)
             for pi in taking]
        )
        mass_full = np.zeros(len(apply_rows), dtype=np.float64)
        drawn_full = np.zeros(len(apply_rows), dtype=np.int64)
        # mass_all/drawn_all are ordered by parts segments, so one scatter
        # places every query's live values (empty segments contribute none).
        at_all = np.concatenate(
            [j * n + live_local[parts[pi]] for j, pi in enumerate(taking)]
        )
        mass_full[at_all] = mass_all
        drawn_full[at_all] = drawn_all
        mass_full = np.clip(mass_full, 0.0, None)
        w = weight[apply_rows]
        a = alive[apply_rows]
        w *= np.where(a, mass_full, 0.0)
        a &= mass_full > 0
        weight[apply_rows] = w
        alive[apply_rows] = a
        tokens[apply_rows, col] = np.where(a, drawn_full, 0)
        wildcard[apply_rows, col] = False

        for pi in taking:
            qi = parts[pi]
            seg = slice(offsets[pi], offsets[pi + 1])
            ops[qi].observe(k, live_local[qi], drawn_all[seg])

    @staticmethod
    def _interval_bounds(ops, parts, live_local, pi, k):
        qi = parts[pi]
        op = ops[qi]
        lo, hi = (op.lo, op.hi) if op.state is None else op.state.bounds(k)
        live = live_local[qi]
        return lo[live], hi[live]


# ----------------------------------------------------------------------
# Engine assembly helpers
# ----------------------------------------------------------------------
def build_engine(
    model, layout, full_join_size: float, mode: str = "fp32",
    quantization: str = "off",
) -> ProgressiveSampler:
    """A progressive-sampling engine over ``model`` in the given mode.

    ``quantization`` ("off"/"int16"/"int8") selects the compiled kernels'
    weight precision and is only valid with ``mode="fp32"`` — the reference
    and fp64 oracle engines stay full-precision by design.
    """
    if mode not in INFERENCE_MODES:
        raise EstimationError(
            f"unknown inference mode {mode!r}; expected one of {INFERENCE_MODES}"
        )
    if quantization not in QUANTIZATION_MODES:
        raise EstimationError(
            f"unknown quantization {quantization!r}; "
            f"expected one of {QUANTIZATION_MODES}"
        )
    if mode == "off":
        if quantization != "off":
            raise EstimationError(
                "quantized kernels require the compiled fp32 engine "
                "(mode='fp32'); the reference engine stays full-precision"
            )
        return ProgressiveSampler(model, layout, full_join_size)
    return CompiledEngine(
        model, layout, full_join_size, mode=mode, quantization=quantization
    )


def measure_quantization_drift(
    engine: ProgressiveSampler,
    queries,
    *,
    n_samples: int,
    seed: int = 0,
) -> np.ndarray:
    """Per-query relative drift of a quantized engine vs its fp64 oracle.

    Runs the same pinned-seed batched walk twice — once through the
    engine's (quantized) kernels, once through a throwaway fp64 oracle
    engine over the same wrapped weights — and returns
    ``|est_q - est_oracle| / max(est_oracle, 1)`` per query. The summary is
    recorded on the compiled model (:meth:`CompiledResMADE.record_drift`)
    so it surfaces through ``stats()`` and the serving ``/metrics`` page.
    """
    compiled = compiled_model(engine)
    if compiled is None or compiled.quantization == "off":
        raise EstimationError("drift measurement needs a quantized engine")
    oracle = CompiledEngine(
        compiled.reference, engine.layout, engine.full_join_size, mode="fp64"
    )
    queries = list(queries)
    rngs = [np.random.default_rng(seed + i) for i in range(len(queries))]
    est_q = engine.estimate_batch(queries, n_samples=n_samples, rngs=rngs)
    rngs = [np.random.default_rng(seed + i) for i in range(len(queries))]
    est_o = oracle.estimate_batch(queries, n_samples=n_samples, rngs=rngs)
    rel = np.abs(est_q - est_o) / np.maximum(np.abs(est_o), 1.0)
    compiled.record_drift(rel)
    return rel


def compiled_model(engine: ProgressiveSampler) -> Optional[CompiledResMADE]:
    """The engine's compiled wrapper, or None for reference engines."""
    model = getattr(engine, "model", None)
    return model if isinstance(model, CompiledResMADE) else None


def compiled_size_bytes(engine: Optional[ProgressiveSampler]) -> int:
    """Bytes held by the engine's compiled buffers (0 if uncompiled)."""
    compiled = None if engine is None else compiled_model(engine)
    return 0 if compiled is None else compiled.size_bytes


def invalidate_compiled(engine: Optional[ProgressiveSampler]) -> None:
    """Drop compiled state so the next call refolds the current weights."""
    compiled = None if engine is None else compiled_model(engine)
    if compiled is not None:
        compiled.invalidate()


def export_engine_state(engine: ProgressiveSampler) -> dict:
    """The engine's deterministic compiled buffers as ``name -> array``.

    Empty for reference engines and for the fp64 oracle mode (neither
    holds compiled buffers); otherwise folds first if needed. Used by the
    serving worker pool to publish one shared-memory copy of the kernels.
    """
    compiled = compiled_model(engine)
    if compiled is None or compiled.mode == "fp64":
        return {}
    return compiled.export_state()


def attach_engine_state(engine: ProgressiveSampler, arrays: dict) -> None:
    """Install buffers from :func:`export_engine_state` into the engine.

    The engine's compiled kernel adopts the (typically shared-memory-
    backed, read-only) buffers without refolding from the weights; no-op
    when ``arrays`` is empty. Raises for engines that cannot hold compiled
    state — attaching fp32 buffers to a reference engine would silently
    serve nothing.
    """
    if not arrays:
        return
    compiled = compiled_model(engine)
    if compiled is None:
        raise EstimationError(
            "cannot attach compiled buffers to a reference engine "
            "(build it with mode='fp32')"
        )
    compiled.attach_state(arrays)


def precompile_plan(engine: ProgressiveSampler, plan: QueryPlan) -> int:
    """Seed the compiled wildcard-constant cache for one resolved plan.

    Mirrors the batched engine's column walk exactly: for every model
    column the plan constrains, the wildcard pattern the stateless kernel
    would be presented at that step is registered with the compiled model.
    Returns the number of newly seeded patterns (0 on reference/oracle
    engines).
    """
    compiled = compiled_model(engine)
    if compiled is None or compiled.mode == "fp64":
        return 0
    layout = engine.layout
    regions = plan.region_map()
    wc_row = np.ones(layout.n_columns, dtype=bool)
    seeded = 0
    for spec in layout.specs:
        start, end = layout.spec_ranges[spec.name]
        if spec.kind == "content":
            if spec.name not in regions:
                continue
        elif spec.kind == "indicator":
            if spec.name not in plan.indicators:
                continue
        elif spec.name not in plan.fanouts:
            continue
        for col in range(start, end):
            seeded += compiled.warm_pattern(wc_row, col)
            wc_row[col] = False
    return seeded
