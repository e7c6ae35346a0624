"""NeuroCard: the public estimator API.

Usage::

    schema = JoinSchema(...)                 # tree of base tables
    card = NeuroCard(schema).fit()           # counts -> sampler -> train
    card.estimate(Query.make(["title", "cast_info"],
                             [Predicate("title", "production_year", ">=", 2000)]))

One fitted estimator answers queries over *any* connected subset of tables
with arbitrary =, range and IN filters (§2.1). ``update`` implements the
paper's incremental-training strategy for data ingests (§7.6).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.config import NeuroCardConfig
from repro.core.encoding import FusedEncoder, Layout
from repro.core.inference import (
    INFERENCE_MODES,
    build_engine,
    compiled_model,
    compiled_size_bytes,
    invalidate_compiled,
    precompile_plan,
)
from repro.core.progressive import ProgressiveSampler
from repro.core.training import TrainResult, train_autoregressive
from repro.errors import EstimationError, SchemaError
from repro.joins.counts import JoinCounts
from repro.joins.sampler import FullJoinSampler, ThreadedSampler, joined_column_specs
from repro.nn.optim import Adam
from repro.nn.resmade import ResMADE
from repro.relational.query import Query
from repro.relational.schema import JoinSchema


def _throttled_batches(get_batch, duty: float):
    """Wrap a batch source so training runs at a ``duty`` cycle (0 < duty < 1).

    Before each fetch, sleeps proportionally to the time the training thread
    was busy since the previous fetch (one gradient step + sampling), so the
    trainer holds the GIL for roughly ``duty`` of its wall time and
    concurrent serving threads keep the rest. Pure pacing: with a
    single-threaded sampler the batch sequence, and therefore the trained
    weights, are bitwise those of an unthrottled run — only wall time
    stretches (by ~1/duty). A multi-worker ``ThreadedSampler`` interleaves
    producer batches timing-dependently either way, so there pacing changes
    the (identically distributed) batch order like any other scheduling
    noise would.
    """
    last = [time.perf_counter()]

    def wrapped():
        busy = time.perf_counter() - last[0]
        delay = busy * (1.0 - duty) / duty
        if delay > 0:
            time.sleep(min(delay, 0.25))  # cap one-off stalls (setup, GC)
        batch = get_batch()
        last[0] = time.perf_counter()
        return batch

    return wrapped


class NeuroCard:
    """A single learned cardinality estimator for all tables of a schema."""

    def __init__(self, schema: JoinSchema, config: Optional[NeuroCardConfig] = None):
        self.schema = schema
        self.config = config if config is not None else NeuroCardConfig()
        self.config.validate()
        self.counts: Optional[JoinCounts] = None
        self.sampler: Optional[FullJoinSampler] = None
        self.layout: Optional[Layout] = None
        self.model: Optional[ResMADE] = None
        self.inference: Optional[ProgressiveSampler] = None
        self.train_result: Optional[TrainResult] = None
        self.prepare_seconds = 0.0
        self._optimizer: Optional[Adam] = None
        self._rng = np.random.default_rng(self.config.seed + 1)
        self._compile_mode = self.config.compiled_inference
        #: Monotonic id of the data snapshot this estimator was last trained
        #: on. 0 is the fit() snapshot; the streaming-ingest layer stamps
        #: its own versions through :meth:`update` so freshness is
        #: observable (and persisted — see ``core.persistence``).
        self.data_version = 0

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self.inference is not None

    def fit(
        self, train_tuples: Optional[int] = None, compile: Optional[object] = None
    ) -> "NeuroCard":
        """Build join counts, train the AR model, prepare inference.

        ``compile`` selects the serving kernels: ``True`` compiles (using
        the config's mode, defaulting to fp32), ``False`` keeps the
        reference engine, a mode string ("fp32"/"fp64"/"off") selects
        explicitly, and ``None`` defers to ``config.compiled_inference``.
        Compilation itself is lazy — kernels fold on first estimate.
        """
        cfg = self.config
        n_tuples = train_tuples if train_tuples is not None else cfg.train_tuples
        self._prepare_structures(n_tuples, compile)
        self._train(n_tuples)
        self.inference = self.build_inference()
        return self

    def prepare(
        self, compile: Optional[object] = None, layout: Optional[Layout] = None
    ) -> "NeuroCard":
        """Build counts/sampler/layout/model/engine WITHOUT training.

        The weights stay at their seeded initialization. Two consumers
        replace them immediately afterwards: ``persistence.load_model``
        copies the artifact's weights in, and the serving worker pool's
        processes attach published shared-memory weight views via
        :meth:`attach_parameters` — both only need the deterministic
        skeleton (same schema + config => same architecture and layout),
        never a gradient step. The estimator reports ``is_fitted`` after
        this call; estimates are meaningless until real weights arrive.

        ``layout`` supplies the layout the weights were trained against
        instead of deriving one from the schema: :meth:`update` keeps the
        trained layout while the snapshot moves on, so a fast-refreshed
        model's fanout vocabularies can differ from a fresh derivation.
        """
        self._prepare_structures(self.config.train_tuples, compile, layout)
        self.inference = self.build_inference()
        return self

    def attach_parameters(self, values: Sequence[np.ndarray]) -> None:
        """Point the model's parameters at externally owned arrays (no copy).

        ``values`` must match ``model.parameters()`` order/shape/dtype —
        typically read-only views over a shared-memory blob published by
        the serving worker pool, so N processes share one physical copy of
        the weights. Compiled kernel state folded from the *old* values is
        dropped (the pool attaches published kernel buffers right after).
        Serving-only: training after attaching read-only views would fault
        in the optimizer's in-place update.
        """
        if self.model is None:
            raise EstimationError("call fit() or prepare() before attach_parameters()")
        params = self.model.parameters()
        if len(values) != len(params):
            raise EstimationError(
                f"parameter count mismatch: got {len(values)}, "
                f"model has {len(params)}"
            )
        for param, value in zip(params, values):
            if value.shape != param.value.shape or value.dtype != param.value.dtype:
                raise EstimationError(
                    f"parameter {param.name!r} mismatch: got "
                    f"{value.shape}/{value.dtype}, expected "
                    f"{param.value.shape}/{param.value.dtype}"
                )
        for param, value in zip(params, values):
            param.value = value
        self.invalidate_compiled()

    def _prepare_structures(
        self, n_tuples: int, compile: Optional[object],
        layout: Optional[Layout] = None,
    ) -> None:
        cfg = self.config
        self._compile_mode = self._resolve_compile_mode(compile)
        start = time.perf_counter()
        self.counts = JoinCounts(self.schema)
        specs = layout.specs if layout is not None else joined_column_specs(
            self.schema, self.counts, exclude=cfg.exclude_columns
        )
        self.sampler = FullJoinSampler(self.schema, self.counts, specs=specs)
        self.layout = layout if layout is not None else Layout(
            self.schema, self.counts, specs, cfg.factorization_bits
        )
        self.prepare_seconds = time.perf_counter() - start
        self.model = ResMADE(
            self.layout.domains,
            d_emb=cfg.d_emb,
            d_ff=cfg.d_ff,
            n_blocks=cfg.n_blocks,
            seed=cfg.seed,
        )
        self._optimizer = Adam(
            self.model.parameters(),
            lr=cfg.learning_rate,
            total_steps=max(n_tuples // cfg.batch_size, 1),
        )

    def _resolve_compile_mode(self, compile: Optional[object]) -> str:
        if compile is None:
            mode = self.config.compiled_inference
        elif compile is True:
            mode = self.config.compiled_inference
            mode = mode if mode != "off" else "fp32"
        elif compile is False:
            mode = "off"
        else:
            mode = str(compile)
        # Fail before training, not at the post-fit build_engine call.
        if mode not in INFERENCE_MODES:
            raise EstimationError(
                f"unknown inference mode {mode!r}; expected one of {INFERENCE_MODES}"
            )
        return mode

    def build_inference(self) -> ProgressiveSampler:
        """A fresh inference engine over the current weights (compiled per
        the estimator's mode). Used on fit/update and by the serving
        registry's hot-swap path, so stale compiled state never survives a
        weight change."""
        return build_engine(
            self.model, self.layout, self.counts.full_join_size, self._compile_mode,
            quantization=(
                self.config.quantization if self._compile_mode == "fp32" else "off"
            ),
        )

    @staticmethod
    def _check_throttle(throttle: Optional[float]) -> None:
        if throttle is not None and not (0.0 < throttle <= 1.0):
            raise EstimationError(
                f"throttle must be in (0, 1] (duty cycle); got {throttle!r}"
            )

    def _train(self, n_tuples: int, throttle: Optional[float] = None) -> None:
        cfg = self.config
        self._check_throttle(throttle)
        if self._optimizer is not None and self._optimizer.t > 0:
            # Incremental update: re-anchor the LR schedule so the extra
            # steps get a fresh warmup+decay segment instead of sitting at
            # the floor of the (already exhausted) original cosine.
            self._optimizer.extend_schedule(max(n_tuples // cfg.batch_size, 1))
        # Fused sampling+tokenization: batches arrive as ready token
        # matrices, drawn and encoded in one vectorized pass (and, on the
        # threaded path, produced off the training thread). Rebuilt per
        # train call because updates swap in new snapshot tables.
        fused = FusedEncoder(self.layout, self.sampler)

        def paced(get_batch):
            if throttle is None or throttle >= 1.0:
                return get_batch
            return _throttled_batches(get_batch, throttle)

        if cfg.sampler_threads > 1:
            with ThreadedSampler(
                self.sampler, cfg.batch_size, n_threads=cfg.sampler_threads,
                seed=cfg.seed, encode=fused.encode_row_ids,
            ) as threaded:
                result = train_autoregressive(
                    self.model, self.layout, paced(threaded.get_batch),
                    n_tuples, cfg.batch_size, cfg.learning_rate,
                    cfg.wildcard_skipping, cfg.seed, optimizer=self._optimizer,
                )
        else:
            rng = np.random.default_rng(cfg.seed)
            result = train_autoregressive(
                self.model, self.layout,
                paced(lambda: fused.encode_row_ids(
                    self.sampler.sample_row_id_matrix(cfg.batch_size, rng)
                )),
                n_tuples, cfg.batch_size, cfg.learning_rate,
                cfg.wildcard_skipping, cfg.seed, optimizer=self._optimizer,
            )
        if self.train_result is None:
            self.train_result = result
        else:  # accumulate across incremental updates
            self.train_result.steps += result.steps
            self.train_result.tuples_seen += result.tuples_seen
            self.train_result.wall_seconds += result.wall_seconds
            self.train_result.losses.extend(result.losses)

    # ------------------------------------------------------------------
    def estimate(
        self, query: Query, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Estimated COUNT(*), lower-bounded by 0 (harnesses clamp to 1).

        Routed through the batched engine as a batch of one, so direct
        calls and the serving layer share a single (compiled) code path;
        ``rng`` pins the query's Monte Carlo stream exactly as a
        ``rngs=[rng]`` entry does on :meth:`estimate_batch`.
        """
        if not self.is_fitted:
            raise EstimationError("call fit() before estimate()")
        return float(
            self.inference.estimate_batch(
                [query],
                n_samples=self.config.progressive_samples,
                rngs=[rng if rng is not None else self._rng],
            )[0]
        )

    def estimate_batch(
        self,
        queries: Sequence[Query],
        rng: Optional[np.random.Generator] = None,
        n_samples: Optional[int] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        max_rel_var: Optional[float] = None,
        min_samples: Optional[int] = None,
    ) -> np.ndarray:
        """Estimated COUNT(*) for many queries in one packed inference pass.

        All queries share one model forward pass per constrained column (the
        batched serving path); results match looping :meth:`estimate` up to
        the per-query Monte Carlo streams. Returns one estimate per query.

        ``rngs`` pins one generator per query; with query ``i`` pinned to the
        same generator state as a sequential :meth:`estimate` call, the
        batched result is bitwise-equal to the sequential one (the
        micro-batching scheduler relies on this for deterministic serving).

        ``max_rel_var`` turns on variance-adaptive sampling: every query
        first runs a cheap probe walk, and only queries whose relative
        standard error exceeds the bound escalate to the full ``n_samples``
        walk (on their pristine pinned streams, so escalated results are
        bitwise-equal to a fixed-``n_samples`` run). ``min_samples``
        overrides the probe size.
        """
        if not self.is_fitted:
            raise EstimationError("call fit() before estimate_batch()")
        return self.inference.estimate_batch(
            queries,
            n_samples=(
                n_samples if n_samples is not None else self.config.progressive_samples
            ),
            rng=rng if rng is not None else self._rng,
            rngs=rngs,
            max_rel_var=max_rel_var,
            min_samples=min_samples,
        )

    # ------------------------------------------------------------------
    def precompile(self, queries: Optional[Sequence[Query]] = None) -> int:
        """Fold the serving kernels now (and optionally pre-warm plans).

        Compilation is otherwise lazy (first estimate pays it); serving
        layers call this on load/hot-swap so the first request after a
        swap is already on compiled kernels. With ``queries``, each one's
        resolved plan seeds the wildcard-constant cache; returns the
        number of newly seeded patterns. No-op on reference engines.
        """
        if not self.is_fitted:
            raise EstimationError("call fit() before precompile()")
        compiled = compiled_model(self.inference)
        if compiled is None:
            return 0
        compiled.compile()
        seeded = 0
        for query in queries or ():
            query.validate(self.layout.schema)
            seeded += precompile_plan(self.inference, self.inference.plan(query))
        return seeded

    def invalidate_compiled(self) -> None:
        """Drop compiled kernel state (weights changed out from under it)."""
        invalidate_compiled(self.inference)

    # ------------------------------------------------------------------
    def update(
        self,
        new_schema: JoinSchema,
        train_tuples: Optional[int] = None,
        *,
        fraction: Optional[float] = None,
        data_version: Optional[int] = None,
        throttle: Optional[float] = None,
    ) -> "NeuroCard":
        """Ingest a new data snapshot and incrementally train (§7.6).

        The new snapshot must keep every column's dictionary code space (the
        update pipeline produces partition-append snapshots whose dictionaries
        are fixed upfront); join counts, |J|, and the sampler are rebuilt,
        then the existing model takes additional gradient steps.

        The incremental budget is ``train_tuples`` when given, else
        ``fraction`` of the config's original budget (the paper's fast
        strategy uses ~1%), else no training at all (counts/sampler rebuild
        only). ``data_version`` stamps :attr:`data_version` so serving
        layers can observe which snapshot generation the weights reflect;
        omitted, it bumps by one. ``throttle`` (0 < duty <= 1) paces the
        gradient steps so a background refresh shares the GIL with serving
        threads instead of starving them; with ``sampler_threads=1`` the
        trained weights are bitwise those of an unthrottled run (a threaded
        sampler's batch interleaving is timing-dependent with or without
        pacing).
        """
        if not self.is_fitted:
            raise EstimationError("call fit() before update()")
        # Pure-argument check up front: rejecting it after the schema and
        # sampler swaps below would leave a half-updated estimator.
        self._check_throttle(throttle)
        for name, table in new_schema.tables.items():
            old = self.schema.table(name)
            for col_name in old.column_names:
                if (
                    table.column(col_name).domain_size
                    != old.column(col_name).domain_size
                ):
                    raise SchemaError(
                        f"update changed domain of {name}.{col_name}; "
                        "snapshots must share dictionaries"
                    )
        if train_tuples is None and fraction is not None:
            from repro.core.refresh import fast_refresh_budget

            train_tuples = fast_refresh_budget(self.config, fraction)
        self.schema = new_schema
        start = time.perf_counter()
        self.counts = JoinCounts(new_schema)
        # Reuse the existing sampler's specs and concrete class; streaming
        # ingests route appended fragments through the same vectorized
        # machinery (see FullJoinSampler.for_snapshot for the strict path).
        self.sampler = self.sampler.rebuilt(new_schema, self.counts)
        self.layout.schema = new_schema
        self.prepare_seconds += time.perf_counter() - start
        if train_tuples and train_tuples > 0:
            self._train(train_tuples, throttle=throttle)
        self.data_version = (
            data_version if data_version is not None else self.data_version + 1
        )
        # A fresh engine also discards compiled kernels folded from the
        # pre-update weights.
        self.inference = self.build_inference()
        return self

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Resident estimator size: model weights + compiled inference buffers.

        The compiled term is 0 until the first estimate folds the kernels
        (compilation is lazy) and deterministic afterwards, so serving
        memory budgets see a stable number per model.
        """
        if self.model is None:
            raise EstimationError("not fitted")
        return self.model.size_bytes + compiled_size_bytes(self.inference)

    @property
    def size_mb(self) -> float:
        return self.size_bytes / 2**20

    @property
    def full_join_size(self) -> float:
        if self.counts is None:
            raise EstimationError("not fitted")
        return self.counts.full_join_size
