"""The benchmark's per-layer metrics and where their spans come from.

:data:`PER_LAYER` is the single list of per-layer metrics a traced run
reports, each with the end-to-end metric and workload it is expected to
move (``moves``).  :func:`install` wraps each layer's entry points at the
place its callers look them up; :func:`collect` turns the span summary
and the program's own counters into the metric values.

The ``distributed.*`` metrics come from a ``dist_run`` of the
pareto-grid spec that only pareto-grid's traced run makes; its shard
workers are separate interpreters the benchmark does not wrap, so only
the coordinating process is traced.
"""

from __future__ import annotations

import os
import time

from tracer import Tracer, add_attr

# (name, unit, better, moves)
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("graphs.load_dataset.calls", "count", "lower", "wall_s on pareto-grid; setup_s on every workload"),
    ("graphs.load_dataset.self_s", "s", "lower", "wall_s on pareto-grid; setup_s on every workload"),
    ("core.enumeration.self_s", "s", "lower", "wall_s on sweep-citeseer"),
    ("core.evaluator.self_s", "s", "lower", "wall_s on pareto-grid and sweep-citeseer"),
    ("core.evaluator.fingerprint.self_s", "s", "lower", "wall_s on pareto-grid and sweep-citeseer"),
    ("core.evaluator.evaluated", "count", "lower", "wall_s on pareto-grid and sweep-citeseer"),
    ("core.evaluator.cache_hits", "count", "higher", "wall_s on pareto-grid and sweep-citeseer"),
    ("core.evaluator.warm_hits", "count", "higher", "wall_s on pareto-grid and sweep-citeseer"),
    ("core.evaluator.errors", "count", "lower", "wall_s on pareto-grid and sweep-citeseer"),
    ("core.interphase.calls", "count", "lower", "wall_s on sweep-citeseer and pareto-grid"),
    ("core.interphase.self_s", "s", "lower", "wall_s on sweep-citeseer and pareto-grid"),
    ("core.pipeline.calls", "count", "lower", "wall_s on sweep-citeseer; no change on pareto-grid"),
    ("core.pipeline.self_s", "s", "lower", "wall_s on sweep-citeseer; no change on pareto-grid"),
    ("core.pipeline.granules", "count", "lower", "wall_s on sweep-citeseer; no change on pareto-grid"),
    ("engine.spmm.calls", "count", "lower", "wall_s on pareto-grid; wall_s on serve-mixed (live path)"),
    ("engine.spmm.self_s", "s", "lower", "wall_s on pareto-grid; wall_s on serve-mixed (live path)"),
    ("engine.gemm.calls", "count", "lower", "wall_s on pareto-grid; wall_s on serve-mixed (live path)"),
    ("engine.gemm.self_s", "s", "lower", "wall_s on pareto-grid; wall_s on serve-mixed (live path)"),
    ("engine.phase_cache.hit_ratio", "ratio", "higher", "wall_s on pareto-grid; little effect on sweep-citeseer"),
    ("engine.tilestats.hit_ratio", "ratio", "higher", "wall_s on pareto-grid; little effect on sweep-citeseer"),
    ("core.search.calls", "count", "lower", "wall_s on pareto-grid"),
    ("core.search.self_s", "s", "lower", "wall_s on pareto-grid"),
    ("core.search.probes", "count", "lower", "wall_s on pareto-grid"),
    ("core.search.evaluated_fraction", "ratio", "lower", "wall_s on pareto-grid"),
    ("campaign.units", "count", "higher", "wall_s on pareto-grid"),
    ("campaign.self_s", "s", "lower", "wall_s on pareto-grid"),
    ("analysis.store.append.calls", "count", "lower", "wall_s on pareto-grid; wall_s on serve-mixed"),
    ("analysis.store.append.self_s", "s", "lower", "wall_s on pareto-grid; wall_s on serve-mixed"),
    ("analysis.store.bytes", "bytes", "lower", "wall_s on pareto-grid; wall_s on serve-mixed"),
    ("analysis.store.open_s", "s", "lower", "setup_s on serve-mixed"),
    ("serving.query.self_s", "s", "lower", "wall_s on serve-mixed"),
    ("serving.index.lookup.self_s", "s", "lower", "wall_s on serve-mixed (index path)"),
    ("serving.frontend_ms.p50", "ms", "lower", "wall_s on serve-mixed"),
    ("serving.client.p50_ms", "ms", "lower", "wall_s on serve-mixed (index path)"),
    ("serving.client.p99_ms", "ms", "lower", "wall_s on serve-mixed (live path)"),
    ("serving.index_hits", "count", "higher", "wall_s on serve-mixed"),
    ("serving.live_searches", "count", "lower", "wall_s on serve-mixed"),
    ("serving.coalesced", "count", "higher", "wall_s on serve-mixed"),
    ("serving.degraded", "count", "lower", "wall_s on serve-mixed"),
    ("serving.shed", "count", "lower", "wall_s on serve-mixed"),
    ("serving.timeouts", "count", "lower", "wall_s on serve-mixed"),
    ("distributed.plan_s", "s", "lower", "wall_s of dist_run on the pareto-grid spec (traced run only)"),
    ("distributed.merge_s", "s", "lower", "wall_s of dist_run on the pareto-grid spec (traced run only)"),
    ("distributed.retries", "count", "lower", "wall_s of dist_run on the pareto-grid spec (traced run only)"),
    ("distributed.spawn_s", "s", "lower", "wall_s of dist_run on the pareto-grid spec (traced run only)"),
    ("distributed.worker_run_s", "s", "lower", "wall_s of dist_run on the pareto-grid spec (traced run only)"),
    ("trace.unattributed_s", "s", "lower",
     "none: program time outside every traced layer (serve-mixed: request handling outside serving.query)"),
    ("trace.overhead_pct", "%", "lower", "none: traced wall against untraced wall"),
]


class Registry:
    """Program objects created during a traced run, for their counters."""

    def __init__(self) -> None:
        self.sessions: list = []
        self.stores: list[tuple[str, int]] = []  # (path, bytes after open)
        self.launches: dict[int, float] = {}  # shard -> wall clock of launch
        self.request_s = 0.0  # summed server request-handling time


def install(tracer: Tracer, registry: Registry) -> None:
    """Wrap every traced layer entry point (undo with ``tracer.uninstall``)."""
    import repro.api as api
    import repro.campaign.scheduler as scheduler
    import repro.campaign.session as session
    import repro.core.enumeration as enumeration
    import repro.core.evaluator as evaluator
    import repro.core.interphase as interphase
    import repro.core.omega as omega
    import repro.core.search as search
    import repro.distributed.coordinator as coordinator
    import repro.distributed.shardplan as shardplan
    import repro.engine.phasecache as phasecache
    import repro.graphs as graphs
    import repro.graphs.datasets as datasets
    from repro.analysis.store import ResultStore
    from repro.serving.frontend import DataflowServer
    from repro.serving.index import ParetoIndex
    from repro.serving.service import DataflowService

    w = tracer.wrap
    for module in (datasets, graphs, scheduler, shardplan, api):
        w(module, "load_dataset", "graphs.load_dataset")
    w(enumeration, "enumerate_design_space", "core.enumeration", generator=True)
    w(evaluator.DataflowEvaluator, "evaluate", "core.evaluator")
    w(evaluator.FingerprintFactory, "fingerprint", "core.evaluator.fingerprint")
    w(evaluator, "_compose_batch", "core.interphase")
    w(omega, "compose", "core.interphase")

    def batch_granules(frame, args, kwargs, result):
        add_attr(frame, "granules", sum(len(p) for p in args[0]))

    def single_granules(frame, args, kwargs, result):
        add_attr(frame, "granules", len(args[0]))

    w(interphase, "bounded_pipeline_batch", "core.pipeline", on_return=batch_granules)
    w(interphase, "bounded_pipeline", "core.pipeline", on_return=single_granules)
    for module in (phasecache, omega, search):
        w(module, "simulate_spmm", "engine.spmm")
        w(module, "simulate_gemm", "engine.gemm")

    def search_report(frame, args, kwargs, report):
        add_attr(frame, "probes", report.probes)
        add_attr(frame, "evaluated_delta", report.evaluated_delta)
        add_attr(frame, "design_space", report.design_space)

    w(search, "pareto_search", "core.search", on_return=search_report)
    w(scheduler, "run_unit", "campaign")
    w(ResultStore, "append", "analysis.store.append")

    def store_opened(frame, args, kwargs, result):
        store = args[0]
        registry.stores.append((str(store.path), _size(store.path)))

    w(ResultStore, "__init__", "analysis.store.open", on_return=store_opened)
    w(
        session.ExplorationSession,
        "__init__",
        None,
        on_return=lambda frame, args, kwargs, result: registry.sessions.append(args[0]),
    )
    w(DataflowService, "query", "serving.query")
    handle = DataflowServer._handle

    async def timed_handle(self, reader, writer):
        # A coroutine interleaves with others on the event loop, so it is
        # timed into a sum rather than onto the per-thread span stack.
        t0 = time.perf_counter()
        try:
            await handle(self, reader, writer)
        finally:
            registry.request_s += time.perf_counter() - t0

    tracer.patch(DataflowServer, "_handle", timed_handle)
    w(ParetoIndex, "lookup", "serving.index.lookup")
    w(coordinator, "plan_shards", "distributed.plan")
    w(coordinator.DistributedCoordinator, "_merge", "distributed.merge")

    def launched(frame, args, kwargs, result):
        registry.launches[args[1].index] = time.time()

    w(coordinator.DistributedCoordinator, "_launch", None, on_return=launched)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def appended_bytes(registry: Registry) -> int:
    """Bytes the run appended to every store it opened."""
    return sum(_size(path) - size for path, size in registry.stores)


def session_counters(sessions) -> tuple[dict, dict]:
    """Summed EvalStats and cache counters over program sessions."""
    stats: dict = {}
    cache: dict = {}
    for sess in sessions:
        for key, value in sess.stats.as_dict().items():
            stats[key] = stats.get(key, 0) + value
        for key, value in sess.cache_counters().items():
            cache[key] = cache.get(key, 0) + value
    return stats, cache


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def collect(summary: dict, *, stats: dict, cache: dict, extra: dict) -> dict:
    """Per-layer metric values from a span summary plus program counters.

    ``stats``/``cache`` are the program's EvalStats and cache counters;
    ``extra`` carries values measured outside the span tree (serving
    counters, distributed timings, overhead).  Every metric of
    :data:`PER_LAYER` is present; a layer the workload never entered
    reads 0.
    """

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    search_space = span("core.search", "design_space")
    values = {
        "graphs.load_dataset.calls": span("graphs.load_dataset", "calls"),
        "graphs.load_dataset.self_s": span("graphs.load_dataset", "self_s"),
        "core.enumeration.self_s": span("core.enumeration", "self_s"),
        "core.evaluator.self_s": span("core.evaluator", "self_s"),
        "core.evaluator.fingerprint.self_s": span("core.evaluator.fingerprint", "self_s"),
        "core.evaluator.evaluated": stats.get("evaluated", 0),
        "core.evaluator.cache_hits": stats.get("cache_hits", 0),
        "core.evaluator.warm_hits": stats.get("warm_hits", 0),
        "core.evaluator.errors": stats.get("errors", 0),
        "core.interphase.calls": span("core.interphase", "calls"),
        "core.interphase.self_s": span("core.interphase", "self_s"),
        "core.pipeline.calls": span("core.pipeline", "calls"),
        "core.pipeline.self_s": span("core.pipeline", "self_s"),
        "core.pipeline.granules": span("core.pipeline", "granules"),
        "engine.spmm.calls": span("engine.spmm", "calls"),
        "engine.spmm.self_s": span("engine.spmm", "self_s"),
        "engine.gemm.calls": span("engine.gemm", "calls"),
        "engine.gemm.self_s": span("engine.gemm", "self_s"),
        "engine.phase_cache.hit_ratio": _ratio(
            cache.get("phase_hits", 0), cache.get("phase_misses", 0)
        ),
        "engine.tilestats.hit_ratio": _ratio(
            cache.get("tilestats_hits", 0), cache.get("tilestats_misses", 0)
        ),
        "core.search.calls": span("core.search", "calls"),
        "core.search.self_s": span("core.search", "self_s"),
        "core.search.probes": span("core.search", "probes"),
        "core.search.evaluated_fraction": (
            span("core.search", "evaluated_delta") / search_space if search_space else 0.0
        ),
        "campaign.units": span("campaign", "calls"),
        "campaign.self_s": span("campaign", "self_s"),
        "analysis.store.append.calls": span("analysis.store.append", "calls"),
        "analysis.store.append.self_s": span("analysis.store.append", "self_s"),
        "analysis.store.open_s": span("analysis.store.open", "total_s"),
        "serving.query.self_s": span("serving.query", "self_s"),
        "serving.index.lookup.self_s": span("serving.index.lookup", "self_s"),
        "distributed.plan_s": span("distributed.plan", "total_s"),
        "distributed.merge_s": span("distributed.merge", "total_s"),
        "trace.unattributed_s": span("benchmark.setup", "self_s") + span("benchmark.op", "self_s"),
    }
    for name, *_ in PER_LAYER:
        values.setdefault(name, 0)
    values.update(extra)
    return values
