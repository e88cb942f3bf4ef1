#!/usr/bin/env python
"""Large-graph tier benchmark: memory-bounded streamed evaluation.

Two measurements, appended to the ``BENCH_scale.json`` trajectory at the
repo root (override with ``--out``):

1. ``chunk_invariance`` — the SpMM/GEMM micro-simulators on a mid-scale
   RMAT graph, once with a budget roomy enough for one block and once
   under a tight byte budget that splits the loop nest into many chunks.
   Bit-identity of the ``CycleReport``\\ s is asserted unconditionally
   (the exhaustive fuzz against the interpreted reference lives in
   ``tests/test_engine_streamed.py``; this script measures and sanity-
   checks).

2. ``large_graph`` — the tier the streaming work opens: a seeded RMAT
   power-law graph (``--vertices``, default one million) evaluated
   block-partitioned (``{"budget_bytes": --partition-budget}``) under an
   enforced ``TileStats`` byte budget (``--budget``, exported as
   ``REPRO_TILESTATS_BUDGET`` for the run).  Records generation and
   evaluation wall-clock, block count, peak process RSS, and the
   registry's memory counters.

``--check`` exits non-zero unless the budget held (the large run's
aggregate ``peak_nbytes <= --budget``) and the comparison section really
compared one block against many: the roomy SpMM run streamed exactly one
block and the tight one more than one.  ``--vertices 50000`` keeps the
CI smoke cheap.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_scale.py --check
    PYTHONPATH=src python benchmarks/bench_scale.py --vertices 50000 --check
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.core.omega import run_gnn_dataflow
from repro.core.partitioned import resolve_partition
from repro.core.taxonomy import IntraDataflow, Phase, parse_dataflow
from repro.core.workload import GNNWorkload
from repro.engine.cycle_model import cycle_accurate_gemm, cycle_accurate_spmm
from repro.engine.gemm import GemmSpec, GemmTiling
from repro.engine.spmm import SpmmSpec, SpmmTiling
from repro.engine.tilestats import TileStats
from repro.graphs.generators import web_scale

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
DEFAULT_VERTICES = 1_000_000
EDGES_PER_VERTEX = 16
DEFAULT_BUDGET = 1 << 26  # 64 MiB of cached sparsity statistics
DEFAULT_PARTITION_BUDGET = 1 << 26  # per-block streamed working set
DATAFLOW = "Seq_AC(VsNtFt, VsGtFt)"
IN_FEATURES = 32
OUT_FEATURES = 16

# Mid-scale point for the chunk-invariance comparison: big enough that
# the timings mean something, small enough that one block holds the nest.
MID_VERTICES = 50_000
MID_EDGES = 500_000
MID_FEAT = 32
MID_SPMM_TILES = SpmmTiling(16, MID_FEAT, 8)
MID_GEMM_SHAPE = (MID_VERTICES, MID_FEAT, 16)
MID_GEMM_TILES = GemmTiling(64, 8, 4)
MID_ROOMY_BUDGET = 1 << 30  # one SpMM slab covers all vertex tiles
MID_TIGHT_BUDGET = 1 << 20  # SpMM slabs of a few rows, GEMM chunks of ~10k steps


def _peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_tuple(rep) -> tuple:
    return (rep.cycles, rep.steps, rep.gb_reads, rep.gb_writes)


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_chunk_invariance(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    graph = web_scale(rng, MID_VERTICES, MID_EDGES, name="web-mid")
    hw = AcceleratorConfig(num_pes=512, dist_bw=64, red_bw=64)

    spec = SpmmSpec(graph=graph, feat=MID_FEAT)
    intra = IntraDataflow.parse("VsNtFt", Phase.AGGREGATION)
    roomy = TileStats(graph, byte_budget=MID_ROOMY_BUDGET)
    tight = TileStats(graph, byte_budget=MID_TIGHT_BUDGET)
    roomy_s, whole = _timed(
        lambda: cycle_accurate_spmm(spec, intra, MID_SPMM_TILES, hw, stats=roomy)
    )
    tight_s, chunked = _timed(
        lambda: cycle_accurate_spmm(spec, intra, MID_SPMM_TILES, hw, stats=tight)
    )
    assert _report_tuple(whole) == _report_tuple(chunked), (
        "chunked SpMM diverged from the one-block run"
    )

    rows, inner, cols = MID_GEMM_SHAPE
    gspec = GemmSpec(rows=rows, inner=inner, cols=cols)
    gintra = IntraDataflow.parse("VsFsGt", Phase.COMBINATION)
    groomy_s, gwhole = _timed(
        lambda: cycle_accurate_gemm(
            gspec, gintra, MID_GEMM_TILES, hw, stats=roomy
        )
    )
    gtight_s, gchunked = _timed(
        lambda: cycle_accurate_gemm(
            gspec, gintra, MID_GEMM_TILES, hw, stats=tight
        )
    )
    assert _report_tuple(gwhole) == _report_tuple(gchunked), (
        "chunked GEMM diverged from the one-block run"
    )

    return {
        "graph": {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "max_degree": int(np.diff(graph.vertex_ptr).max()),
        },
        "spmm": {
            "one_block_s": round(roomy_s, 4),
            "chunked_s": round(tight_s, 4),
            "one_block_passes": roomy.streamed_chunk_passes,
            "chunked_passes": tight.streamed_chunk_passes,
            "bit_identical": True,  # asserted above
        },
        "gemm": {
            "one_block_s": round(groomy_s, 4),
            "chunked_s": round(gtight_s, 4),
            "bit_identical": True,  # asserted above
        },
    }


def bench_large_graph(
    vertices: int,
    edges: int,
    budget: int,
    partition_budget: int,
    seed: int,
) -> dict:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    graph = web_scale(rng, vertices, edges, name=f"web-{vertices}")
    generate_s = time.perf_counter() - t0

    wl = GNNWorkload(
        graph=graph,
        in_features=IN_FEATURES,
        out_features=OUT_FEATURES,
        name=graph.name,
    )
    hw = AcceleratorConfig(num_pes=512)
    df = parse_dataflow(DATAFLOW)
    plan = resolve_partition(wl, hw, {"budget_bytes": partition_budget})

    t0 = time.perf_counter()
    res = run_gnn_dataflow(wl, df, hw, partition=plan)
    evaluate_s = time.perf_counter() - t0
    mem = plan.registry.memory_counters()

    return {
        "graph": {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "max_degree": int(np.diff(graph.vertex_ptr).max()),
        },
        "dataflow": DATAFLOW,
        "features": [IN_FEATURES, OUT_FEATURES],
        "num_blocks": plan.num_blocks,
        "generate_s": round(generate_s, 2),
        "evaluate_s": round(evaluate_s, 2),
        "total_cycles": res.total_cycles,
        "energy_pj": round(res.energy.total_pj, 1),
        "tilestats_budget_bytes": budget,
        "partition_budget_bytes": partition_budget,
        "tilestats": mem,
        "peak_rss_mib": round(_peak_rss_mib(), 1),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="trajectory JSON to append to (default: repo root)")
    ap.add_argument("--vertices", type=int, default=DEFAULT_VERTICES,
                    help="large-graph vertex count (default: 1M; use a "
                         "smaller value for CI smoke)")
    ap.add_argument("--edges", type=int, default=None,
                    help=f"large-graph edge target (default: "
                         f"{EDGES_PER_VERTEX}x vertices)")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    metavar="BYTES",
                    help="TileStats byte budget, exported as "
                         "REPRO_TILESTATS_BUDGET for the large-graph run "
                         "(default: 64 MiB)")
    ap.add_argument("--partition-budget", type=int,
                    default=DEFAULT_PARTITION_BUDGET, metavar="BYTES",
                    help="per-block streamed working-set budget for the "
                         "partitioner (default: 64 MiB)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--check", action="store_true",
                    help="fail unless peak stats memory <= --budget and "
                         "the comparison streamed one block against many")
    ap.add_argument("--label", default=None,
                    help="entry label (default: large-graph-tier)")
    args = ap.parse_args(argv)
    edges = args.edges if args.edges is not None else (
        EDGES_PER_VERTEX * args.vertices
    )

    invariance = bench_chunk_invariance(args.seed)

    # The env knob is how real runs configure the tier, so the bench
    # exercises exactly that path (read at TileStats construction time).
    saved = os.environ.get("REPRO_TILESTATS_BUDGET")
    os.environ["REPRO_TILESTATS_BUDGET"] = str(args.budget)
    try:
        large = bench_large_graph(
            args.vertices, edges, args.budget, args.partition_budget,
            args.seed,
        )
    finally:
        if saved is None:
            os.environ.pop("REPRO_TILESTATS_BUDGET", None)
        else:
            os.environ["REPRO_TILESTATS_BUDGET"] = saved

    entry = {
        "label": args.label or "large-graph-tier",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host_cpus": os.cpu_count(),
        "chunk_invariance": invariance,
        "large_graph": large,
    }

    trajectory: list = []
    if args.out.exists():
        trajectory = json.loads(args.out.read_text(encoding="utf-8"))
    trajectory.append(entry)
    args.out.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    sv = invariance["spmm"]
    gv = invariance["gemm"]
    print(f"one block vs chunked (web-mid, "
          f"{invariance['graph']['num_vertices']} vertices / "
          f"{invariance['graph']['num_edges']} edges): SpMM "
          f"{sv['one_block_s']:.3f}s -> {sv['chunked_s']:.3f}s "
          f"({sv['one_block_passes']} -> {sv['chunked_passes']} blocks, "
          f"bit-identical), GEMM {gv['one_block_s']:.3f}s -> "
          f"{gv['chunked_s']:.3f}s (bit-identical)")
    mem = large["tilestats"]
    print(f"large graph ({large['graph']['num_vertices']} vertices / "
          f"{large['graph']['num_edges']} edges, max degree "
          f"{large['graph']['max_degree']}): generate "
          f"{large['generate_s']:.1f}s, evaluate {large['evaluate_s']:.1f}s "
          f"across {large['num_blocks']} blocks")
    print(f"stats memory: peak {mem['peak_nbytes'] / (1 << 20):.1f} MiB of "
          f"{args.budget / (1 << 20):.0f} MiB budget, "
          f"{mem['evictions']} evictions, {mem['streamed_chunk_passes']} "
          f"streamed chunk passes; process peak RSS "
          f"{large['peak_rss_mib']:.0f} MiB")
    print(f"trajectory: {args.out} ({len(trajectory)} entries)")

    if args.check:
        ok = True
        if mem["peak_nbytes"] > args.budget:
            print(f"FAIL: peak stats memory {mem['peak_nbytes']} B exceeds "
                  f"the {args.budget} B budget", file=sys.stderr)
            ok = False
        if sv["one_block_passes"] != 1 or sv["chunked_passes"] <= 1:
            print(f"FAIL: the SpMM comparison streamed "
                  f"{sv['one_block_passes']} block(s) roomy and "
                  f"{sv['chunked_passes']} tight; expected 1 against many",
                  file=sys.stderr)
            ok = False
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
