"""The benchmark's program-side process: set up, run one operation, report.

``run.py`` starts one of these per measured operation so every operation
pays the same cold costs a user's fresh process pays.  Invoked as::

    python3 perfbench/child.py '<json arguments>'

with ``mode`` one of ``probe`` (set up, then exit), ``op`` (set up, run
one timed operation, write the result file), ``build-serve-store`` (make
the serve-mixed seed store) and ``serve`` (run the HTTP server).  The
``op`` kinds are the batch workloads plus ``dist-run``, the pareto-grid
spec through ``dist_run`` (run only in pareto-grid's traced run).  The
child prints ``READY`` on stdout once set up; everything else goes to
the result file named in the arguments.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from layers import Registry, appended_bytes, collect, install, session_counters  # noqa: E402
from tracer import Tracer  # noqa: E402


def ready(extra: str = "") -> None:
    print(f"READY {extra}".strip(), flush=True)


def write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload))


def peak_rss_mib() -> float:
    """Largest resident set of this process and its reaped children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


# ----------------------------------------------------------------------
# Workload set-up and operations.  ``setup`` returns the state ``op``
# needs; the time between process start and READY is the set-up time.
# ----------------------------------------------------------------------

def setup_sweep(args: dict) -> dict:
    from repro.arch.config import AcceleratorConfig
    from repro.core.evaluator import DataflowEvaluator
    from repro.core.workload import workload_from_dataset
    from repro.graphs.datasets import load_dataset

    wl = workload_from_dataset(load_dataset(W.SWEEP_DATASET, seed=args["seed"]))
    ev = DataflowEvaluator(wl, AcceleratorConfig(num_pes=W.SWEEP_PES))
    return {"wl": wl, "ev": ev}


def op_sweep(state: dict, args: dict) -> tuple[dict, dict]:
    from repro.core.enumeration import design_space_stream

    ev = state["ev"]
    t0 = time.perf_counter()
    outcomes = ev.evaluate(design_space_stream(ev))
    wall = time.perf_counter() - t0
    rows = [
        (o.fingerprint, o.cycles if o.ok else None, o.energy_pj if o.ok else None, o.error)
        for o in outcomes
    ]
    return {
        "wall_s": wall,
        "points": len(outcomes),
        "digest": W.sweep_digest(rows),
        "attempted": len(outcomes),
        "failed": 0,
    }, {"outcomes": outcomes, "rows": rows}


def crosscheck_sweep(state: dict, args: dict, held: dict) -> list[dict]:
    """Re-evaluate seeded sample points one at a time through the public
    single-candidate path and compare with the batched sweep."""
    from repro import api
    from repro.errors import ReproError

    outcomes, rows = held["outcomes"], held["rows"]
    picks = random.Random(f"sweep-crosscheck:{args['seed']}").sample(
        range(len(outcomes)), W.SWEEP_CROSSCHECK
    )
    checks = []
    for i in picks:
        try:
            res = api.evaluate(state["wl"], outcomes[i].dataflow, num_pes=W.SWEEP_PES)
            single = [res.total_cycles, res.energy.total_pj]
        except (ReproError, ValueError):
            single = "illegal"
        batched = rows[i][1:3] if rows[i][3] is None else "illegal"
        checks.append({"index": i, "batched": list(batched) if batched != "illegal" else batched,
                       "single": single})
    return checks


def setup_campaign(args: dict) -> dict:
    from repro.analysis.store import ResultStore
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.from_dict(W.campaign_spec(args["seed"])).validate()
    path = Path(args["workdir"]) / "pareto.jsonl"
    return {"spec": spec, "store": ResultStore(path, resume=False), "path": path}


def op_campaign(state: dict, args: dict) -> tuple[dict, dict]:
    from repro import api

    t0 = time.perf_counter()
    try:
        report = api.run_campaign(state["spec"], store=state["store"])
    finally:
        state["store"].close()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, **campaign_result(report, state["path"]), "attempted": len(report.units),
            "failed": 0}, {"report": report}


def campaign_result(report, store_path: Path) -> dict:
    with open(store_path, "rb") as fh:
        records = sum(1 for line in fh if line.strip())
    return {
        "digest": W.text_digest(report.canonical_json()),
        "units": [[u.dataset, u.hw] for u in report.units],
        "rows": [
            {"search_score": u.rows[0]["search_score"], "evaluated": u.rows[0]["evaluated"]}
            for u in report.units
        ],
        "stats": dict(report.stats),
        "cache": dict(report.cache or {}),
        "store_records": records,
    }


def setup_dist(args: dict) -> dict:
    from repro.campaign.spec import CampaignSpec

    path = Path(args["workdir"]) / "pareto-grid.json"
    CampaignSpec.from_dict(W.campaign_spec(args["seed"])).validate().save(path)
    return {"spec_path": path, "out": Path(args["workdir"]) / "dist.jsonl"}


def op_dist(state: dict, args: dict) -> tuple[dict, dict]:
    from repro import api
    from repro.errors import DistributedError

    t0 = time.perf_counter()
    try:
        res = api.dist_run(state["spec_path"], workers=2, out=state["out"])
    except DistributedError as exc:
        # Shard exhaustion: every unit of the campaign failed.
        print(f"dist-run failed: {exc}", file=sys.stderr)
        return {"wall_s": time.perf_counter() - t0, "attempted": len(W.grid_units()),
                "failed": len(W.grid_units()), "error": str(exc)}, {}
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, **campaign_result(res.report, state["out"]),
              "attempts": [a.outcome for a in res.attempts],
              "attempted": len(res.report.units), "failed": 0}
    return result, {"dist": res}


def dist_extra(state: dict, held: dict, registry: Registry) -> dict:
    """Spawn and run times of the shard workers, from their sidecars."""
    from repro.distributed.worker import load_progress, shard_paths

    res = held["dist"]
    spawn, run = [], []
    for shard in range(res.plan.num_shards):
        progress = load_progress(shard_paths(state["out"], shard).progress)
        started = progress.get("started_at")
        if started is None:
            continue
        if shard in registry.launches:
            spawn.append(started - registry.launches[shard])
        run.append(progress.get("heartbeat_at", started) - started)
    return {
        "distributed.retries": sum(1 for a in res.attempts if a.outcome != "done"),
        "distributed.spawn_s": max(spawn, default=0.0),
        "distributed.worker_run_s": max(run, default=0.0),
    }


SETUP = {"sweep-citeseer": setup_sweep, "pareto-grid": setup_campaign, "dist-run": setup_dist}
OPS = {"sweep-citeseer": op_sweep, "pareto-grid": op_campaign, "dist-run": op_dist}


def run_op(args: dict) -> None:
    import numpy

    workload = args["workload"]
    tracer = registry = None
    if args.get("trace"):
        tracer, registry = Tracer(), Registry()
        install(tracer, registry)

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    with span("benchmark.setup"):
        state = SETUP[workload](args)
    ready()
    with span("benchmark.op"):
        result, held = OPS[workload](state, args)
    if tracer is not None:
        tracer.uninstall()
    # Taken before the correctness cross-check, which is not the operation.
    result["peak_rss_mib"] = peak_rss_mib()
    result["numpy"] = numpy.__version__
    if workload == "sweep-citeseer":
        result["crosscheck"] = crosscheck_sweep(state, args, held)
    if tracer is not None and not result["failed"]:
        if workload == "dist-run":
            stats = held["dist"].report.stats
            cache = held["dist"].report.cache or {}
            extra = dist_extra(state, held, registry)
        else:
            stats, cache = session_counters(registry.sessions)
            extra = {}
        extra["analysis.store.bytes"] = appended_bytes(registry)
        result["layers"] = collect(tracer.summary(), stats=stats, cache=cache, extra=extra)
        tracer.write_chrome(args["trace_file"])
    write_json(args["out"], result)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

def build_serve_store(args: dict) -> None:
    """Make the seed store: one in-process search per present key.

    ``max_distance=0`` makes every present key a live search (a nearby
    workload's entry must not answer for it), so the store holds an
    exact entry per present key.  The searches' scores are what the
    server must later answer with from its index.
    """
    import numpy
    from repro.campaign.spec import HardwarePoint
    from repro.graphs.csr import CSRGraph
    from repro.graphs.datasets import load_dataset
    from repro.serving.service import DataflowService

    ready()
    universe = W.serve_universe(args["seed"])
    expected = {}
    with DataflowService(store=args["store"], max_distance=0.0, seed=args["seed"]) as svc:
        for item in universe["keys"]:
            if not item["present"]:
                continue
            body = item["body"]
            if "dataset" in body:
                ds = load_dataset(body["dataset"], seed=args["seed"])
                graph, f, g, name = ds.graph, ds.num_features, ds.hidden, body["dataset"]
            else:
                graph = CSRGraph.from_edges(
                    body["graph"]["num_vertices"], [tuple(e) for e in body["graph"]["edges"]]
                )
                f, g, name = body["in_features"], body["out_features"], body["name"]
            hw = HardwarePoint.from_dict(
                {k: body[k] for k in ("num_pes", "bandwidth") if k in body}
            )
            ans = svc.query(graph, in_features=f, out_features=g, hw=hw, name=name)
            if ans.source != "live":
                raise SystemExit(f"seed store: {item['key']} answered from {ans.source}")
            expected[item["key"]] = ans.score
    write_json(args["out"], {"expected": expected, "numpy": numpy.__version__})


def run_server(args: dict) -> None:
    """Serve the given store until SIGINT, then write the process's peak
    RSS and, when traced, the per-layer summary.  Its unattributed time
    is the request handling outside ``serving.query``."""
    from repro import api
    from repro.serving.spec import ServeSpec

    tracer = registry = None
    if args.get("trace"):
        tracer, registry = Tracer(), Registry()
        install(tracer, registry)
    spec = ServeSpec(name="serve-mixed", store=args["store"], seed=args["seed"], port=0).validate()
    api.serve(spec, ready=lambda server: ready(str(server.port)))
    out = {"peak_rss_mib": peak_rss_mib()}
    if tracer is not None:
        tracer.uninstall()
        stats, cache = session_counters(registry.sessions)
        summary = tracer.summary()
        extra = {
            "analysis.store.bytes": appended_bytes(registry),
            "trace.unattributed_s": registry.request_s
            - summary.get("serving.query", {}).get("total_s", 0.0),
        }
        out["layers"] = collect(summary, stats=stats, cache=cache, extra=extra)
        tracer.write_chrome(args["trace_file"])
    write_json(args["out"], out)


def run_probe(args: dict) -> None:
    SETUP[args["workload"]](args)
    ready()


def main() -> None:
    # Unwind on SIGTERM so the program's own finally blocks stop its
    # subprocesses (e.g. distributed shard workers).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = json.loads(sys.argv[1])
    {
        "probe": run_probe,
        "op": run_op,
        "build-serve-store": build_serve_store,
        "serve": run_server,
    }[args["mode"]](args)


if __name__ == "__main__":
    main()
