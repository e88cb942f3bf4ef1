"""Regenerate ``pins.json``: the reference outputs the correctness gate
compares against, for the default seed and one held-out seed.

Run from the repository root, only after an intended change to the cost
model or to the benchmark's inputs::

    python3 perfbench/pin.py

The distributed run needs no pin of its own: it must reproduce the
pareto-grid report byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as R  # noqa: E402
import workloads as W  # noqa: E402

SEEDS = (0, 1)  # the default seed and the held-out seed claims are checked on


def pin_batch(workload: str, seed: int, work: Path) -> str:
    workdir = work / f"{workload}-{seed}"
    workdir.mkdir()
    _, result = R.run_child({"mode": "op", "workload": workload, "seed": seed,
                             "workdir": str(workdir), "out": str(workdir / "result.json"),
                             "trace": False})
    check = W.check_sweep if workload == "sweep-citeseer" else W.check_campaign
    problems = check(result, None)
    if problems:
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    return result["digest"]


def pin_serving(seed: int, work: Path) -> dict:
    """Query every key twice (absent keys: live, then index)."""
    universe = W.serve_universe(seed)
    keys = universe["keys"]
    seed_dir = work / f"serve-{seed}"
    seed_dir.mkdir()
    store = seed_dir / "store.jsonl"
    R.run_child({"mode": "build-serve-store", "seed": seed, "store": str(store),
                 "out": str(seed_dir / "expected.json")})
    ctx = {"seed": seed, "traces": work / "traces"}
    child, port, _ = R.start_server(ctx, store, False, "pin")
    table = {}
    try:
        for item in keys:
            body = json.dumps(item["body"]).encode()
            answers = []
            for _ in range(2):
                status, raw = R.request(port, "POST", "/query", body)
                if status != 200:
                    raise SystemExit(f"{item['key']}: HTTP {status} {raw[:200]!r}")
                answers.append(json.loads(raw))
            first, second = answers
            if first["score"] != second["score"] or second["source"] != "index":
                raise SystemExit(f"{item['key']}: inconsistent answers {answers}")
            live = first["fingerprint"] if first["source"] == "live" else None
            table[item["key"]] = [second["score"], second["fingerprint"], live]
    finally:
        child.interrupt()
    return table


def main() -> int:
    pins = {}
    work = R.ROOT / ".perfbench" / "pin-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in W.WORKLOADS:
            for seed in SEEDS:
                if workload == "serve-mixed":
                    value = pin_serving(seed, work)
                else:
                    value = pin_batch(workload, seed, work)
                pins.setdefault(workload, {})[str(seed)] = value
                print(f"pinned {workload} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    W.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
