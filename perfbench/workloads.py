"""Seeded inputs, output digests and correctness gates of the benchmark.

Everything here is pure Python and imports nothing from the program, so
the orchestrator (``run.py``) can use it without loading ``repro``.
Every input is a function of the workload seed alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep-citeseer", "pareto-grid", "serve-mixed")

PINS_PATH = Path(__file__).resolve().with_name("pins.json")

# The sweep's reference point: the paper's 512-PE accelerator.
SWEEP_DATASET = "citeseer"
SWEEP_PES = 512
SWEEP_POINTS = 6656
SWEEP_CROSSCHECK = 8  # sampled points re-evaluated one at a time

# pareto-grid (and its distributed twin): 7 Table IV datasets x 12 hardware points.
GRID_DATASETS = ("mutag", "proteins", "imdb-bin", "collab", "reddit-bin", "citeseer", "cora")
GRID_PES = (512, 1024, 2048)
GRID_BANDWIDTHS = (None, 32, 64, 128)

# serve-mixed traffic.  collab is left out of the named datasets: its
# 0.7 s synthesis would make one cold query the whole latency tail.
SERVE_DATASETS = ("mutag", "proteins", "imdb-bin", "reddit-bin", "citeseer", "cora")
SERVE_INLINE_GRAPHS = 44
SERVE_PRESENT_HW = ({"num_pes": 512}, {"num_pes": 1024}, {"num_pes": 256, "bandwidth": 64})
SERVE_QUERIES = 1200  # one pass; at least 1,000 so p99 has 10+ samples beyond it
SERVE_ZIPF_S = 1.0
SERVE_CONNECTIONS = 2


# ----------------------------------------------------------------------
# Campaign inputs
# ----------------------------------------------------------------------

def campaign_spec(seed: int) -> dict:
    """The pareto-grid campaign spec (also run through ``dist_run``)."""
    hardware = []
    for pes in GRID_PES:
        for bw in GRID_BANDWIDTHS:
            point = {"num_pes": pes}
            if bw is not None:
                point["bandwidth"] = bw
            hardware.append(point)
    return {
        "name": "pareto-grid",
        "datasets": list(GRID_DATASETS),
        "hardware": hardware,
        "source": {"kind": "pareto"},
        "objective": "cycles",
        "budget": None,
        "seed": seed,
    }


def grid_units() -> list[tuple[str, str]]:
    """(dataset, hardware key) of every campaign unit, in grid order."""
    keys = []
    for pes in GRID_PES:
        for bw in GRID_BANDWIDTHS:
            keys.append(hw_key({"num_pes": pes, "bandwidth": bw}))
    return [(ds, key) for ds in GRID_DATASETS for key in keys]


def hw_key(point: dict) -> str:
    """Hardware key in the program's ``pes512-bw64`` form."""
    parts = [f"pes{point['num_pes']}"]
    if point.get("bandwidth") is not None:
        parts.append(f"bw{point['bandwidth']}")
    return "-".join(parts)


# ----------------------------------------------------------------------
# Serving inputs
# ----------------------------------------------------------------------

def _inline_graph(rng: random.Random, index: int) -> dict:
    """Inline graph ``index``: its size, degree and feature widths depend
    on the index alone, its edges on the seed, so every seed asks the
    service for the same amount of work."""
    n = SERVE_INLINE_GRAPHS
    num_vertices = 16 + 144 * index // (n - 1)
    target = int(num_vertices * (1.5 + 4.5 * (index * 7 % n) / (n - 1)))
    edges: set[tuple[int, int]] = set()
    while len(edges) < target:
        src = rng.randrange(num_vertices)
        dst = rng.randrange(num_vertices)
        if src != dst:
            edges.add((src, dst))
    return {
        "id": f"g{index}",
        "graph": {"num_vertices": num_vertices, "edges": sorted(edges)},
        "in_features": (16, 32, 64, 128, 256, 512)[index % 6],
        "out_features": (2, 4, 8, 16, 32)[index // 6 % 5],
    }


def serve_universe(seed: int) -> dict:
    """Keys, request bodies and the query sequence of serve-mixed.

    A key is one (workload, hardware point).  Four fifths of the keys
    are *present*: the seed store holds their search results, so they
    answer from the index.  One fifth are *absent*: each sits on a
    hardware point no other key uses, so its first query always misses,
    runs a live search and appends to the store, and later queries hit
    the index.  Every key is queried once per pass; the remaining
    queries are drawn Zipf-style over a fixed popularity ranking.  The
    seed draws the inline graphs' edges and the queries, not the amount
    of work: a pass runs one live search per absent key for any seed.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    workloads = [{"id": name, "dataset": name} for name in SERVE_DATASETS]
    workloads += [_inline_graph(rng, i) for i in range(SERVE_INLINE_GRAPHS)]
    keys = []
    for wl in workloads:
        for point in SERVE_PRESENT_HW:
            keys.append(_key(wl, point, present=True))
    for i in range(len(keys) // 4):
        point = {"num_pes": (128, 256, 512, 1024)[i % 4], "bandwidth": 3 + 2 * i}
        keys.append(_key(workloads[i % len(workloads)], point, present=False))
    ranking = list(range(len(keys)))
    random.Random("serve-mixed-ranking").shuffle(ranking)
    weights = [0.0] * len(keys)
    for rank, k in enumerate(ranking):
        weights[k] = 1.0 / (rank + 1) ** SERVE_ZIPF_S
    sequence = list(range(len(keys)))
    sequence += rng.choices(range(len(keys)), weights=weights, k=SERVE_QUERIES - len(keys))
    rng.shuffle(sequence)
    warmup = [len(SERVE_PRESENT_HW) * i for i in range(len(SERVE_DATASETS) + 1)]
    return {"keys": keys, "sequence": sequence, "warmup": warmup}


def _key(wl: dict, point: dict, *, present: bool) -> dict:
    body = {k: v for k, v in wl.items() if k != "id"}
    if "graph" in body:
        body["name"] = wl["id"]
    body.update({k: v for k, v in point.items() if v is not None})
    return {"key": f"{wl['id']}@{hw_key(point)}", "present": present, "body": body}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def _rank(p: float, n: int) -> int:
    # Rounded first so 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int, ladder=(50.0, 90.0, 99.0, 99.9)) -> float | None:
    """The highest percentile of ``ladder`` with at least 10 of ``n``
    samples beyond it (nearest rank), or ``None`` if none qualifies."""
    best = None
    for p in ladder:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# ----------------------------------------------------------------------
# Digests and gates
# ----------------------------------------------------------------------

def sweep_digest(rows: list[tuple]) -> str:
    """Digest of (fingerprint, cycles, energy, error) per design point."""
    h = hashlib.sha256()
    for fp, cycles, energy, error in rows:
        h.update(f"{fp}|{cycles}|{energy!r}|{error}\n".encode())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())


def pinned(pins: dict, workload: str, seed: int):
    """The pinned reference for (workload, seed), or ``None``."""
    return pins.get(workload, {}).get(str(seed))


def check_sweep(result: dict, pin) -> list[str]:
    problems = []
    if result["points"] != SWEEP_POINTS:
        problems.append(f"{result['points']} design points, expected {SWEEP_POINTS}")
    for item in result["crosscheck"]:
        if item["batched"] != item["single"]:
            problems.append(f"point {item['index']}: batched {item['batched']} != single {item['single']}")
    if pin is not None and result["digest"] != pin:
        problems.append(f"sweep digest {result['digest'][:16]} != pinned {pin[:16]}")
    return problems


def check_campaign(result: dict, pin) -> list[str]:
    problems = []
    units = [tuple(u) for u in result["units"]]
    if units != grid_units():
        problems.append(f"report units {units[:3]}... differ from the grid order")
    for unit, row in zip(units, result["rows"]):
        if not row["search_score"] > 0 or row["evaluated"] < 1:
            problems.append(f"unit {unit}: empty search row {row}")
    stats = result["stats"]
    if stats["evaluated"] != stats["persisted"] + stats["errors_persisted"] or stats["store_skips"]:
        problems.append(f"evaluations and store writes disagree: {stats}")
    if result["store_records"] != stats["persisted"]:
        problems.append(f"store holds {result['store_records']} records, report says {stats['persisted']}")
    for outcome in result.get("attempts", []):
        if outcome != "done":
            problems.append(f"shard attempt ended {outcome!r}")
    if pin is not None and result["digest"] != pin:
        problems.append(f"report digest {result['digest'][:16]} != pinned {pin[:16]}")
    return problems


def check_serving(answers: list[dict], universe: dict, expected: dict, pin) -> list[str]:
    """Gate one run's serving answers.

    ``answers`` are the 200 responses ``{"key", "source", "exact",
    "score", "fingerprint"}``; ``expected`` maps each present key to the
    score its seed-store search found.  Per key the score must never
    change, present keys must be exact index hits with the seed-store
    score, each absent key must run exactly one live search per pass
    (``passes`` of them), and pinned seeds must match the pinned
    ``[score, index fingerprint, live fingerprint]`` of every key.
    """
    problems = []
    present = {k["key"]: k["present"] for k in universe["keys"]}
    by_key: dict[str, list[dict]] = {}
    for ans in answers:
        by_key.setdefault(ans["key"], []).append(ans)
    for key, group in sorted(by_key.items()):
        scores = {a["score"] for a in group}
        if len(scores) != 1:
            problems.append(f"{key}: scores differ across answers {sorted(scores)}")
        if not all(a["exact"] for a in group):
            problems.append(f"{key}: non-exact answer")
        index_fps = {a["fingerprint"] for a in group if a["source"] == "index"}
        if len(index_fps) > 1:
            problems.append(f"{key}: index answers disagree")
        sources = [a["source"] for a in group]
        if present[key]:
            if set(sources) != {"index"}:
                problems.append(f"{key}: present key answered from {sorted(set(sources))}")
            elif group[0]["score"] != expected[key]:
                problems.append(f"{key}: score {group[0]['score']} != seed store {expected[key]}")
        elif sources.count("live") != len({a["pass"] for a in group}) or set(sources) - {"live", "index"}:
            problems.append(f"{key}: absent key sources {sources}")
        if pin is not None:
            ref = pin.get(key)
            if ref is None:
                problems.append(f"{key}: not in the pinned table")
                continue
            for a in group:
                want_fp = ref[1] if a["source"] == "index" else ref[2]
                if a["score"] != ref[0] or a["fingerprint"] != want_fp:
                    problems.append(f"{key}: {a['source']} answer differs from the pin")
                    break
    return problems
