"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-citeseer --seed 0 --seconds 10 --trace 0

Workloads (inputs are generated from ``--seed``):

- ``sweep-citeseer``: all 6,656 design points on CiteSeer at 512 PEs
  through ``DataflowEvaluator.evaluate(design_space_stream(ev))``;
- ``pareto-grid``: one ``repro.api.run_campaign`` of the Pareto search
  over 7 datasets x 12 hardware points into a fresh store;
- ``serve-mixed``: a closed loop of 2 HTTP connections, driven from one
  client thread, against a ``repro.api.serve`` subprocess over a seed
  store, Zipf-drawn keys, one fifth of them absent from the store (live
  searches); client and server share one CPU.

Operations run in child processes (``child.py``), repeated until
``--seconds`` have passed and at least ``MIN_OPS`` times.  ``--trace 0``
prints the end-to-end metrics ``setup_s``, ``wall_s`` and
``peak_rss_mib``; ``--trace 1`` runs one untraced and one traced
operation and prints the per-layer metrics of ``layers.PER_LAYER``.
pareto-grid's traced run also runs the same spec through
``repro.api.dist_run`` with 2 shard workers, for the ``distributed.*``
metrics; its report must equal the sequential one byte for byte.
Every operation's output is checked (``workloads.check_*``); a mismatch
prints ``"correct": false`` with no metrics and exits 1.  The last stdout line is the result JSON;
the line before it is the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from layers import PER_LAYER  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}  # name -> unit
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
# Operations per untraced run at least; wall_s is their median.  On a
# 2-vCPU host one sweep takes 25-60 s and one campaign 11-24 s, so more
# would not fit 22 runs per workload into the benchmark's time budget.
# A serve-mixed pass takes about 3 s, so it gets five: a run then
# measures over a window nearer the batch workloads', which steadies its
# median.
MIN_OPS = {"sweep-citeseer": 1, "pareto-grid": 2, "serve-mixed": 5}
CHILD_TIMEOUT = 170.0  # seconds any single child may take
QUERY_TIMEOUT = 30.0  # seconds a query may take before it counts as failed
HOST = "127.0.0.1"


class BenchError(RuntimeError):
    """A child failed or misbehaved; the run cannot produce a result."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

class Child:
    """One ``child.py`` process with a line reader on its stdout."""

    def __init__(self, args: dict) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(args)],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.strip())
        self.lines.put(None)

    def wait_ready(self) -> tuple[float, str]:
        """Seconds from launch to the child's READY line, and the line."""
        deadline = self.started + CHILD_TIMEOUT
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                raise BenchError("child did not become ready in time") from None
            if line is None:
                raise BenchError(f"child exited with {self.proc.wait()} before READY")
            if line.startswith("READY"):
                return time.perf_counter() - self.started, line

    def finish(self) -> None:
        remaining = self.started + CHILD_TIMEOUT - time.perf_counter()
        try:
            rc = self.proc.wait(timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("child timed out") from None
        self._close()
        if rc != 0:
            raise BenchError(f"child exited with {rc}")

    def interrupt(self) -> None:
        """SIGINT (graceful server shutdown), then wait."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop on SIGINT") from None
        self._close()

    def kill(self) -> None:
        """SIGTERM (the child cleans up its own processes), then SIGKILL."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        self._reader.join(timeout=5)
        if self.proc.stdout:
            self.proc.stdout.close()


def run_child(args: dict) -> tuple[float, dict | None]:
    """Run a child to completion: (set-up seconds, result file or None)."""
    child = Child(args)
    try:
        setup, _ = child.wait_ready()
        child.finish()
    except BaseException:
        child.kill()
        raise
    out = args.get("out")
    return setup, json.loads(Path(out).read_text()) if out else None


# ----------------------------------------------------------------------
# Batch workloads: sweep-citeseer, pareto-grid
# ----------------------------------------------------------------------

def run_batch(ctx: dict) -> dict:
    workload, seed = ctx["workload"], ctx["seed"]
    pins = W.load_pins()
    pin = W.pinned(pins, workload, seed)
    check = W.check_sweep if workload == "sweep-citeseer" else W.check_campaign
    n = 0

    def op(trace: bool, kind: str = workload) -> tuple[float, dict]:
        nonlocal n
        n += 1
        workdir = ctx["work"] / f"op{n}"
        workdir.mkdir()
        args = {"mode": "op", "workload": kind, "seed": seed, "workdir": str(workdir),
                "out": str(workdir / "result.json"), "trace": trace,
                "trace_file": str(ctx["traces"] / f"{kind}-seed{seed}.json")}
        setup, result = run_child(args)
        shutil.rmtree(workdir)
        return setup, result

    setups, results = [], []
    dist = None
    if ctx["trace"]:
        for trace in (False, True):
            setup, result = op(trace)
            setups.append(setup)
            results.append(result)
        if workload == "pareto-grid":
            _, dist = op(True, "dist-run")
    else:
        start = time.perf_counter()
        while len(results) < MIN_OPS[workload] or time.perf_counter() - start < ctx["seconds"]:
            setup, result = op(False)
            setups.append(setup)
            results.append(result)
        while len(setups) < SETUP_SAMPLES:
            n += 1
            workdir = ctx["work"] / f"probe{n}"
            workdir.mkdir()
            setups.append(run_child({"mode": "probe", "workload": workload, "seed": seed,
                                     "workdir": str(workdir)})[0])
            shutil.rmtree(workdir)

    problems = []
    ok = [r for r in results if not r["failed"]]
    for result in ok:
        problems += check(result, pin)
    if dist is not None:
        if dist["failed"]:
            problems.append("the distributed run failed")
        else:
            problems += check(dist, pin)
            problems += [f"distributed report {dist['digest'][:16]} != sequential {r['digest'][:16]}"
                         for r in ok if r["digest"] != dist["digest"]]
    ops = results + ([dist] if dist is not None else [])
    out = {
        "attempted": sum(r["attempted"] for r in ops),
        "failed": sum(r["failed"] for r in ops),
        "problems": problems if ok else ["every operation failed"],
        "provenance": {
            "gate": "pinned" if pin is not None else "invariants",
            "operations": len(results),
            "setup_samples": len(setups),
            "numpy": results[0].get("numpy"),
            "digests": sorted({r["digest"] for r in ops if not r["failed"]}),
        },
    }
    if ok and not ctx["trace"]:
        out["metrics"] = {
            "setup_s": W.median(setups),
            "wall_s": W.median([r["wall_s"] for r in ok]),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in ok),
        }
    elif len(ok) == 2 and not problems:
        layers = results[1]["layers"]
        layers["trace.overhead_pct"] = (results[1]["wall_s"] / results[0]["wall_s"] - 1) * 100
        if dist is not None:
            layers.update({k: v for k, v in dist["layers"].items() if k.startswith("distributed.")})
        out["metrics"] = layers
    return out


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

def copy_store(src: Path, dest_dir: Path) -> Path:
    """Copy a store and its sidecars (``<stem>.*``) into ``dest_dir``."""
    dest_dir.mkdir(parents=True)
    for path in src.parent.glob(f"{src.stem}*"):
        shutil.copy2(path, dest_dir / path.name)
    return dest_dir / src.name


def start_server(ctx: dict, store: Path, trace: bool, tag: str) -> tuple["Child", int, float]:
    """Start a server over ``store``; set-up time runs to a 200 /healthz."""
    child = Child({"mode": "serve", "seed": ctx["seed"], "store": str(store), "trace": trace,
                   "out": str(store.parent / "server.json"),
                   "trace_file": str(ctx["traces"] / f"serve-mixed-seed{ctx['seed']}-{tag}.json")})
    try:
        _, line = child.wait_ready()
        port = int(line.split()[1])
        status, _ = request(port, "GET", "/healthz")
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
    except BaseException:
        child.kill()
        raise
    return child, port, time.perf_counter() - child.started


def request_bytes(port: int, method: str, path: str, body: bytes = b"") -> bytes:
    """One complete request; the server closes the connection after answering."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return head.encode("latin-1") + body


def request(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    """(status, body) of one blocking request; a refused, reset or
    timed-out connection raises ``OSError``."""
    with socket.create_connection((HOST, port), timeout=QUERY_TIMEOUT) as sock:
        sock.sendall(request_bytes(port, method, path, body))
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    return parse_response(b"".join(chunks))


def parse_response(raw: bytes) -> tuple[int, bytes]:
    """(status, body) of a complete response; status 0 if malformed."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    parts = head.split(None, 2)
    if not sep or len(parts) < 2 or not parts[1].isdigit():
        return 0, b""
    return int(parts[1]), body


def closed_loop(port: int, requests: list[bytes], order: list[int]) -> tuple[float, list]:
    """Send ``requests[k]`` for each ``k`` of ``order`` from one thread
    over ``SERVE_CONNECTIONS`` connections, each sending its next request
    once its previous answer has arrived (the server closes after each
    answer).  Returns the wall time and ``(k, status, seconds, body)`` per
    query; a refused, reset or timed-out query has status 0."""
    sel = selectors.DefaultSelector()
    cursor = iter(order)
    samples: list = []

    def launch() -> None:
        k = next(cursor, None)
        if k is None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        state = {"k": k, "t0": time.perf_counter(), "out": memoryview(requests[k]),
                 "in": bytearray()}
        sock.connect_ex((HOST, port))
        sel.register(sock, selectors.EVENT_WRITE, state)

    def finish(sock: socket.socket, state: dict, status: int, body: bytes) -> None:
        sel.unregister(sock)
        sock.close()
        samples.append((state["k"], status, time.perf_counter() - state["t0"], body))
        launch()

    start = time.perf_counter()
    try:
        for _ in range(W.SERVE_CONNECTIONS):
            launch()
        while sel.get_map():
            for key, _ in sel.select(timeout=1.0):
                sock, state = key.fileobj, key.data
                try:
                    if state["out"]:
                        sent = sock.send(state["out"])
                        state["out"] = state["out"][sent:]
                        if not state["out"]:
                            sel.modify(sock, selectors.EVENT_READ, state)
                        continue
                    chunk = sock.recv(1 << 16)
                except OSError:
                    finish(sock, state, 0, b"")
                    continue
                if chunk:
                    state["in"] += chunk
                else:
                    finish(sock, state, *parse_response(bytes(state["in"])))
            now = time.perf_counter()
            for key in list(sel.get_map().values()):
                if now - key.data["t0"] > QUERY_TIMEOUT:
                    finish(key.fileobj, key.data, 0, b"")
    finally:
        for key in list(sel.get_map().values()):
            key.fileobj.close()
        sel.close()
    return time.perf_counter() - start, samples


def traffic_pass(port: int, universe: dict, bodies: list[bytes], tag: int) -> dict:
    """Warm the server up on a few present keys, then send the query
    sequence once, timed.  Every answer is kept for the gate."""
    requests = [request_bytes(port, "POST", "/query", body) for body in bodies]
    _, warm = closed_loop(port, requests, universe["warmup"])
    wall, samples = closed_loop(port, requests, universe["sequence"])
    keys = universe["keys"]
    answers, latencies, frontend = [], [], []
    failed = 0
    for n, (k, status, latency, raw) in enumerate(warm + samples):
        timed = n >= len(warm)
        if timed:
            latencies.append(latency * 1e3)
        if status != 200:
            failed += 1
            continue
        ans = json.loads(raw)
        if timed:
            frontend.append(latency * 1e3 - ans["latency_ms"])
        answers.append({"key": keys[k]["key"], "source": ans["source"], "exact": ans["exact"],
                        "score": ans["score"], "fingerprint": ans["fingerprint"], "pass": tag})
    status, raw = request(port, "GET", "/stats")
    return {"wall_s": wall, "attempted": len(warm) + len(samples), "answers": answers,
            "latencies_ms": latencies, "frontend_ms": frontend, "failed": failed,
            "stats": json.loads(raw)}


def run_serve(ctx: dict) -> dict:
    # The client and every server it starts share one CPU (children
    # inherit the affinity).  On a shared VM a closed loop spread over
    # two CPUs waits on the hypervisor to wake an idle CPU at each round
    # trip, which made passes 1.5-2x slower and twice as variable as on
    # one CPU.  The price: a server that used more than one CPU would
    # show no gain here.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seed = ctx["seed"]
    universe = W.serve_universe(seed)
    bodies = [json.dumps(k["body"]).encode() for k in universe["keys"]]
    seed_dir = ctx["work"] / "seed"
    seed_dir.mkdir()
    seed_store = seed_dir / "store.jsonl"
    _, built = run_child({"mode": "build-serve-store", "seed": seed, "store": str(seed_store),
                          "out": str(seed_dir / "expected.json")})
    passes, setups = [], []
    traced_layers = None
    n = 0

    def one_pass(trace: bool) -> None:
        nonlocal n, traced_layers
        n += 1
        store = copy_store(seed_store, ctx["work"] / f"pass{n}")
        child, port, setup = start_server(ctx, store, trace, f"pass{n}")
        setups.append(setup)
        try:
            result = traffic_pass(port, universe, bodies, n)
        finally:
            child.interrupt()
        server = json.loads((store.parent / "server.json").read_text())
        result["peak_rss_mib"] = server["peak_rss_mib"]
        if trace:
            traced_layers = server["layers"]
        shutil.rmtree(store.parent)
        passes.append(result)

    if ctx["trace"]:
        one_pass(False)
        one_pass(True)
    else:
        start = time.perf_counter()
        while len(passes) < MIN_OPS["serve-mixed"] or time.perf_counter() - start < ctx["seconds"]:
            one_pass(False)
        while len(setups) < SETUP_SAMPLES:
            n += 1
            store = copy_store(seed_store, ctx["work"] / f"probe{n}")
            child, _port, setup = start_server(ctx, store, False, f"probe{n}")
            setups.append(setup)
            child.interrupt()
            shutil.rmtree(store.parent)

    answers = [a for p in passes for a in p["answers"]]
    pin = W.pinned(W.load_pins(), "serve-mixed", seed)
    problems = W.check_serving(answers, universe, built["expected"], pin)
    attempted = sum(p["attempted"] for p in passes)
    tail = W.tail_percentile(len(passes[0]["latencies_ms"]))
    out = {
        "attempted": attempted,
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
        "provenance": {
            "gate": "pinned" if pin is not None else "invariants",
            "numpy": built["numpy"],
            "operations": len(passes),
            "setup_samples": len(setups),
            "queries_per_pass": len(universe["sequence"]),
            "distinct_keys": len({a["key"] for a in answers}),
            "live_searches": sum(p["stats"]["live_searches"] for p in passes),
            "highest_tail_percentile": tail,
        },
    }
    if not ctx["trace"]:
        out["metrics"] = {
            "setup_s": W.median(setups),
            "wall_s": W.median([p["wall_s"] for p in passes]),
            "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
        }
        return out
    base, traced = passes
    stats = traced["stats"]
    layers = dict(traced_layers)
    layers.update({
        "serving.frontend_ms.p50": W.percentile(base["frontend_ms"], 50),
        "serving.client.p50_ms": W.percentile(base["latencies_ms"], 50),
        "serving.client.p99_ms": W.percentile(base["latencies_ms"], 99),
        "serving.index_hits": stats["index_hits"],
        "serving.live_searches": stats["live_searches"],
        "serving.coalesced": stats["coalesced"],
        "serving.degraded": stats["degraded"],
        "serving.shed": stats["frontend"]["shed"],
        "serving.timeouts": stats["frontend"]["timeouts"],
        "trace.overhead_pct": (traced["wall_s"] / base["wall_s"] - 1) * 100,
    })
    out["metrics"] = layers
    return out


# ----------------------------------------------------------------------
# Provenance and main
# ----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_identity() -> dict:
    """git SHA and dirty flag when the checkout is a git repository; a
    digest of ``src/`` either way."""
    ident: dict = {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10)
            ident = {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    ident["src_digest"] = h.hexdigest()[:16]
    return ident


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still stops its children (via the finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    state_dir = ROOT / ".perfbench"
    work = state_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "work": work, "traces": state_dir / "traces"}
    try:
        out = run_serve(ctx) if args.workload == "serve-mixed" else run_batch(ctx)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        **source_identity(),
        **out["provenance"],
        "problems": out["problems"],
    }
    print(json.dumps({"provenance": provenance}))
    correct = not out["problems"]
    metrics = {}
    if correct and "metrics" in out:
        units = {name: unit for name, unit, *_ in PER_LAYER} if args.trace else END_TO_END
        metrics = {name: {"value": out["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
    print(json.dumps({"correct": correct and bool(metrics), "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
