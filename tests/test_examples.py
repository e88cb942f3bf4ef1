"""Smoke tests: every example script must run end to end.

Each example is executed as a subprocess (the way a user runs it); slow
parameterizations are swapped for fast ones via argv where supported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"


def run_example(name: str, *argv: str, timeout: int = 300) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "cycles:" in out and "Seq baseline" in out


def test_taxonomy_tour():
    out = run_example("taxonomy_tour.py")
    assert "6656" in out
    assert "pipeline-compatible AC loop-order pairs: 8" in out


def test_dataflow_comparison_fast_dataset():
    out = run_example("dataflow_comparison.py", "mutag")
    assert "best runtime" in out
    assert "SPhighV" in out


def test_recommendation_dlrm():
    out = run_example("recommendation_dlrm.py")
    assert "DLRM" in out and "best parallel split" in out


def test_load_balancing_study():
    out = run_example("load_balancing_study.py")
    assert "best allocation for collab" in out
    assert "best allocation for citeseer" in out


def test_generate_report(tmp_path):
    out = run_example("generate_report.py", str(tmp_path))
    assert "wrote 63 records" in out
    assert (tmp_path / "table5_sweep.jsonl").exists()


@pytest.mark.slow
def test_multilayer_gcn():
    out = run_example("multilayer_gcn.py")
    assert "flexibility gain" in out


@pytest.mark.slow
def test_mapping_search_fast_args():
    out = run_example("mapping_search.py", "mutag", "cycles")
    assert "search gain" in out


def test_serve_client(tmp_path):
    """End to end: a served store answers the script client's warm check,
    and a cold dataset persists records (the CI smoke, in miniature)."""
    import asyncio
    import threading

    sys.path.insert(0, str(SRC))
    try:
        from repro import api
        from repro.serving import DataflowServer, ServeSpec
    finally:
        sys.path.pop(0)

    campaign_store = tmp_path / "campaign.jsonl"
    api.sweep("citeseer", store=campaign_store)

    spec = ServeSpec(
        name="example-test",
        store=str(tmp_path / "serving.jsonl"),
        attach=[str(campaign_store)],
        live_budget=9,
        port=0,
    )
    service = spec.build_service()
    server = DataflowServer(service, host=spec.host, port=0,
                            timeout=spec.timeout, max_queue=spec.max_queue,
                            name=spec.name)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run_server():
        asyncio.set_event_loop(loop)

        async def main():
            await server.start()
            started.set()
            await server.serve_forever()

        try:
            loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    url = f"http://{server.host}:{server.port}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    try:
        hist = tmp_path / "latency.json"
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "serve_client.py"),
             "--url", url, "--dataset", "citeseer", "--repeat", "2",
             "--expect-source", "index", "--warm-under", "5000",
             "--histogram", str(hist)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "index" in proc.stdout
        assert hist.exists()

        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "serve_client.py"),
             "--url", url, "--dataset", "mutag", "--repeat", "2",
             "--expect-source", "live", "--assert-cold-persists"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
    finally:
        # Closing the server ends serve_forever; the loop then finishes
        # run_until_complete by itself and the thread exits.
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30)
        thread.join(timeout=30)
        assert not thread.is_alive(), "server thread did not exit"
        loop.close()
        service.close()
