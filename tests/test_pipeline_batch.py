"""Compiled bounded-pipeline kernel: exact equality proofs.

:func:`repro.core.pipeline.bounded_pipeline` runs the recurrence through
the C kernel (``src/repro/core/_pipeline.c``) when a compiler is present.
Its reports must be *bit-identical* to the Python reference loop,
:func:`~repro.core.pipeline.bounded_pipeline_reference`, for every series
— ragged lengths, depths, empty and zero-cost lanes, integer and
real-valued times — and both must agree with the independent
discrete-event oracle (:mod:`repro.core.pipeline_sim`) on totals.  The
kernel's build must survive concurrent first use and fall back to the
reference, with identical reports, when it cannot be built or loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.pipeline import (
    PipelineReport,
    bounded_pipeline,
    bounded_pipeline_batch,
    bounded_pipeline_reference,
    pipeline_kernel,
)
from repro.core.pipeline_sim import simulate_pipeline

SRC = Path(__file__).resolve().parent.parent / "src"


def random_series(rng, n):
    scale = float(10 ** rng.integers(0, 4))
    series = rng.random(n) * scale
    # Sprinkle exact zeros (zero-cost granules) and integer-valued times.
    if n:
        if rng.random() < 0.4:
            series[rng.integers(0, n)] = 0.0
        if rng.random() < 0.4:
            series = np.floor(series)
    return series


@pytest.fixture
def compiled(monkeypatch):
    """Run the compiled kernel even when the suite runs under
    ``REPRO_REFERENCE_ENGINE=1``; skip where it cannot be built."""
    monkeypatch.delenv("REPRO_REFERENCE_ENGINE", raising=False)
    if pipeline_kernel() != "compiled":
        pytest.skip("no working C compiler: the compiled PP kernel is not built")


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An empty kernel cache directory and a not-yet-loaded kernel."""
    monkeypatch.delenv("REPRO_REFERENCE_ENGINE", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    pipeline_mod._compiled_kernel.cache_clear()
    yield tmp_path / "repro"
    pipeline_mod._compiled_kernel.cache_clear()


@pytest.mark.usefixtures("compiled")
class TestBatchEqualsScalar:
    def test_fuzz_exact_equality(self):
        """2,000 series, integer and real-valued, depth 1-4."""
        rng = np.random.default_rng(0xB47C4)
        series = 0
        while series < 2000:
            nb = int(rng.integers(1, 16))
            depth = int(rng.integers(1, 5))
            prods, conses = [], []
            for _ in range(nb):
                n = 0 if rng.random() < 0.15 else int(rng.integers(1, 120))
                prods.append(random_series(rng, n))
                conses.append(random_series(rng, n))
            batch = bounded_pipeline_batch(prods, conses, depth=depth)
            for b in range(nb):
                ref = bounded_pipeline_reference(
                    prods[b], conses[b], depth=depth
                )
                # Frozen dataclass equality covers every field: totals,
                # busy sums, stalls, fill — all must match bit-for-bit.
                assert batch[b] == ref
            series += nb

    def test_fuzz_across_chunk_boundaries(self, monkeypatch):
        """A tiny _STEP_CHUNK makes the reference loop cross many of its
        Python-float segment boundaries mid-recurrence."""
        monkeypatch.setattr(pipeline_mod, "_STEP_CHUNK", 7)
        rng = np.random.default_rng(0xC04)
        for _ in range(100):
            nb = int(rng.integers(8, 20))
            depth = int(rng.integers(1, 4))
            prods = [random_series(rng, int(rng.integers(1, 60))) for _ in range(nb)]
            conses = [random_series(rng, len(p)) for p in prods]
            batch = bounded_pipeline_batch(prods, conses, depth=depth)
            for b in range(nb):
                assert batch[b] == bounded_pipeline_reference(
                    prods[b], conses[b], depth=depth
                )

    def test_real_shaped_series(self):
        """Element-granularity shape: integer producer times 1-70 against
        a constant consumer time of 2.0, about 10^5 granules."""
        rng = np.random.default_rng(0x5EE)
        p = rng.integers(1, 71, 100_003).astype(np.float64)
        c = np.full(len(p), 2.0)
        report = bounded_pipeline(p, c, depth=2)
        assert report == bounded_pipeline_reference(p, c, depth=2)
        assert report.producer_stall > 0 or report.consumer_stall > 0

    def test_strided_and_integer_inputs(self):
        """Non-contiguous views and integer arrays reach the kernel as
        contiguous float64 copies."""
        rng = np.random.default_rng(3)
        p = rng.integers(0, 9, 400)
        c = rng.random(800) * 5
        assert bounded_pipeline(p, c[::2]) == bounded_pipeline_reference(
            p.astype(np.float64), c[::2].copy()
        )

    def test_single_lane_matches_entry_point(self):
        rng = np.random.default_rng(11)
        p, c = rng.random(200), rng.random(200)
        assert bounded_pipeline_batch([p], [c], depth=2)[0] == bounded_pipeline(
            p, c, depth=2
        )

    def test_duplicate_series_shared_arrays(self):
        """The same (read-only) array objects may appear in many lanes."""
        rng = np.random.default_rng(13)
        p, c = rng.random(50), rng.random(50)
        p.setflags(write=False)
        c.setflags(write=False)
        batch = bounded_pipeline_batch([p] * 10, [c] * 10, depth=2)
        ref = bounded_pipeline_reference(p, c, depth=2)
        assert all(report == ref for report in batch)

    def test_empty_batch_and_empty_lanes(self):
        assert bounded_pipeline_batch([], []) == []
        z = np.zeros(0)
        reports = bounded_pipeline_batch([z, z], [z, z], depth=3)
        assert reports == [PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 2

    def test_validation_matches_scalar(self):
        good = np.ones(3)
        bad = np.array([1.0, -2.0, 1.0])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [bad])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [good], depth=0)
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good, good], [good])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [np.ones(4)])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "run",
    [
        bounded_pipeline,
        bounded_pipeline_reference,
        lambda p, c: bounded_pipeline_batch([p], [c]),
    ],
    ids=["bounded_pipeline", "reference", "batch"],
)
def test_non_finite_times_rejected(run, value):
    bad = np.array([1.0, value, 1.0])
    with pytest.raises(ValueError, match="finite"):
        run(bad, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        run(np.ones(3), bad)


class TestBuildAndFallback:
    def _series(self):
        rng = np.random.default_rng(0xFA11)
        return [
            (random_series(rng, n), random_series(rng, n), depth)
            for n, depth in [(0, 2), (1, 1), (57, 2), (300, 3), (4096 + 5, 2)]
        ]

    def test_no_compiler_falls_back_to_identical_reports(
        self, fresh_kernel, monkeypatch
    ):
        cases = self._series()
        expected = [bounded_pipeline_reference(p, c, depth=d) for p, c, d in cases]
        monkeypatch.setattr(pipeline_mod, "_find_compiler", lambda: None)
        assert pipeline_kernel() == "python"
        assert [bounded_pipeline(p, c, depth=d) for p, c, d in cases] == expected
        assert not fresh_kernel.exists()

    def test_unusable_cache_dir_falls_back(self, fresh_kernel, monkeypatch):
        # A regular file where the cache directory should be: mkdir fails.
        fresh_kernel.parent.mkdir(parents=True, exist_ok=True)
        fresh_kernel.write_text("not a directory")
        assert pipeline_kernel() == "python"
        p, c, d = self._series()[2]
        assert bounded_pipeline(p, c, depth=d) == bounded_pipeline_reference(
            p, c, depth=d
        )

    def test_corrupt_library_falls_back(self, fresh_kernel):
        lib = pipeline_mod._library_path()
        lib.parent.mkdir(parents=True)
        lib.write_bytes(b"not an ELF file")
        assert pipeline_kernel() == "python"
        p, c, d = self._series()[3]
        assert bounded_pipeline(p, c, depth=d) == bounded_pipeline_reference(
            p, c, depth=d
        )

    def test_racing_cold_builds_both_load(self, fresh_kernel, compiled, tmp_path):
        """Two processes building into the same cold cache at once both
        end up with a loadable library, and no temporary file is left."""
        for lib in fresh_kernel.glob("*"):
            lib.unlink()
        go = tmp_path / "go"
        script = textwrap.dedent(
            f"""
            import os, time
            from repro.core.pipeline import pipeline_kernel
            while not os.path.exists({str(go)!r}):
                time.sleep(0.001)
            print(pipeline_kernel())
            """
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "XDG_CACHE_HOME": str(tmp_path),
        }
        env.pop("REPRO_REFERENCE_ENGINE", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        go.touch()
        outputs = [proc.communicate(timeout=60)[0].strip() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert outputs == ["compiled", "compiled"]
        assert [lib.suffix for lib in fresh_kernel.iterdir()] == [".so"]


class TestAgainstDiscreteEventOracle:
    def test_fuzz_totals_match_simulation(self):
        """Recurrence vs the independent event-queue actors."""
        rng = np.random.default_rng(0x51A)
        prods, conses = [], []
        for _ in range(40):
            n = int(rng.integers(1, 80))
            prods.append(random_series(rng, n))
            conses.append(random_series(rng, n))
        for depth in (1, 2, 3):
            batch = bounded_pipeline_batch(prods, conses, depth=depth)
            for b, report in enumerate(batch):
                trace = simulate_pipeline(prods[b], conses[b], depth=depth)
                assert report.total_cycles == int(np.ceil(trace.total_time))

    def test_zero_cost_granules_against_oracle(self):
        p = np.array([0.0, 5.0, 0.0, 3.0, 0.0])
        c = np.array([2.0, 0.0, 4.0, 0.0, 1.0])
        report = bounded_pipeline_batch([p], [c], depth=2)[0]
        trace = simulate_pipeline(p, c, depth=2)
        assert report.total_cycles == int(np.ceil(trace.total_time))
        assert report == bounded_pipeline_reference(p, c, depth=2)
