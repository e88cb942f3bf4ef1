"""Bounded two-stage pipeline model for the PP inter-phase dataflow.

The paper's PP dataflow (§IV-C, Fig. 7a) runs producer and consumer phases
on disjoint PE partitions, staging granules of the intermediate matrix
through a ping-pong buffer.  With ``depth`` buffer banks the producer may
run at most ``depth`` granules ahead of the consumer; the steady-state
runtime is the paper's ``sum(max(t_AGG, t_CMB)_Pel)`` plus the pipeline
fill, and the recurrence below models the transient stalls exactly:

    prod_done[i] = max(prod_done[i-1], cons_done[i-depth]) + t_prod[i]
    cons_done[i] = max(prod_done[i],  cons_done[i-1])      + t_cons[i]

Load imbalance between partitions (Fig. 14) shows up as producer or
consumer idle time, which :class:`PipelineReport` quantifies.

The recurrence is inherently sequential (each granule depends on the
previous one), and element-granularity series run to millions of
granules, so it has two implementations of the same loop:

- the **compiled kernel** (default): ``_pipeline.c``, a plain C loop
  built with the system C compiler on the first call (never at import)
  into a cache directory keyed by the source, flags and platform, and
  called through :mod:`ctypes`;
- the **reference**: :func:`bounded_pipeline_reference`, the same loop
  over Python floats.  It is the oracle the compiled kernel is fuzz-
  proved bit-identical against (``tests/test_pipeline_batch.py``), the
  path ``REPRO_REFERENCE_ENGINE=1`` selects, and the fallback when no
  compiler is present or the build or load fails.

Both perform the same IEEE double operations in the same order, so their
reports are equal field for field; :func:`pipeline_kernel` says which one
runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "PipelineReport",
    "bounded_pipeline",
    "bounded_pipeline_batch",
    "bounded_pipeline_reference",
    "pipeline_kernel",
]

# Granules per Python-float segment of the reference loop: converting a
# multi-million-granule series with one ``tolist()`` would hold it all as
# boxed floats at once.
_STEP_CHUNK = 4096

_SOURCE = Path(__file__).with_name("_pipeline.c")
# -ffp-contract=off and no -ffast-math: the C loop must round every
# operation exactly as the Python reference does (no fused or reordered
# arithmetic).
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_PLATFORM = f"{sys.platform}-{platform.machine()}"


@dataclass(frozen=True)
class PipelineReport:
    """Timing summary of one pipelined execution."""

    total_cycles: int
    num_granules: int
    producer_busy: float
    consumer_busy: float
    producer_stall: float  # waiting for buffer space
    consumer_stall: float  # waiting for data
    fill_cycles: float  # first granule's production latency

    @property
    def producer_utilization(self) -> float:
        return self.producer_busy / self.total_cycles if self.total_cycles else 0.0

    @property
    def consumer_utilization(self) -> float:
        return self.consumer_busy / self.total_cycles if self.total_cycles else 0.0


_EMPTY = PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _check_series(prod, cons, depth: int) -> tuple[np.ndarray, np.ndarray]:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p = np.asarray(prod, dtype=np.float64)
    c = np.asarray(cons, dtype=np.float64)
    if p.shape != c.shape or p.ndim != 1:
        raise ValueError("producer/consumer series must be equal-length 1-D arrays")
    if not (np.isfinite(p).all() and np.isfinite(c).all()):
        raise ValueError("granule times must be finite")
    if np.any(p < 0) or np.any(c < 0):
        raise ValueError("granule times must be non-negative")
    return p, c


def _report(
    p: np.ndarray, c: np.ndarray, total: float, prod_stall: float, cons_stall: float
) -> PipelineReport:
    return PipelineReport(
        total_cycles=math.ceil(total),
        num_granules=len(p),
        producer_busy=float(p.sum()),
        consumer_busy=float(c.sum()),
        producer_stall=prod_stall,
        consumer_stall=cons_stall,
        fill_cycles=float(p[0]),
    )


def bounded_pipeline_reference(
    prod: np.ndarray, cons: np.ndarray, *, depth: int = 2
) -> PipelineReport:
    """The recurrence as a Python loop: the oracle and the fallback.

    ``window`` holds the last ``depth`` consumer-done times.  Python
    floats are the same IEEE doubles as numpy's, and every ``max``/``+``
    below is the exact operation ``_pipeline.c`` performs, in the same
    order.
    """
    p, c = _check_series(prod, cons, depth)
    n = len(p)
    if n == 0:
        return _EMPTY
    prod_done = cons_done = prod_stall = cons_stall = 0.0
    window = [0.0] * depth
    for pos in range(0, n, _STEP_CHUNK):
        p_seg = p[pos : pos + _STEP_CHUNK].tolist()
        c_seg = c[pos : pos + _STEP_CHUNK].tolist()
        for i, p_i, c_i in zip(range(pos, n), p_seg, c_seg):
            slot = i % depth
            start_p = prod_done
            if i >= depth and window[slot] > start_p:
                prod_stall += window[slot] - start_p
                start_p = window[slot]
            prod_done = start_p + p_i
            waited_c = cons_done if cons_done > prod_done else prod_done
            cons_stall += waited_c - cons_done
            cons_done = waited_c + c_i
            window[slot] = cons_done
    return _report(p, c, cons_done, prod_stall, cons_stall)


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _library_path() -> Path:
    """Where the kernel built from this source, with these flags, for this
    platform lives: ``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``)."""
    key = b"\0".join(
        [_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(), _PLATFORM.encode()]
    )
    tag = hashlib.sha256(key).hexdigest()[:16]
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / f"_pipeline-{tag}.so"


@functools.cache
def _compiled_kernel():
    """Build (once per source/flags/platform) and load the C kernel.

    Returns the ctypes function, or ``None`` when there is no compiler or
    the build or load fails.  Concurrent first calls from several
    processes each compile to a private temporary file and ``os.replace``
    it into place, so every process loads a complete library (and a
    library some process has mapped is never rewritten in place).
    """
    try:
        target = _library_path()
        if not target.exists():
            cc = _find_compiler()
            if cc is None:
                return None
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
            os.close(fd)
            try:
                subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
                    check=True,
                    capture_output=True,
                )
                os.replace(tmp, target)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
        fn = ctypes.CDLL(str(target)).bounded_pipeline_run
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    fn.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_double),
    ]
    fn.restype = None
    return fn


def pipeline_kernel() -> str:
    """Which implementation :func:`bounded_pipeline` runs: ``"compiled"``
    or ``"python"`` (the reference, under ``REPRO_REFERENCE_ENGINE=1`` or
    when the C kernel cannot be built or loaded).  The first call may
    build the kernel."""
    # Lazy: engine.cycle_model imports repro.core.
    from ..engine.cycle_model import use_reference_engine

    if use_reference_engine() or _compiled_kernel() is None:
        return "python"
    return "compiled"


def bounded_pipeline(
    prod: np.ndarray, cons: np.ndarray, *, depth: int = 2
) -> PipelineReport:
    """Run the bounded-buffer pipeline recurrence for one candidate.

    ``prod[i]``/``cons[i]`` are the cycles to produce/consume granule ``i``.
    ``depth`` is the number of ping-pong banks (2 in the paper).  The
    report is bit-identical to :func:`bounded_pipeline_reference`'s.
    """
    if pipeline_kernel() == "python":
        return bounded_pipeline_reference(prod, cons, depth=depth)
    p, c = map(np.ascontiguousarray, _check_series(prod, cons, depth))
    if len(p) == 0:
        return _EMPTY
    window = (ctypes.c_double * depth)()
    out = (ctypes.c_double * 3)()
    _compiled_kernel()(p.ctypes.data, c.ctypes.data, len(p), depth, window, out)
    return _report(p, c, *out)


def bounded_pipeline_batch(
    prod_series: Sequence[np.ndarray],
    cons_series: Sequence[np.ndarray],
    *,
    depth: int = 2,
) -> list[PipelineReport]:
    """:func:`bounded_pipeline` for each ``(prod_series[b], cons_series[b])``
    pair (series may differ in length across the batch, or be empty)."""
    if len(prod_series) != len(cons_series):
        raise ValueError("batch needs one consumer series per producer series")
    return [
        bounded_pipeline(p, c, depth=depth) for p, c in zip(prod_series, cons_series)
    ]
