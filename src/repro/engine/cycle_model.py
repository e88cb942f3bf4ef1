"""Event-driven cycle-accurate micro-simulator (engine validator).

The tile-level engines in :mod:`repro.engine.gemm`/:mod:`repro.engine.spmm`
use closed-form reuse analysis.  This module computes the same quantities
*independently* by walking the actual tiled loop nest step by step:

- it tracks, per temporal step, which operand tiles changed since the
  previous step (=> distinct elements fetched, split into streamed operands
  and serialized stationary loads),
- which output elements completed their contraction (=> elements drained
  through the collection network) and which were interrupted mid-contraction
  (=> partial-sum spill round trips), and
- feeds those per-step element counts through a three-stage elastic
  pipeline (distribution server -> PE wavefront -> collection server) with
  finite bandwidths.

Because it never uses the engines' formulas, agreement between the two is a
meaningful check; the test suite asserts traffic counts match exactly and
cycle counts match up to pipeline fill/rounding.

Each kernel has one fast path and one oracle:

- the **streamed engine** (default): the loop nest is produced in exact
  iteration order as numpy blocks — flat step ranges for GEMM, vertex-tile
  slabs or neighbor-step bands from the
  :class:`~repro.engine.tilestats.TileStats` sparsity cache for SpMM — and
  the elastic pipeline is a max-plus scan carried across blocks
  (:class:`_PipelineScan`).  One block covers the whole nest when it fits
  the block size; a ``TileStats`` byte budget shrinks the blocks, so peak
  memory stays bounded at any graph size;
- the **reference engine**: the interpreted loops, selected by setting
  ``REPRO_REFERENCE_ENGINE=1`` in the environment.  The equivalence
  suites (``tests/test_engine_vectorized.py``,
  ``tests/test_engine_streamed.py``) prove both produce identical
  :class:`CycleReport`\\ s.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..arch.config import AcceleratorConfig
from ..core.taxonomy import Dim, IntraDataflow, Phase
from ..graphs.csr import CSRGraph
from .gemm import GemmSpec, GemmTiling
from .spmm import SpmmSpec, SpmmTiling
from .tilestats import TileStats, default_byte_budget, resolve_stats

__all__ = [
    "CycleReport",
    "cycle_accurate_gemm",
    "cycle_accurate_spmm",
    "cycle_accurate_gemm_reference",
    "cycle_accurate_spmm_reference",
    "use_reference_engine",
]


def use_reference_engine() -> bool:
    """Whether ``REPRO_REFERENCE_ENGINE`` selects the interpreted loops.

    Read at call time so tests and CI can flip engines per invocation.
    """
    flag = os.environ.get("REPRO_REFERENCE_ENGINE", "")
    return flag.strip().lower() in {"1", "true", "yes", "on"}


@dataclass
class CycleReport:
    """Output of the micro-simulation."""

    cycles: int
    steps: int
    gb_reads: dict[str, float] = field(default_factory=dict)
    gb_writes: dict[str, float] = field(default_factory=dict)
    load_stall_cycles: int = 0
    fill_cycles: int = 0  # first-step distribution latency (pipeline fill)

    def read(self, key: str) -> float:
        return self.gb_reads.get(key, 0.0)

    def write(self, key: str) -> float:
        return self.gb_writes.get(key, 0.0)


def _ranges(extent: int, tile: int) -> list[tuple[int, int]]:
    t = min(max(1, tile), extent)
    return [(lo, min(extent, lo + t)) for lo in range(0, extent, t)]


# ----------------------------------------------------------------------
# Elastic three-stage pipeline
# ----------------------------------------------------------------------

def _pipeline(
    stream_elems: list[float],
    drain_elems: list[float],
    load_cycles: list[int],
    hw: AcceleratorConfig,
) -> tuple[int, int]:
    """Elastic 3-stage pipeline; returns (total_cycles, fill_cycles).

    Distribution and collection are continuous work-conserving servers (up
    to ``bw`` elements per cycle); the PE array retires one tile wavefront
    per cycle once its operands have arrived, and stationary-tile loads
    serialize with compute (no double buffering in the RF).

    All inputs are integer element counts, so the recurrence is evaluated
    in exact rational arithmetic with denominator ``bwd * bwr`` (Python
    ints never overflow): the final ``ceil`` is then deterministic, where
    the historical per-step float accumulation rounded nondeterministically
    when the true value landed on a cycle boundary — and, crucially, the
    vectorized scan (:class:`_PipelineScan`) computes bit-identical
    results because integer max-plus algebra reassociates exactly.
    """
    bwd = hw.effective_dist_bw
    bwr = hw.effective_red_bw
    scale = bwd * bwr
    dist_num = 0  # numerators over `scale`
    compute_num = 0
    collect_num = 0
    fill_num = 0
    for i, (s, w, l) in enumerate(zip(stream_elems, drain_elems, load_cycles)):
        dist_num += int(s) * bwr
        if i == 0:
            fill_num = dist_num
        compute_num = max(compute_num, dist_num) + (1 + l) * scale
        collect_num = max(collect_num, compute_num) + int(w) * bwd
    return -(-collect_num // scale), -(-fill_num // scale)


class _PipelineScan:
    """Vectorized :func:`_pipeline`: the same exact recurrence evaluated
    as max-plus cumulative scans, fed incrementally over per-step blocks.

    With ``d`` the scaled distribution numerators and ``L`` the scaled
    per-step compute latencies, ``compute[i] = max(compute[i-1], d[i]) +
    L[i]`` unrolls to ``max_j<=i (d[j] + sum(L[j..i]))`` — a running
    maximum of ``d - cumsum(L)`` shifted back by ``cumsum(L)``.  The
    collection server is the same scan again, of which only the final
    value is needed.  Both scans decompose into running state carried
    across blocks: the cumulative stream/latency/drain sums, ``A`` = the
    running maximum of ``dist[j] - cum_lat[j-1]`` (seeding the next
    block's ``maximum.accumulate``), and ``B`` = the running maximum of
    ``compute[i] - cum_w[i-1]``.  Because integer max-plus algebra
    reassociates exactly, feeding the same per-step values in the same
    order through any chunking yields bit-identical ``(cycles, fill)``.
    int64 numerators bound the usable problem size (counts x bandwidths
    below ~9e18 — far beyond the "small problems only" scope of this
    validator).
    """

    def __init__(self, hw: AcceleratorConfig) -> None:
        self.bwd = hw.effective_dist_bw
        self.bwr = hw.effective_red_bw
        self.scale = self.bwd * self.bwr
        self._s = 0  # cumulative streamed elements
        self._l = 0  # cumulative scaled compute latency
        self._w = 0  # cumulative scaled drained elements
        self._a = 0  # running max of dist - prior cum_lat
        self._b: int | None = None  # running max of compute - prior cum_w
        self._fill = 0
        self._seen = False

    def feed(
        self,
        stream: np.ndarray,
        drain: np.ndarray,
        load: np.ndarray | None = None,
    ) -> None:
        s = np.asarray(stream, dtype=np.int64)
        if s.size == 0:
            return
        w = np.asarray(drain, dtype=np.int64)
        if load is None:
            lat = np.full(s.size, self.scale, dtype=np.int64)
        else:
            lat = (1 + np.asarray(load, dtype=np.int64)) * self.scale
        dist = (np.add.accumulate(s) + self._s) * self.bwr
        cum_lat = np.add.accumulate(lat) + self._l
        a = dist - (cum_lat - lat)
        if self._seen:
            a[0] = max(int(a[0]), self._a)
        else:
            self._fill = int(dist[0])
            self._seen = True
        np.maximum.accumulate(a, out=a)
        compute = a + cum_lat
        wd = w * self.bwd
        cum_w = np.add.accumulate(wd) + self._w
        b = int(np.max(compute - (cum_w - wd)))
        self._b = b if self._b is None else max(self._b, b)
        self._a = int(a[-1])
        self._s = int(dist[-1]) // self.bwr
        self._l = int(cum_lat[-1])
        self._w = int(cum_w[-1])

    def finish(self) -> tuple[int, int]:
        """``(total_cycles, fill_cycles)`` — :func:`_pipeline` of the
        concatenation of everything fed so far."""
        if not self._seen:
            return 0, 0
        collect_num = int(self._b) + self._w
        return -(-collect_num // self.scale), -(-self._fill // self.scale)


# ----------------------------------------------------------------------
# GEMM micro-simulation
# ----------------------------------------------------------------------

_LEFT_DIMS = (Dim.V, Dim.F)
_RIGHT_DIMS = (Dim.F, Dim.G)


def cycle_accurate_gemm_reference(
    spec: GemmSpec,
    intra: IntraDataflow,
    tiling: GemmTiling,
    hw: AcceleratorConfig,
) -> CycleReport:
    """Walk the tiled GEMM loop nest step by step (interpreted reference)."""
    if intra.phase is not Phase.COMBINATION:
        raise ValueError("cycle_accurate_gemm requires a Combination dataflow")
    sizes = {Dim.V: spec.rows, Dim.F: spec.inner, Dim.G: spec.cols}
    tiles = {Dim.V: tiling.t_v, Dim.F: tiling.t_f, Dim.G: tiling.t_g}
    ranges = {d: _ranges(sizes[d], tiles[d]) for d in sizes}
    order = intra.order
    pos = {d: order.index(d) for d in order}
    mat_dims = {
        spec.left_name: (Dim.V, Dim.F),
        spec.right_name: (Dim.F, Dim.G),
    }
    mat_level = {
        name: max(pos[d] for d in dims) for name, dims in mat_dims.items()
    }
    n_fsteps = len(ranges[Dim.F])
    live = 1
    for d in order[pos[Dim.F] + 1 :]:
        if d in (Dim.V, Dim.G):
            live *= len(ranges[d])
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    spill = n_fsteps > 1 and not psum_resident

    gb_reads: dict[str, float] = {}
    gb_writes: dict[str, float] = {}
    stream_list: list[float] = []
    drain_list: list[float] = []
    load_list: list[int] = []
    last_fetch_key: dict[str, tuple | None] = {n: None for n in mat_dims}
    f_visits: dict[tuple[int, int], int] = {}
    total_load_stalls = 0
    bwd = hw.effective_dist_bw

    steps = 0
    for i0 in range(len(ranges[order[0]])):
        for i1 in range(len(ranges[order[1]])):
            for i2 in range(len(ranges[order[2]])):
                steps += 1
                tidx = {order[0]: i0, order[1]: i1, order[2]: i2}
                bounds = {d: ranges[d][tidx[d]] for d in sizes}
                widths = {d: bounds[d][1] - bounds[d][0] for d in sizes}
                stream = 0.0
                load = 0
                for name, dims in mat_dims.items():
                    # A tile is (re)fetched whenever any loop index at or
                    # above its innermost dependence level changed.
                    key = tuple(tidx[order[i]] for i in range(mat_level[name] + 1))
                    if last_fetch_key[name] != key:
                        last_fetch_key[name] = key
                        elems = widths[dims[0]] * widths[dims[1]]
                        gb_reads[name] = gb_reads.get(name, 0.0) + elems
                        if mat_level[name] == 2:
                            stream += elems
                        else:
                            load += math.ceil(elems / bwd)
                out_tile = (tidx[Dim.V], tidx[Dim.G])
                out_elems = widths[Dim.V] * widths[Dim.G]
                visits = f_visits.get(out_tile, 0) + 1
                f_visits[out_tile] = visits
                drain = 0.0
                if visits == n_fsteps:
                    gb_writes[spec.out_name] = (
                        gb_writes.get(spec.out_name, 0.0) + out_elems
                    )
                    drain += out_elems
                elif spill:
                    gb_writes["psum"] = gb_writes.get("psum", 0.0) + out_elems
                    drain += out_elems
                if visits > 1 and spill:
                    gb_reads["psum"] = gb_reads.get("psum", 0.0) + out_elems
                    stream += out_elems
                stream_list.append(stream)
                drain_list.append(drain)
                load_list.append(load)
                total_load_stalls += load

    cycles, fill = _pipeline(stream_list, drain_list, load_list, hw)
    return CycleReport(
        cycles=cycles,
        steps=steps,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=total_load_stalls,
        fill_cycles=fill,
    )


def _cycle_accurate_gemm_streamed(
    spec: GemmSpec,
    intra: IntraDataflow,
    tiling: GemmTiling,
    hw: AcceleratorConfig,
    *,
    chunk_steps: int,
) -> CycleReport:
    """Chunk-streamed GEMM micro-simulation: the loop nest's per-step
    arrays are built per flat-index range ``[lo, hi)`` and reduced on the
    fly, so peak memory is O(chunk) instead of O(total).

    Every per-step quantity is a pure function of the flat step index, so
    the result does not depend on ``chunk_steps``.
    """
    if intra.phase is not Phase.COMBINATION:
        raise ValueError("cycle_accurate_gemm requires a Combination dataflow")
    size = {Dim.V: spec.rows, Dim.F: spec.inner, Dim.G: spec.cols}
    tile = {Dim.V: tiling.t_v, Dim.F: tiling.t_f, Dim.G: tiling.t_g}
    order = intra.order
    ranges = {d: _ranges(size[d], tile[d]) for d in size}
    widths = {
        d: np.asarray([hi - lo for lo, hi in ranges[d]], dtype=np.int64)
        for d in size
    }
    steps = {d: len(ranges[d]) for d in size}
    pos = {d: order.index(d) for d in order}
    extents = tuple(steps[d] for d in order)
    total = extents[0] * extents[1] * extents[2]
    strides = (extents[1] * extents[2], extents[2], 1)
    n_fsteps = steps[Dim.F]

    live = 1
    for d in order[pos[Dim.F] + 1 :]:
        if d in (Dim.V, Dim.G):
            live *= steps[d]
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    spill = n_fsteps > 1 and not psum_resident
    bwd = hw.effective_dist_bw

    roles = {"left": (spec.left_name, _LEFT_DIMS), "right": (spec.right_name, _RIGHT_DIMS)}
    mat_reads = {"left": 0, "right": 0}
    out_writes = 0
    psum_writes = 0
    psum_reads = 0
    load_stalls = 0
    scan = _PipelineScan(hw)

    chunk = max(1, chunk_steps)
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        level_idx = [(flat // strides[p]) % extents[p] for p in range(3)]
        dim_idx = {d: level_idx[pos[d]] for d in order}
        wd = {d: widths[d][dim_idx[d]] for d in order}
        stream = np.zeros(flat.size, dtype=np.int64)
        load = np.zeros(flat.size, dtype=np.int64)
        for role, (_, dims) in roles.items():
            level = max(pos[d] for d in dims)
            elems = wd[dims[0]] * wd[dims[1]]
            fetch = (flat % strides[level]) == 0
            mat_reads[role] += int(elems[fetch].sum())
            if level == 2:
                stream += elems  # streamed: fetched every step
            else:
                load[fetch] += -(-elems[fetch] // bwd)
        f_idx = dim_idx[Dim.F]
        completing = f_idx == n_fsteps - 1
        out = wd[Dim.V] * wd[Dim.G]
        out_writes += int(out[completing].sum())
        if spill:
            revisit = f_idx > 0
            drain = out  # every visit drains: out or psum
            psum_writes += int(out[~completing].sum())
            psum_reads += int(out[revisit].sum())
            stream = stream + np.where(revisit, out, 0)
        else:
            drain = np.where(completing, out, 0)
        load_stalls += int(load.sum())
        scan.feed(stream, drain, load)

    gb_reads: dict[str, float] = {
        roles["left"][0]: float(mat_reads["left"]),
    }
    gb_reads[roles["right"][0]] = gb_reads.get(roles["right"][0], 0.0) + float(
        mat_reads["right"]
    )
    gb_writes: dict[str, float] = {spec.out_name: float(out_writes)}
    if spill:
        gb_writes["psum"] = float(psum_writes)
        gb_reads["psum"] = gb_reads.get("psum", 0.0) + float(psum_reads)

    cycles, fill = scan.finish()
    return CycleReport(
        cycles=cycles,
        steps=total,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=load_stalls,
        fill_cycles=fill,
    )


# Per-step transient footprint of one GEMM chunk, in 8-byte words (~12
# int64/bool arrays of chunk length).  Sizes the chunks against the byte
# budget, or against 16 MiB without one.
_GEMM_WORDS_PER_STEP = 12


def _gemm_chunk_steps(stats: TileStats | None) -> int:
    budget = stats.byte_budget if stats is not None else default_byte_budget()
    return max(1, (budget or (1 << 24)) // (8 * _GEMM_WORDS_PER_STEP))


def cycle_accurate_gemm(
    spec: GemmSpec,
    intra: IntraDataflow,
    tiling: GemmTiling,
    hw: AcceleratorConfig,
    *,
    stats: TileStats | None = None,
) -> CycleReport:
    """Walk the tiled GEMM loop nest step by step.

    ``stats`` is accepted for signature symmetry with the SpMM engine
    (dense GEMM needs no sparsity statistics) and, when it carries a byte
    budget, to bound the micro-simulation's working set: the nest is
    streamed in chunks sized to the budget (one chunk when it fits).
    """
    if use_reference_engine():
        return cycle_accurate_gemm_reference(spec, intra, tiling, hw)
    return _cycle_accurate_gemm_streamed(
        spec, intra, tiling, hw, chunk_steps=_gemm_chunk_steps(stats)
    )


# ----------------------------------------------------------------------
# SpMM micro-simulation
# ----------------------------------------------------------------------

def cycle_accurate_spmm_reference(
    spec: SpmmSpec,
    intra: IntraDataflow,
    tiling: SpmmTiling,
    hw: AcceleratorConfig,
) -> CycleReport:
    """Walk the tiled SpMM loop nest step by step (interpreted reference).

    Lock-step semantics: a (vtile, ftile) pass takes as many neighbor steps
    as its longest row needs; lanes whose rows finished early sit idle and
    produce no traffic.
    """
    if intra.phase is not Phase.AGGREGATION:
        raise ValueError("cycle_accurate_spmm requires an Aggregation dataflow")
    g: CSRGraph = spec.graph
    num_v = g.num_vertices
    feat = spec.feat
    t_v = min(tiling.t_v, max(1, num_v))
    t_f = min(tiling.t_f, feat)
    t_n = max(1, tiling.t_n)
    deg = g.degrees
    v_ranges = _ranges(num_v, t_v)
    f_ranges = _ranges(feat, t_f)
    per_v_steps = np.ceil(deg / t_n).astype(np.int64)
    order = intra.order
    pos = {d: order.index(d) for d in order}
    live = 1
    for d in order[pos[Dim.N] + 1 :]:
        if d is Dim.V:
            live *= len(v_ranges)
        elif d is Dim.F:
            live *= len(f_ranges)
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    max_nsteps = int(per_v_steps.max()) if num_v and deg.size else 0
    f_latched = pos[Dim.F] == 2  # F innermost: edge index latched across f

    gb_reads: dict[str, float] = {"adj": float(num_v + 1)}
    gb_writes: dict[str, float] = {}
    stream_list: list[float] = []
    drain_list: list[float] = []

    spaces = {
        Dim.V: range(len(v_ranges)),
        Dim.F: range(len(f_ranges)),
        Dim.N: range(max(1, max_nsteps)),
    }
    steps = 0
    for a in spaces[order[0]]:
        for b in spaces[order[1]]:
            for c in spaces[order[2]]:
                tidx = {order[0]: a, order[1]: b, order[2]: c}
                vi, fi, ni = tidx[Dim.V], tidx[Dim.F], tidx[Dim.N]
                v0, v1 = v_ranges[vi]
                f0, f1 = f_ranges[fi]
                tile_steps = int(per_v_steps[v0:v1].max()) if v1 > v0 else 0
                if ni >= tile_steps:
                    continue  # lock-step pass already finished for the tile
                steps += 1
                fw = f1 - f0
                stream = 0.0
                drain = 0.0
                active_edges = 0
                completing = 0
                active = 0
                continuing_in = 0  # lanes reading psums back (visit > 1)
                for v in range(v0, v1):
                    sv = int(per_v_steps[v])
                    if ni >= sv:
                        continue
                    active += 1
                    lo = g.vertex_ptr[v] + ni * t_n
                    hi = min(g.vertex_ptr[v + 1], lo + t_n)
                    active_edges += int(hi - lo)
                    if ni == sv - 1:
                        completing += 1
                    if ni > 0:
                        continuing_in += 1
                gb_reads[spec.x_name] = (
                    gb_reads.get(spec.x_name, 0.0) + active_edges * fw
                )
                stream += active_edges * fw
                if not f_latched or fi == 0:
                    gb_reads["adj"] = gb_reads.get("adj", 0.0) + active_edges
                if completing:
                    gb_writes[spec.out_name] = (
                        gb_writes.get(spec.out_name, 0.0) + completing * fw
                    )
                    drain += completing * fw
                if not psum_resident:
                    spilling = active - completing
                    if spilling > 0:
                        gb_writes["psum"] = (
                            gb_writes.get("psum", 0.0) + spilling * fw
                        )
                        drain += spilling * fw
                    if continuing_in > 0:
                        gb_reads["psum"] = (
                            gb_reads.get("psum", 0.0) + continuing_in * fw
                        )
                        stream += continuing_in * fw
                stream_list.append(stream)
                drain_list.append(drain)

    # Zero-degree rows never enter the loop but their (all-zero) output
    # rows are still flushed once, as in the engine's V x feat write count.
    zero_rows = int((deg == 0).sum()) if num_v else 0
    if zero_rows:
        gb_writes[spec.out_name] = (
            gb_writes.get(spec.out_name, 0.0) + zero_rows * feat
        )

    cycles, fill = _pipeline(stream_list, drain_list, [0] * len(stream_list), hw)
    return CycleReport(
        cycles=cycles,
        steps=steps,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=0,
        fill_cycles=fill,
    )


def _expand_f_mid(seg_lengths: np.ndarray, n_f: int) -> tuple[np.ndarray, np.ndarray]:
    """Emission indices for an F-middle loop over segmented cells.

    Cells arrive as consecutive segments (one per outer-loop iteration:
    a vertex tile's neighbor steps, or one neighbor step's active tiles);
    the F loop sits between the two, so each segment is replayed ``n_f``
    times before the next begins.  Returns ``(cell_sel, fi)`` arrays of
    length ``sum(seg_lengths) * n_f`` in exact nest order.
    """
    seg_lengths = np.asarray(seg_lengths, dtype=np.int64)
    em_per_seg = seg_lengths * n_f
    total = int(em_per_seg.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    seg_off = np.cumsum(seg_lengths) - seg_lengths
    em_off = np.cumsum(em_per_seg) - em_per_seg
    seg_id = np.repeat(np.arange(seg_lengths.size, dtype=np.int64), em_per_seg)
    local = np.arange(total, dtype=np.int64) - em_off[seg_id]
    m = seg_lengths[seg_id]
    fi = local // m
    sel = seg_off[seg_id] + local % m
    return sel, fi


def _chunk_cells(
    grids,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unmasked cells of one vtile-row slab in (vi asc, ni asc) order.

    Returns ``(act, edg, comp, ni, seg_lengths)`` where ``seg_lengths``
    is the per-tile cell count (= ``tile_steps``), the segmentation an
    F-middle loop replays.
    """
    ts = grids.tile_steps
    total = int(ts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty, ts
    vloc = np.repeat(np.arange(ts.size, dtype=np.int64), ts)
    offs = np.cumsum(ts) - ts
    ni = np.arange(total, dtype=np.int64) - offs[vloc]
    return (
        grids.active[vloc, ni],
        grids.edges[vloc, ni],
        grids.completing[vloc, ni],
        ni,
        ts,
    )


def _band_cells(
    active_idx: np.ndarray,
    s: np.ndarray,
    deg: np.ndarray,
    tile_steps: np.ndarray,
    t_v: int,
    t_n: int,
    c0: int,
    c1: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cells of neighbor-step columns ``[c0, c1)`` in (ni asc, vi asc)
    order, built band-locally with the slab builder's scatter-add math
    (:func:`~repro.engine.tilestats._scatter_grids`).

    ``active_idx`` pre-selects the vertices with ``s > c0`` (callers take
    it from a presorted suffix); memory is O(n_vtiles x band width).
    Returns ``(act, edg, comp, ni, seg_lengths)`` with one segment per
    column (the active-tile count an F-middle loop replays).
    """
    n_vtiles = int(tile_steps.size)
    bandw = c1 - c0
    active = np.zeros((n_vtiles, bandw + 1), dtype=np.int64)
    completing = np.zeros((n_vtiles, bandw), dtype=np.int64)
    deficit = np.zeros((n_vtiles, bandw), dtype=np.int64)
    if active_idx.size:
        vt = active_idx // t_v
        end = np.minimum(s[active_idx], c1) - c0
        np.add.at(active, (vt, np.zeros(vt.size, dtype=np.int64)), 1)
        np.add.at(active, (vt, end), -1)
        np.cumsum(active, axis=1, out=active)
        fin = s[active_idx] <= c1  # contraction completes inside the band
        idx_f = active_idx[fin]
        last = s[idx_f] - 1 - c0
        np.add.at(completing, (vt[fin], last), 1)
        rem = deg[idx_f] - (s[idx_f] - 1) * t_n
        np.add.at(deficit, (vt[fin], last), t_n - rem)
    active = active[:, :bandw]
    edges = active * t_n - deficit
    # Column-major active cells: tile vi participates in column ni iff its
    # lock-step pass is still running there.
    colmask = (tile_steps[:, None] > np.arange(c0, c1)[None, :]).T
    cols, vis = np.nonzero(colmask)
    return (
        active[vis, cols],
        edges[vis, cols],
        completing[vis, cols],
        c0 + cols,
        colmask.sum(axis=1).astype(np.int64),
    )


def _cycle_accurate_spmm_streamed(
    spec: SpmmSpec,
    intra: IntraDataflow,
    tiling: SpmmTiling,
    hw: AcceleratorConfig,
    stats: TileStats,
) -> CycleReport:
    """Chunk-streamed SpMM micro-simulation over :class:`TileStats`.

    Bit-identical to :func:`cycle_accurate_spmm_reference` without ever
    materializing the whole ``(n_vtiles, max_nsteps)`` grids or the flat
    loop-nest index arrays: cells are produced in exact nest order —
    vtile-row slabs (:meth:`TileStats.step_grid_chunks`) when V precedes
    N in the loop order, neighbor-step column bands otherwise — and the
    F loop's position picks one of three emission expansions (outer
    passes, per-segment replay, per-cell repeat).  Traffic totals and the
    elastic-pipeline recurrence (:class:`_PipelineScan`) are reduced per
    block, so peak memory is O(block x n_ftiles) at any graph size.
    """
    if intra.phase is not Phase.AGGREGATION:
        raise ValueError("cycle_accurate_spmm requires an Aggregation dataflow")
    g: CSRGraph = spec.graph
    num_v = g.num_vertices
    feat = spec.feat
    t_v = min(tiling.t_v, max(1, num_v))
    t_f = min(tiling.t_f, feat)
    t_n = max(1, tiling.t_n)
    s = stats.per_v_steps(t_n)
    tile_steps = stats.vtile_steps(t_v, t_n)
    n_vtiles = int(tile_steps.size)
    max_nsteps = int(s.max()) if num_v and s.size else 0
    f_ranges = _ranges(feat, t_f)
    n_ftiles = len(f_ranges)
    f_widths = np.asarray([hi - lo for lo, hi in f_ranges], dtype=np.int64)
    order = intra.order
    pos = {d: order.index(d) for d in order}
    live = 1
    for d in order[pos[Dim.N] + 1 :]:
        if d is Dim.V:
            live *= n_vtiles
        elif d is Dim.F:
            live *= n_ftiles
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    f_latched = pos[Dim.F] == 2  # F innermost: edge index latched across f

    scan = _PipelineScan(hw)
    steps = 0
    x_reads = 0
    adj_extra = 0
    out_writes = 0
    psum_writes = 0
    psum_reads = 0

    def consume(act, edg, comp, ni, sel, fi) -> None:
        """Reduce one emission block (``sel``/``fi`` index the cells)."""
        nonlocal steps, x_reads, adj_extra, out_writes, psum_writes, psum_reads
        if sel.size == 0:
            return
        steps += int(sel.size)
        act_e = act[sel]
        edg_e = edg[sel]
        comp_e = comp[sel]
        fw = f_widths[fi]
        edge_fw = edg_e * fw
        x_reads += int(edge_fw.sum())
        adj_extra += int(edg_e[fi == 0].sum() if f_latched else edg_e.sum())
        comp_fw = comp_e * fw
        out_writes += int(comp_fw.sum())
        stream = edge_fw
        drain = comp_fw
        if not psum_resident:
            spill_fw = (act_e - comp_e) * fw
            psum_writes += int(spill_fw.sum())
            drain = drain + spill_fw
            cont_fw = np.where(ni[sel] > 0, act_e, 0) * fw
            psum_reads += int(cont_fw.sum())
            stream = stream + cont_fw
        scan.feed(stream, drain)

    def emit(act, edg, comp, ni, seg_lengths, f_pass: int | None) -> None:
        """Expand one cell block per the F loop's position and reduce it."""
        n_cells = int(act.size)
        if f_pass is not None:  # F outermost: one pass per f tile
            sel = np.arange(n_cells, dtype=np.int64)
            fi = np.full(n_cells, f_pass, dtype=np.int64)
        elif f_latched:  # F innermost: each cell repeats across f tiles
            sel = np.repeat(np.arange(n_cells, dtype=np.int64), n_ftiles)
            fi = np.tile(np.arange(n_ftiles, dtype=np.int64), n_cells)
        else:  # F middle: each segment replays per f tile
            sel, fi = _expand_f_mid(seg_lengths, n_ftiles)
        consume(act, edg, comp, ni, sel, fi)

    v_major = pos[Dim.V] < pos[Dim.N]
    f_passes: list[int | None] = (
        list(range(n_ftiles)) if pos[Dim.F] == 0 else [None]
    )
    if v_major:
        chunk_rows = _spmm_chunk_rows(stats, max_nsteps, n_ftiles)
        for f_pass in f_passes:
            for chunk in stats.step_grid_chunks(t_v, t_n, chunk_rows):
                emit(*_chunk_cells(chunk.grids), f_pass)
    elif max_nsteps:
        bandw = _spmm_band_width(stats, n_vtiles, n_ftiles)
        # Presort by step count: each band's active vertices are a suffix.
        s_order = np.argsort(s, kind="stable").astype(np.int64)
        s_sorted = s[s_order]
        deg = g.degrees
        for f_pass in f_passes:
            for c0 in range(0, max_nsteps, bandw):
                stats.streamed_chunk_passes += 1
                c1 = min(c0 + bandw, max_nsteps)
                start = int(np.searchsorted(s_sorted, c0, side="right"))
                cells = _band_cells(
                    s_order[start:], s, deg, tile_steps, t_v, t_n, c0, c1
                )
                emit(*cells, f_pass)

    gb_reads: dict[str, float] = {"adj": float(num_v + 1)}
    gb_writes: dict[str, float] = {}
    if steps:
        gb_reads[spec.x_name] = float(x_reads)
        gb_reads["adj"] += float(adj_extra)
    if out_writes:
        gb_writes[spec.out_name] = float(out_writes)
    if not psum_resident and steps:
        if psum_writes:
            gb_writes["psum"] = float(psum_writes)
        if psum_reads:
            gb_reads["psum"] = float(psum_reads)

    # Zero-degree rows never enter the loop but their (all-zero) output
    # rows are still flushed once, as in the engine's V x feat write count.
    zero_rows = stats.zero_degree_rows
    if zero_rows:
        gb_writes[spec.out_name] = (
            gb_writes.get(spec.out_name, 0.0) + zero_rows * feat
        )

    cycles, fill = scan.finish()
    return CycleReport(
        cycles=cycles,
        steps=steps,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=0,
        fill_cycles=fill,
    )


def _spmm_chunk_rows(stats: TileStats, max_nsteps: int, n_ftiles: int) -> int:
    """Vtile rows per streamed slab: sized so the slab grids plus their
    F-expanded emission arrays fit comfortably inside the byte budget."""
    target = _stream_block_bytes(stats)
    per_row = 8 * max(1, max_nsteps) * (3 + 4 * max(1, n_ftiles))
    return max(1, target // per_row)


def _spmm_band_width(stats: TileStats, n_vtiles: int, n_ftiles: int) -> int:
    """Neighbor-step columns per streamed band (same sizing rule)."""
    target = _stream_block_bytes(stats)
    per_col = 8 * max(1, n_vtiles) * (3 + 4 * max(1, n_ftiles))
    return max(1, target // per_col)


def _stream_block_bytes(stats: TileStats) -> int:
    budget = stats.byte_budget
    if budget is None:
        return 1 << 24  # no budget: 16 MiB blocks
    return max(budget // 4, 1 << 16)


def cycle_accurate_spmm(
    spec: SpmmSpec,
    intra: IntraDataflow,
    tiling: SpmmTiling,
    hw: AcceleratorConfig,
    *,
    stats: TileStats | None = None,
) -> CycleReport:
    """Walk the tiled SpMM loop nest step by step (CSR-driven N loop).

    Lock-step semantics: a (vtile, ftile) pass takes as many neighbor steps
    as its longest row needs; lanes whose rows finished early sit idle and
    produce no traffic.  ``stats`` is an optional
    :class:`~repro.engine.tilestats.TileStats` handle for the spec's graph;
    sharing one across candidates amortizes the per-tiling sparsity scans,
    and its byte budget sizes the streamed blocks.
    """
    if use_reference_engine():
        return cycle_accurate_spmm_reference(spec, intra, tiling, hw)
    return _cycle_accurate_spmm_streamed(
        spec, intra, tiling, hw, resolve_stats(stats, spec.graph)
    )
