"""Chunk-streaming suite: the vectorized engine under any block size.

``cycle_accurate_spmm``/``cycle_accurate_gemm`` stream the loop nest in
blocks sized by the ``TileStats`` byte budget.  With blocks forced to
their minimum — one vertex-tile row per slab, one neighbor-step column
per band, one GEMM step per chunk — they must still produce *identical*
``CycleReport``\\ s to the interpreted reference — cycles, steps, traffic
dictionaries, and fill, exactly — across random CSR graphs (including
hub rows and zero-degree rows), every loop order, and GEMM chunk sizes
of 1, a prime, and larger-than-total.  Also covers the step-grid slab
stream against one whole-graph build, and the ``TileStats`` byte-budget
LRU (eviction accounting, counter monotonicity).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.arch.config import AcceleratorConfig
from repro.core.taxonomy import Annot, Dim, IntraDataflow, Phase
from repro.engine import cycle_model
from repro.engine.cycle_model import (
    _cycle_accurate_gemm_streamed,
    cycle_accurate_gemm,
    cycle_accurate_gemm_reference,
    cycle_accurate_spmm,
    cycle_accurate_spmm_reference,
)
from repro.engine.gemm import GemmSpec, GemmTiling
from repro.engine.spmm import SpmmSpec, SpmmTiling
from repro.engine.tilestats import TileStats, _scatter_grids
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi_graph, hub_thread_graph

SPMM_ORDERS = list(itertools.permutations((Dim.V, Dim.F, Dim.N)))
GEMM_ORDERS = list(itertools.permutations((Dim.V, Dim.F, Dim.G)))
BWS = [(16, 16), (3, 5), (7, 12), (64, 64)]


@pytest.fixture(autouse=True)
def _vectorized_engine(monkeypatch):
    """Compare the vectorized engine, also when the suite runs under
    ``REPRO_REFERENCE_ENGINE=1``."""
    monkeypatch.delenv("REPRO_REFERENCE_ENGINE", raising=False)


@pytest.fixture
def minimal_blocks(monkeypatch):
    """Shrink SpMM slabs to one vertex-tile row and bands to one
    neighbor-step column, whatever the graph."""
    monkeypatch.setattr(cycle_model, "_stream_block_bytes", lambda stats: 1)


def _annot(order, tiles_by_dim):
    return tuple(
        Annot.SPATIAL if tiles_by_dim[d] > 1 else Annot.TEMPORAL for d in order
    )


def _report_tuple(rep):
    return (
        rep.cycles,
        rep.steps,
        rep.gb_reads,
        rep.gb_writes,
        rep.load_stall_cycles,
        rep.fill_cycles,
    )


def _assert_identical(ref, streamed, context):
    assert _report_tuple(ref) == _report_tuple(streamed), (
        f"{context}\n ref={ref}\n streamed={streamed}"
    )


def _minimal_block_count(stats, order, t_v, t_n, n_ftiles):
    """Blocks streamed at one row per slab / one column per band."""
    pos = {d: order.index(d) for d in order}
    f_passes = n_ftiles if pos[Dim.F] == 0 else 1
    if pos[Dim.V] < pos[Dim.N]:
        return f_passes * int(stats.vtile_steps(t_v, t_n).size)
    s = stats.per_v_steps(t_n)
    return f_passes * (int(s.max()) if s.size else 0)


def _random_graph(rng: np.random.Generator) -> CSRGraph:
    kind = rng.integers(0, 4)
    if kind == 0:
        n = int(rng.integers(2, 40))
        e = int(rng.integers(1, 4 * n))
        return erdos_renyi_graph(rng, n, e)
    if kind == 1:
        n = int(rng.integers(8, 48))
        e = int(rng.integers(n, 5 * n))
        return hub_thread_graph(rng, n, e, num_hubs=int(rng.integers(1, 3)))
    if kind == 2:
        n = int(rng.integers(3, 24))
        deg = rng.integers(0, 6, size=n)
        deg[rng.integers(0, n)] = 0
        vptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=vptr[1:])
        dst = rng.integers(0, n, size=int(vptr[-1])).astype(np.int64)
        return CSRGraph(vptr, np.sort(dst), n)
    n = int(rng.integers(1, 8))
    return CSRGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), n)


class TestStepGridChunks:
    @pytest.mark.parametrize("seed", range(6))
    def test_chunks_reassemble_dense_grids(self, seed):
        """Concatenated slabs must equal one whole-graph build cell for
        cell, for chunk sizes 1, a prime, and larger than the vtile count."""
        rng = np.random.default_rng(700 + seed)
        g = _random_graph(rng)
        stats = TileStats(g)
        t_v = int(rng.integers(1, 8))
        t_n = int(rng.integers(1, 5))
        dense = _scatter_grids(
            g.degrees,
            stats.per_v_steps(t_n),
            t_v,
            t_n,
            stats.vtile_steps(t_v, t_n),
        )
        n_vtiles = int(dense.tile_steps.size)
        for chunk_rows in (1, 7, n_vtiles + 13):
            rows_seen = 0
            for chunk in stats.step_grid_chunks(t_v, t_n, chunk_rows):
                lo, hi = chunk.row_lo, chunk.row_hi
                assert lo == rows_seen and hi - lo <= chunk_rows
                grids = chunk.grids
                width = grids.max_nsteps
                assert np.array_equal(
                    grids.active, dense.active[lo:hi, :width]
                )
                assert np.array_equal(grids.edges, dense.edges[lo:hi, :width])
                assert np.array_equal(
                    grids.completing, dense.completing[lo:hi, :width]
                )
                assert np.array_equal(
                    grids.tile_steps, dense.tile_steps[lo:hi]
                )
                # Nothing beyond the slab's own max is ever populated.
                assert not dense.active[lo:hi, width:].any()
                rows_seen = hi
            assert rows_seen == n_vtiles

    def test_chunks_are_never_cached(self):
        rng = np.random.default_rng(7)
        g = erdos_renyi_graph(rng, 30, 120)
        stats = TileStats(g)
        list(stats.step_grid_chunks(4, 2, 3))
        before = stats.nbytes()
        passes_before = stats.streamed_chunk_passes
        chunks = list(stats.step_grid_chunks(4, 2, 3))
        assert stats.nbytes() == before  # only the O(V) helpers are held
        assert len(chunks) == 3  # 8 vertex tiles in slabs of 3 rows
        assert stats.streamed_chunk_passes == passes_before + len(chunks)


class TestSpmmStreamedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_exact(self, seed, minimal_blocks):
        rng = np.random.default_rng(5000 + seed)
        for _ in range(6):
            g = _random_graph(rng)
            feat = int(rng.integers(1, 20))
            spec = SpmmSpec(graph=g, feat=feat)
            tv = int(rng.integers(1, 10))
            tf = int(rng.integers(1, 8))
            tn = int(rng.integers(1, 6))
            order = SPMM_ORDERS[int(rng.integers(0, len(SPMM_ORDERS)))]
            bwd, bwr = BWS[int(rng.integers(0, len(BWS)))]
            hw = AcceleratorConfig(
                num_pes=4096,
                dist_bw=bwd,
                red_bw=bwr,
                pe_accumulators=int(rng.integers(1, 4)),
                supports_temporal_reduction=bool(rng.integers(0, 2)),
            )
            tiles = SpmmTiling(tv, tf, tn)
            intra = IntraDataflow(
                Phase.AGGREGATION,
                order,
                _annot(order, {Dim.V: tv, Dim.F: tf, Dim.N: tn}),
            )
            ref = cycle_accurate_spmm_reference(spec, intra, tiles, hw)
            streamed = cycle_accurate_spmm(
                spec, intra, tiles, hw, stats=TileStats(g, byte_budget=1)
            )
            _assert_identical(
                ref, streamed,
                f"g=V{g.num_vertices}/E{g.num_edges} {intra} {tiles} "
                f"bw=({bwd},{bwr})",
            )

    @pytest.mark.parametrize(
        "order", SPMM_ORDERS, ids=lambda o: "".join(d.value for d in o)
    )
    def test_tiny_budget_forces_single_row_chunks(self, order, minimal_blocks):
        """Slabs of one vertex-tile row and bands of one neighbor-step
        column leave every number unchanged."""
        rng = np.random.default_rng(41)
        g = hub_thread_graph(rng, 40, 220, num_hubs=2)
        spec = SpmmSpec(graph=g, feat=6)
        hw = AcceleratorConfig(num_pes=256, dist_bw=7, red_bw=12)
        tiles = SpmmTiling(3, 2, 2)
        intra = IntraDataflow(
            Phase.AGGREGATION, order,
            _annot(order, {Dim.V: 3, Dim.F: 2, Dim.N: 2}),
        )
        ref = cycle_accurate_spmm_reference(spec, intra, tiles, hw)
        tight = TileStats(g, byte_budget=1)
        streamed = cycle_accurate_spmm(spec, intra, tiles, hw, stats=tight)
        _assert_identical(ref, streamed, f"{intra} tight budget")
        assert tight.streamed_chunk_passes == _minimal_block_count(
            tight, order, 3, 2, n_ftiles=3
        ) > 1

    def test_zero_degree_rows_exact(self, minimal_blocks):
        hw = AcceleratorConfig(num_pes=64, dist_bw=7, red_bw=12)
        g = CSRGraph(np.array([0, 0, 3, 3, 5, 5]), np.array([0, 1, 2, 0, 4]), 5)
        spec = SpmmSpec(graph=g, feat=4)
        for order in SPMM_ORDERS:
            for tv, tf, tn in [(1, 1, 1), (2, 2, 2), (5, 4, 1)]:
                tiles = SpmmTiling(tv, tf, tn)
                intra = IntraDataflow(
                    Phase.AGGREGATION, order,
                    _annot(order, {Dim.V: tv, Dim.F: tf, Dim.N: tn}),
                )
                ref = cycle_accurate_spmm_reference(spec, intra, tiles, hw)
                streamed = cycle_accurate_spmm(
                    spec, intra, tiles, hw, stats=TileStats(g)
                )
                _assert_identical(ref, streamed, f"{intra} {tiles}")


class TestGemmStreamedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_shapes_exact(self, seed):
        rng = np.random.default_rng(6000 + seed)
        for _ in range(6):
            spec = GemmSpec(
                rows=int(rng.integers(1, 24)),
                inner=int(rng.integers(1, 16)),
                cols=int(rng.integers(1, 16)),
            )
            tiles = GemmTiling(
                int(rng.integers(1, 10)),
                int(rng.integers(1, 8)),
                int(rng.integers(1, 8)),
            )
            order = GEMM_ORDERS[int(rng.integers(0, len(GEMM_ORDERS)))]
            bwd, bwr = BWS[int(rng.integers(0, len(BWS)))]
            hw = AcceleratorConfig(
                num_pes=4096,
                dist_bw=bwd,
                red_bw=bwr,
                pe_accumulators=int(rng.integers(1, 4)),
                supports_temporal_reduction=bool(rng.integers(0, 2)),
            )
            intra = IntraDataflow(
                Phase.COMBINATION,
                order,
                _annot(
                    order, {Dim.V: tiles.t_v, Dim.F: tiles.t_f, Dim.G: tiles.t_g}
                ),
            )
            ref = cycle_accurate_gemm_reference(spec, intra, tiles, hw)
            for chunk in (1, 13, 1 << 20):
                streamed = _cycle_accurate_gemm_streamed(
                    spec, intra, tiles, hw, chunk_steps=chunk
                )
                _assert_identical(
                    ref, streamed,
                    f"{spec.rows}x{spec.inner}x{spec.cols} {intra} {tiles} "
                    f"chunk={chunk}",
                )


class TestByteBudgetLRU:
    def test_budget_evicts_lru_and_counts(self):
        rng = np.random.default_rng(22)
        g = erdos_renyi_graph(rng, 60, 400)
        probe = TileStats(g)
        one_entry = int(probe.vtile_steps(4, 1).nbytes)
        per_vertex = int(probe.per_v_steps(1).nbytes)
        # Room for the per-vertex entry plus roughly two per-tile entries:
        # the third per-tile entry must evict.
        stats = TileStats(g, byte_budget=per_vertex + int(2.5 * one_entry))
        for t_v in (4, 5, 6, 7):
            stats.vtile_steps(t_v, 1)
            assert stats.nbytes() <= stats.byte_budget
        assert stats.evictions > 0
        # Peak records the honest pre-eviction high-water mark: at most
        # the budget plus the entry whose admission triggered eviction.
        assert stats.peak_nbytes <= stats.byte_budget + one_entry
        # An evicted entry is rebuilt on demand (miss, not an error).
        misses = stats.misses
        stats.vtile_steps(4, 1)
        assert stats.misses > misses

    def test_oversized_protected_entry_overshoots_honestly(self):
        """A single entry larger than the whole budget is kept (evicting
        it would force an immediate rebuild) and peak_nbytes records the
        overshoot instead of hiding it."""
        rng = np.random.default_rng(23)
        g = erdos_renyi_graph(rng, 40, 200)
        stats = TileStats(g, byte_budget=8)
        steps = stats.per_v_steps(1)
        assert steps.nbytes > stats.byte_budget
        assert stats.peak_nbytes >= steps.nbytes
        assert stats.per_v_steps(1) is steps  # still cached: no rebuild

    def test_unbudgeted_cache_never_evicts(self, monkeypatch):
        monkeypatch.delenv("REPRO_TILESTATS_BUDGET", raising=False)
        rng = np.random.default_rng(24)
        g = erdos_renyi_graph(rng, 30, 150)
        stats = TileStats(g)
        for t_v in range(1, 8):
            stats.vtile_steps(t_v, 2)
        assert stats.evictions == 0
        assert stats.peak_nbytes == stats.nbytes()

    def test_env_budget_read_at_construction(self, monkeypatch):
        rng = np.random.default_rng(25)
        g = erdos_renyi_graph(rng, 10, 30)
        monkeypatch.setenv("REPRO_TILESTATS_BUDGET", "12345")
        assert TileStats(g).byte_budget == 12345
        monkeypatch.setenv("REPRO_TILESTATS_BUDGET", "0")
        assert TileStats(g).byte_budget is None  # non-positive = unbounded
        monkeypatch.delenv("REPRO_TILESTATS_BUDGET")
        assert TileStats(g).byte_budget is None
        assert TileStats(g, byte_budget=99).byte_budget == 99


class TestStreamedDispatch:
    def test_budget_sizes_blocks_not_results(self):
        """The public entry points stream one block when the nest fits,
        more under a tight budget, and the same report either way."""
        rng = np.random.default_rng(32)
        g = hub_thread_graph(rng, 400, 4000, num_hubs=2)
        spec = SpmmSpec(graph=g, feat=8)
        intra = IntraDataflow.parse("VsFtNt", Phase.AGGREGATION)
        tiles = SpmmTiling(4, 1, 1)
        hw = AcceleratorConfig(num_pes=128, dist_bw=16, red_bw=16)
        roomy = TileStats(g, byte_budget=1 << 30)
        whole = cycle_accurate_spmm(spec, intra, tiles, hw, stats=roomy)
        assert roomy.streamed_chunk_passes == 1
        tight = TileStats(g, byte_budget=1)
        chunked = cycle_accurate_spmm(spec, intra, tiles, hw, stats=tight)
        assert tight.streamed_chunk_passes > 1
        _assert_identical(whole, chunked, "budgeted SpMM")

        gspec = GemmSpec(rows=37, inner=11, cols=9)
        gintra = IntraDataflow.parse("VsGsFt", Phase.COMBINATION)
        gtiles = GemmTiling(2, 1, 2)
        gref = cycle_accurate_gemm_reference(gspec, gintra, gtiles, hw)
        for budget in (None, 1, 8 * 12 * 7):  # one chunk, 1 step, 7 steps
            got = cycle_accurate_gemm(
                gspec, gintra, gtiles, hw, stats=TileStats(g, byte_budget=budget)
            )
            _assert_identical(gref, got, f"budgeted GEMM {budget}")

    def test_per_v_steps_integer_ceil(self):
        """The hottest stats kernel must match ceil-division exactly for
        every t_n, including hub degrees."""
        rng = np.random.default_rng(33)
        g = hub_thread_graph(rng, 50, 400, num_hubs=3)
        stats = TileStats(g)
        deg = g.degrees
        for t_n in (1, 2, 3, 7, 64):
            s = stats.per_v_steps(t_n)
            assert s.dtype == np.int64
            assert np.array_equal(s, -(-deg // t_n))
