"""Equivalence suite: the vectorized engine vs the interpreted reference.

``cycle_accurate_spmm``/``cycle_accurate_gemm`` (chunk-streamed numpy
blocks + ``TileStats`` sparsity cache + max-plus pipeline scan) must
produce *identical* :class:`~repro.engine.cycle_model.CycleReport`\\ s to
the interpreted loops — cycles, steps, traffic dictionaries, load stalls,
and fill, exactly, across random CSR graphs, tilings, loop orders,
bandwidth points (including non-powers-of-two), and the zero-degree-row
edge case.  ``tests/test_engine_streamed.py`` repeats the comparison
under block sizes forced to their minimum.

Also covers the ``REPRO_REFERENCE_ENGINE`` escape hatch, the
``TileStats`` hit counters (the second candidate of a session must reuse
the first one's sparsity scans), the registry's cross-context sharing,
and the chunked pipeline scan against the scalar recurrence.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.arch.config import AcceleratorConfig
from repro.core.taxonomy import Annot, Dim, IntraDataflow, Phase
from repro.engine.cycle_model import (
    _pipeline,
    _PipelineScan,
    cycle_accurate_gemm,
    cycle_accurate_gemm_reference,
    cycle_accurate_spmm,
    cycle_accurate_spmm_reference,
    use_reference_engine,
)
from repro.engine.gemm import GemmSpec, GemmTiling
from repro.engine.spmm import SpmmSpec, SpmmTiling, simulate_spmm
from repro.engine.tilestats import TileStats, TileStatsRegistry, graph_digest
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi_graph, hub_thread_graph

SPMM_ORDERS = list(itertools.permutations((Dim.V, Dim.F, Dim.N)))
GEMM_ORDERS = list(itertools.permutations((Dim.V, Dim.F, Dim.G)))
# Deliberately includes non-power-of-two bandwidths: the vectorized
# pipeline's cumulative-max recurrence must agree even when per-step
# divisions are inexact in floating point.
BWS = [(16, 16), (3, 5), (7, 12), (2, 2), (64, 64)]


@pytest.fixture(autouse=True)
def _vectorized_engine(monkeypatch):
    """Compare the vectorized engine, also when the suite runs under
    ``REPRO_REFERENCE_ENGINE=1``; the dispatch tests set the flag
    themselves."""
    monkeypatch.delenv("REPRO_REFERENCE_ENGINE", raising=False)


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


def _assert_identical(ref, vec, context):
    assert _report_tuple(ref) == _report_tuple(vec), (
        f"{context}\n ref={ref}\n vec={vec}"
    )


def _random_graph(rng: np.random.Generator) -> CSRGraph:
    """Random CSR graphs spanning ER, skewed-hub, and degenerate shapes."""
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
        # Explicit zero-degree rows interleaved with dense ones.
        n = int(rng.integers(3, 24))
        deg = rng.integers(0, 6, size=n)
        deg[rng.integers(0, n)] = 0
        vptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=vptr[1:])
        dst = rng.integers(0, n, size=int(vptr[-1])).astype(np.int64)
        return CSRGraph(vptr, np.sort(dst), n)
    # All rows empty: pure flush, no compute steps at all.
    n = int(rng.integers(1, 8))
    return CSRGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), n)


class TestSpmmEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_exact(self, seed):
        rng = np.random.default_rng(1000 + seed)
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
            vec = cycle_accurate_spmm(spec, intra, tiles, hw)
            _assert_identical(ref, vec, f"g=V{g.num_vertices}/E{g.num_edges} "
                                        f"{intra} {tiles} bw=({bwd},{bwr})")

    @pytest.mark.parametrize("order", SPMM_ORDERS, ids=lambda o: "".join(d.value for d in o))
    def test_zero_degree_rows_exact(self, order):
        """Rows with no neighbors are flushed but never stepped — both
        engines must agree on the flush-only write traffic."""
        hw = AcceleratorConfig(num_pes=64, dist_bw=7, red_bw=12)
        g = CSRGraph(np.array([0, 0, 3, 3, 5, 5]), np.array([0, 1, 2, 0, 4]), 5)
        spec = SpmmSpec(graph=g, feat=4)
        for tv, tf, tn in [(1, 1, 1), (2, 2, 2), (5, 4, 1), (3, 1, 2)]:
            tiles = SpmmTiling(tv, tf, tn)
            intra = IntraDataflow(
                Phase.AGGREGATION, order,
                _annot(order, {Dim.V: tv, Dim.F: tf, Dim.N: tn}),
            )
            ref = cycle_accurate_spmm_reference(spec, intra, tiles, hw)
            vec = cycle_accurate_spmm(spec, intra, tiles, hw)
            _assert_identical(ref, vec, f"{intra} {tiles}")
            assert vec.gb_writes["intermediate"] >= 3 * 4  # zero rows flushed

    def test_shared_stats_handle_identical(self):
        """Feeding a warm TileStats handle must not change any number."""
        rng = np.random.default_rng(5)
        g = hub_thread_graph(rng, 30, 100, num_hubs=2)
        spec = SpmmSpec(graph=g, feat=9)
        hw = AcceleratorConfig(num_pes=512, dist_bw=16, red_bw=16)
        stats = TileStats(g)
        for tv, tf, tn in [(4, 2, 2), (1, 3, 1), (4, 2, 2)]:
            tiles = SpmmTiling(tv, tf, tn)
            intra = IntraDataflow(
                Phase.AGGREGATION, (Dim.V, Dim.N, Dim.F),
                _annot((Dim.V, Dim.N, Dim.F), {Dim.V: tv, Dim.F: tf, Dim.N: tn}),
            )
            cold = cycle_accurate_spmm(spec, intra, tiles, hw)
            warm = cycle_accurate_spmm(spec, intra, tiles, hw, stats=stats)
            _assert_identical(cold, warm, f"{tiles}")
        assert stats.hits > 0  # repeated tiling answered from the cache

    def test_stats_for_wrong_graph_rejected(self):
        g1 = CSRGraph(np.array([0, 2]), np.array([0, 1]), 2)
        g2 = CSRGraph(np.array([0, 1, 2]), np.array([0, 1]), 2)
        # Same V and E as g1, different sparsity pattern: the digest-based
        # guard must still refuse (V/E coincidence is not equivalence).
        g3 = CSRGraph(np.array([0, 2]), np.array([1, 1]), 2)
        spec = SpmmSpec(graph=g1, feat=2)
        intra = IntraDataflow.parse("VtFtNt", Phase.AGGREGATION)
        hw = AcceleratorConfig(num_pes=8)
        for other in (g2, g3):
            with pytest.raises(ValueError, match="different graph"):
                # The reference engine has no stats check; this one must.
                cycle_accurate_spmm(
                    spec, intra, SpmmTiling(1, 1, 1), hw, stats=TileStats(other)
                )
            with pytest.raises(ValueError, match="different graph"):
                simulate_spmm(
                    spec, intra, SpmmTiling(1, 1, 1), hw, stats=TileStats(other)
                )
        # A content-identical (but distinct) graph object is accepted.
        twin = CSRGraph(np.array([0, 2]), np.array([0, 1]), 2, name="twin")
        simulate_spmm(spec, intra, SpmmTiling(1, 1, 1), hw, stats=TileStats(twin))


class TestGemmEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_shapes_exact(self, seed):
        rng = np.random.default_rng(2000 + seed)
        for _ in range(8):
            rows = int(rng.integers(1, 24))
            inner = int(rng.integers(1, 16))
            cols = int(rng.integers(1, 16))
            spec = GemmSpec(rows=rows, inner=inner, cols=cols)
            tv = int(rng.integers(1, 10))
            tf = int(rng.integers(1, 8))
            tg = int(rng.integers(1, 8))
            order = GEMM_ORDERS[int(rng.integers(0, len(GEMM_ORDERS)))]
            bwd, bwr = BWS[int(rng.integers(0, len(BWS)))]
            hw = AcceleratorConfig(
                num_pes=4096,
                dist_bw=bwd,
                red_bw=bwr,
                pe_accumulators=int(rng.integers(1, 4)),
                supports_temporal_reduction=bool(rng.integers(0, 2)),
            )
            tiles = GemmTiling(tv, tf, tg)
            intra = IntraDataflow(
                Phase.COMBINATION,
                order,
                _annot(order, {Dim.V: tv, Dim.F: tf, Dim.G: tg}),
            )
            ref = cycle_accurate_gemm_reference(spec, intra, tiles, hw)
            vec = cycle_accurate_gemm(spec, intra, tiles, hw)
            _assert_identical(
                ref, vec, f"{spec.rows}x{spec.inner}x{spec.cols} {intra} "
                          f"{tiles} bw=({bwd},{bwr})"
            )


class TestEngineDispatch:
    def test_env_var_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE_ENGINE", "1")
        assert use_reference_engine()
        monkeypatch.setenv("REPRO_REFERENCE_ENGINE", "0")
        assert not use_reference_engine()
        monkeypatch.delenv("REPRO_REFERENCE_ENGINE")
        assert not use_reference_engine()

    def test_both_paths_reachable_and_equal(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = erdos_renyi_graph(rng, 20, 80)
        spec = SpmmSpec(graph=g, feat=6)
        intra = IntraDataflow.parse("VsFtNt", Phase.AGGREGATION)
        tiles = SpmmTiling(4, 1, 1)
        hw = AcceleratorConfig(num_pes=64, dist_bw=16, red_bw=16)
        monkeypatch.setenv("REPRO_REFERENCE_ENGINE", "1")
        ref = cycle_accurate_spmm(spec, intra, tiles, hw)
        monkeypatch.delenv("REPRO_REFERENCE_ENGINE")
        vec = cycle_accurate_spmm(spec, intra, tiles, hw)
        _assert_identical(ref, vec, "dispatch")

        gspec = GemmSpec(rows=9, inner=5, cols=4)
        gintra = IntraDataflow.parse("VsGsFt", Phase.COMBINATION)
        gtiles = GemmTiling(3, 1, 2)
        monkeypatch.setenv("REPRO_REFERENCE_ENGINE", "true")
        gref = cycle_accurate_gemm(gspec, gintra, gtiles, hw)
        monkeypatch.delenv("REPRO_REFERENCE_ENGINE")
        gvec = cycle_accurate_gemm(gspec, gintra, gtiles, hw)
        _assert_identical(gref, gvec, "gemm dispatch")


class TestTileStatsCache:
    def test_hit_counters_across_candidates(self):
        """The second candidate with the same tiling must hit the cache."""
        rng = np.random.default_rng(11)
        g = erdos_renyi_graph(rng, 50, 300)
        stats = TileStats(g)
        spec = SpmmSpec(graph=g, feat=16)
        hw = AcceleratorConfig(num_pes=512)
        intra = IntraDataflow.parse("VsFsNt", Phase.AGGREGATION)
        simulate_spmm(spec, intra, SpmmTiling(8, 4, 1), hw, stats=stats)
        misses_after_first = stats.misses
        hits_after_first = stats.hits
        assert misses_after_first > 0
        simulate_spmm(spec, intra, SpmmTiling(8, 4, 1), hw, stats=stats)
        assert stats.misses == misses_after_first  # nothing recomputed
        assert stats.hits > hits_after_first

    def test_entries_cover_engine_needs(self):
        rng = np.random.default_rng(12)
        g = hub_thread_graph(rng, 32, 100, num_hubs=1)
        stats = TileStats(g)
        s = stats.per_v_steps(2)
        assert np.array_equal(s, np.ceil(g.degrees / 2).astype(np.int64))
        assert stats.spill_units(2) == int(np.maximum(s - 1, 0).sum())
        assert stats.accum_units(2) == int(s.sum())
        vt = stats.vtile_steps(5, 2)
        assert vt.size == -(-g.num_vertices // 5)
        (chunk,) = stats.step_grid_chunks(5, 2, vt.size)  # one slab: all tiles
        grids = chunk.grids
        assert np.array_equal(grids.tile_steps, vt)
        # Per-tile populations must sum back to global facts.
        assert int(grids.edges.sum()) == g.num_edges
        assert int(grids.completing.sum()) == int((g.degrees > 0).sum())
        assert int(grids.active.sum()) == int(s.sum())

    def test_registry_dedups_by_content(self):
        vptr = np.array([0, 2, 3])
        dst = np.array([0, 1, 1])
        g1 = CSRGraph(vptr, dst, 2, name="a")
        g2 = CSRGraph(vptr.copy(), dst.copy(), 2, name="b")  # same pattern
        reg = TileStatsRegistry()
        assert graph_digest(g1) == graph_digest(g2)
        assert reg.for_graph(g1) is reg.for_graph(g2)
        assert len(reg) == 1
        g3 = CSRGraph(np.array([0, 1, 3]), dst, 2)
        assert reg.for_graph(g3) is not reg.for_graph(g1)
        assert len(reg) == 2

    def test_session_shares_stats_across_contexts(self):
        """Two hardware points over one dataset share one TileStats, and
        the second unit's candidates hit the first unit's scans."""
        from repro.campaign.session import ExplorationSession
        from repro.core.configs import paper_dataflow
        from repro.core.workload import workload_from_dataset
        from repro.graphs.datasets import load_dataset

        wl = workload_from_dataset(load_dataset("mutag"))
        df, hint = paper_dataflow("SP1")
        with ExplorationSession() as session:
            ev_a = session.evaluator(wl, AcceleratorConfig(num_pes=512))
            ev_b = session.evaluator(wl, AcceleratorConfig(num_pes=256))
            assert ev_a.tilestats is ev_b.tilestats
            assert ev_a.ctx_key != ev_b.ctx_key
            ev_a.evaluate_one(df, hint)
            hits_before = ev_a.tilestats.hits
            ev_b.evaluate_one(df, hint)
            # The second context reused at least part of the first's scans
            # (identical t_n entries; t_v may differ with the PE budget).
            assert ev_b.tilestats.hits >= hits_before
            assert ev_b.tilestats.misses > 0

    def test_second_candidate_hits_cache_in_session(self):
        """Cache-hit counter assertion from the acceptance criteria: the
        second candidate of a session is answered without new scans."""
        from repro.campaign.session import ExplorationSession
        from repro.core.configs import paper_dataflow
        from repro.core.workload import workload_from_dataset
        from repro.graphs.datasets import load_dataset

        wl = workload_from_dataset(load_dataset("mutag"))
        hw = AcceleratorConfig(num_pes=512)
        df1, hint1 = paper_dataflow("SP1")
        df2, hint2 = paper_dataflow("SP2")
        with ExplorationSession() as session:
            ev = session.evaluator(wl, hw)
            ev.evaluate_one(df1, hint1)
            misses_first = ev.tilestats.misses
            hits_first = ev.tilestats.hits
            ev.evaluate_one(df2, hint2)
            assert ev.tilestats.hits > hits_first
            # Different tilings may add entries, but the per-t_n degree
            # scans of candidate 1 are never re-derived.
            assert ev.tilestats.misses - misses_first < misses_first


class TestPoolContextShipping:
    def test_tilestats_rides_the_context_blob(self):
        """The (wl, hw, stats) tuple spools once per context key and maps
        candidates through workers without re-deriving the signature."""
        from repro.core.configs import paper_dataflow
        from repro.core.evaluator import _task_eval, context_key
        from repro.core.pool import TaskKeyedPool
        from repro.core.workload import workload_from_dataset
        from repro.graphs.datasets import load_dataset

        wl = workload_from_dataset(load_dataset("mutag"))
        hw = AcceleratorConfig(num_pes=512)
        key = context_key(wl, hw)
        with TaskKeyedPool(1, _task_eval) as pool:
            assert pool.registered_keys == frozenset()
            pool.register(key, (wl, hw, TileStats(wl.graph)))
            assert pool.registered_keys == frozenset({key})
            df, hint = paper_dataflow("SP1")
            # Items are dispatch *groups* of (idx, df, spec) triples; each
            # task returns its results plus phase-cache counter deltas.
            results, hits, misses = pool.map(key, [[(0, df, hint)]])[0]
            idx, result, error = results[0]
            assert idx == 0 and error is None and result.total_cycles > 0
            assert (hits, misses) == (0, 0)  # no cache in this ctx blob
        assert pool.registered_keys == frozenset()  # close clears the spool


class TestVectorizedPipelineEdgeCases:
    """:class:`_PipelineScan` against the scalar :func:`_pipeline`: any
    chunking of the same per-step series gives the same ``(cycles, fill)``."""

    def test_empty_sequences(self):
        hw = AcceleratorConfig(num_pes=8, dist_bw=3, red_bw=5)
        assert _pipeline([], [], [], hw) == (0, 0)
        assert _PipelineScan(hw).finish() == (0, 0)
        scan = _PipelineScan(hw)
        z = np.zeros(0, dtype=np.int64)
        scan.feed(z, z, z)
        assert scan.finish() == (0, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_streams_exact(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(1, 200))
        stream = rng.integers(0, 40, size=n)
        drain = rng.integers(0, 40, size=n)
        load = rng.integers(0, 4, size=n)
        bwd, bwr = BWS[int(rng.integers(0, len(BWS)))]
        hw = AcceleratorConfig(num_pes=64, dist_bw=bwd, red_bw=bwr)
        ref = _pipeline(list(stream), list(drain), list(load), hw)
        no_load = _pipeline(list(stream), list(drain), [0] * n, hw)
        for chunk in (1, 7, n):
            scan = _PipelineScan(hw)
            unloaded = _PipelineScan(hw)
            for lo in range(0, n, chunk):
                hi = lo + chunk
                scan.feed(stream[lo:hi], drain[lo:hi], load[lo:hi])
                unloaded.feed(stream[lo:hi], drain[lo:hi])
            assert scan.finish() == ref, f"chunk={chunk}"
            assert unloaded.finish() == no_load, f"chunk={chunk}"
