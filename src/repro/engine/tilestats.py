"""Per-workload sparsity-statistics cache (the vectorized engines' fuel).

Every (dataflow, tiling) candidate the design-space explorer costs against
one graph re-derives the same CSR facts: neighbor steps per vertex
(``ceil(deg / T_N)``), lock-step maxima per vertex tile, and — for the
event-driven micro-simulator — the per-(vtile, nstep) active-lane,
active-edge, and completing-lane populations.  Dynasparse-style, those
facts depend only on the *sparsity pattern* and the tile sizes, never on
the loop order, feature width, or hardware point, so they can be computed
once per ``(graph, T_N[, T_V])`` and shared by every candidate of a
session — and by every session touching the same dataset.

:class:`TileStats` is that cache for one graph; :class:`TileStatsRegistry`
deduplicates instances across workload contexts by graph content digest so
overlapping campaign units on the same dataset share a single cache.  Both
are plain picklable containers: the evaluation service ships a
``TileStats`` to pool workers alongside the ``(workload, hardware)``
context blob, and each worker keeps filling the same instance across
tasks (the pool caches context blobs per process).

All entries are derived with prefix-sum / scatter-add kernels over
``CSRGraph.vertex_ptr`` — O(V) per miss, O(1) per hit — and every lookup
bumps ``hits``/``misses`` so cache effectiveness is assertable in tests
and reportable by benchmarks.

Memory bounding (the web-scale tier): the micro-simulator's
per-(vtile, nstep) populations form ``(n_vtiles, max_nsteps)`` grids — on
a heavy-tail million-vertex graph a whole grid can exceed host memory.
They are therefore never cached: :meth:`TileStats.step_grid_chunks`
builds them on demand as a stream of vtile-row slabs
(:class:`StepGrids`), so the micro-simulator runs as a chunked
reduction.  The cached O(V) entries are bounded too: a
:class:`TileStats` accepts a ``byte_budget`` (or the
``REPRO_TILESTATS_BUDGET`` environment variable), and cached arrays are
accounted and evicted least-recently-used when the total exceeds it.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph

__all__ = [
    "StepGrids",
    "StepGridChunk",
    "TileStats",
    "TileStatsRegistry",
    "graph_digest",
    "resolve_stats",
    "default_byte_budget",
]

_BUDGET_ENV = "REPRO_TILESTATS_BUDGET"


def default_byte_budget() -> int | None:
    """The ``REPRO_TILESTATS_BUDGET`` environment override, if any.

    Read at construction time (not import time) so tests and CI can set a
    budget per invocation.  Unparseable or non-positive values mean
    "unbounded" — the historical behavior.
    """
    raw = os.environ.get(_BUDGET_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def graph_digest(graph: CSRGraph) -> str:
    """Content hash of the sparsity pattern (values and names are
    cost-model-irrelevant).  Cached on the graph instance itself."""
    return graph.pattern_digest


def resolve_stats(stats: "TileStats | None", graph: CSRGraph) -> "TileStats":
    """Validate a caller-supplied stats handle against ``graph``, or build
    a private one.

    A handle for a content-identical (even if distinct) graph object is
    accepted — that is exactly how registry-shared caches serve
    independently-loaded copies of one dataset; any other graph raises,
    because serving a foreign sparsity pattern would silently corrupt the
    cost numbers.
    """
    if stats is None:
        return TileStats(graph)
    if (
        stats.graph is not graph
        and stats.graph.pattern_digest != graph.pattern_digest
    ):
        raise ValueError(
            "stats handle was built for a different graph "
            f"(V={stats.graph.num_vertices}, E={stats.graph.num_edges})"
        )
    return stats


@dataclass(frozen=True)
class StepGrids:
    """Per-(vertex-tile, neighbor-step) populations of a run of tiles.

    Row ``vi`` describes vertex tile ``vi`` of the run (``T_V`` lanes in
    lock step); column ``ni`` the tile's ``ni``-th neighbor step:

    - ``active[vi, ni]``: lanes still working (``ceil(deg/T_N) > ni``);
    - ``edges[vi, ni]``: real edges consumed across those lanes
      (``min(deg - ni*T_N, T_N)`` summed over active lanes);
    - ``completing[vi, ni]``: lanes finishing their contraction here.

    Spilling lanes are ``active - completing``; psum re-readers are
    ``active`` wherever ``ni > 0``.  Shapes are ``(n_vtiles, max_nsteps)``.
    """

    active: np.ndarray
    edges: np.ndarray
    completing: np.ndarray
    tile_steps: np.ndarray  # lock-step steps per vertex tile (length n_vtiles)
    max_nsteps: int

    @property
    def n_vtiles(self) -> int:
        return int(self.tile_steps.size)


@dataclass(frozen=True)
class StepGridChunk:
    """One vtile-row slab of the step grids, as yielded by
    :meth:`TileStats.step_grid_chunks`.

    ``grids`` covers vertex tiles ``[row_lo, row_hi)`` with a chunk-local
    ``max_nsteps`` (the max over the slab's tiles), so a consumer masking
    by ``grids.tile_steps`` sees exactly the whole graph's populations.
    """

    row_lo: int
    row_hi: int
    grids: StepGrids


def _scatter_grids(
    deg: np.ndarray, s: np.ndarray, t_v: int, t_n: int, tile_steps: np.ndarray
) -> StepGrids:
    """Build a :class:`StepGrids` for a contiguous run of vertices.

    ``deg``/``s`` are the run's per-vertex degrees and neighbor-step
    counts; the run's first vertex is lane 0 of tile row 0 (callers slice
    on tile boundaries), and ``tile_steps`` its lock-step maxima.  A lane
    is active on ``[0, steps)``, completes at ``steps - 1``, and consumes
    ``t_n`` edges per step except the remainder ``deg - (steps - 1) * t_n``
    on its last one.
    """
    num_v = int(deg.size)
    n_vtiles = int(tile_steps.size)
    max_nsteps = int(tile_steps.max()) if n_vtiles else 0
    shape = (n_vtiles, max_nsteps)
    active = np.zeros((n_vtiles, max_nsteps + 1), dtype=np.int64)
    completing = np.zeros(shape, dtype=np.int64)
    deficit = np.zeros(shape, dtype=np.int64)
    if num_v:
        vt = np.arange(num_v, dtype=np.int64) // t_v
        # Active lanes: +1 over [0, s_v) per vertex, via a difference
        # array cumsum'd along the step axis.
        np.add.at(active, (vt, np.zeros(num_v, dtype=np.int64)), 1)
        np.add.at(active, (vt, s), -1)
        np.cumsum(active, axis=1, out=active)
        live = s > 0
        last = s[live] - 1
        np.add.at(completing, (vt[live], last), 1)
        # Edge deficit at the completing step: the last step consumes
        # only the remainder, not a full t_n.
        rem = deg[live] - last * t_n
        np.add.at(deficit, (vt[live], last), t_n - rem)
    active = np.ascontiguousarray(active[:, :max_nsteps])
    edges = active * t_n - deficit
    return StepGrids(
        active=active,
        edges=edges,
        completing=completing,
        tile_steps=tile_steps,
        max_nsteps=max_nsteps,
    )


class TileStats:
    """Sparsity statistics of one graph, memoized per tile size.

    Entries are keyed by the tile sizes they depend on and nothing else:

    - ``per_v_steps(t_n)``: neighbor steps per vertex;
    - ``spill_units(t_n)`` / ``accum_units(t_n)``: summed psum-revisit and
      accumulation counts (the tile engine's per-feature multipliers);
    - ``vtile_steps(t_v, t_n)``: lock-step maxima per vertex tile;
    - ``step_grid_chunks(t_v, t_n, chunk_rows)``: the micro-simulator's
      :class:`StepGrids` populations as a stream of row slabs, never
      cached.

    One instance is safe to share across candidates, dataflows, feature
    widths, and hardware points of the same graph.  With a ``byte_budget``
    (default: the ``REPRO_TILESTATS_BUDGET`` environment variable) cached
    arrays are LRU-evicted once the accounted total exceeds the budget;
    ``nbytes()``/``peak_nbytes``/``evictions`` expose the accounting, and
    ``streamed_chunk_passes`` counts the blocks (slabs or bands) the
    micro-simulator has streamed.
    """

    def __init__(self, graph: CSRGraph, byte_budget: int | None = None) -> None:
        self.graph = graph
        self.byte_budget = (
            byte_budget if byte_budget is not None else default_byte_budget()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_nbytes = 0  # monotone: high-water mark of accounted bytes
        self.streamed_chunk_passes = 0
        self._total_nbytes = 0
        self._lru: OrderedDict[tuple, int] = OrderedDict()
        self._per_v_steps: dict[int, np.ndarray] = {}
        self._unit_sums: dict[int, tuple[int, int]] = {}
        self._vtile_steps: dict[tuple[int, int], np.ndarray] = {}

    # -- bookkeeping ----------------------------------------------------
    def _tally(self, present: bool) -> None:
        if present:
            self.hits += 1
        else:
            self.misses += 1

    def nbytes(self) -> int:
        """Bytes currently held by cached entries (LRU-accounted)."""
        return self._total_nbytes

    def _account(self, key: tuple, nbytes: int) -> None:
        """Admit a freshly built entry and evict LRU victims over budget.

        The entry being admitted is protected — it is about to be handed
        to the caller, so evicting it would only force an immediate
        rebuild; a single entry larger than the whole budget is therefore
        kept (and ``peak_nbytes`` records the overshoot honestly).
        """
        self._lru[key] = nbytes
        self._lru.move_to_end(key)
        self._total_nbytes += nbytes
        if self._total_nbytes > self.peak_nbytes:
            self.peak_nbytes = self._total_nbytes
        budget = self.byte_budget
        if budget is None:
            return
        while self._total_nbytes > budget:
            victim = next((k for k in self._lru if k != key), None)
            if victim is None:
                break
            self._total_nbytes -= self._lru.pop(victim)
            self.evictions += 1
            self._drop(victim)

    def _touch(self, key: tuple) -> None:
        if key in self._lru:
            self._lru.move_to_end(key)

    def _drop(self, key: tuple) -> None:
        kind = key[0]
        if kind == "pvs":
            self._per_v_steps.pop(key[1], None)
        elif kind == "vts":
            self._vtile_steps.pop(key[1:], None)

    @property
    def zero_degree_rows(self) -> int:
        """Rows with no stored non-zeros (flushed but never computed)."""
        g = self.graph
        return int((g.degrees == 0).sum()) if g.num_vertices else 0

    # -- per-vertex entries ---------------------------------------------
    def per_v_steps(self, t_n: int) -> np.ndarray:
        """``ceil(deg / t_n)`` per vertex (int64; treat as read-only)."""
        out = self._per_v_steps.get(t_n)
        self._tally(out is not None)
        if out is None:
            # Integer ceil-division: no float64 round-trip, no extra
            # allocation for the astype on the hottest stats kernel.
            out = -(-self.graph.degrees // t_n)
            out.setflags(write=False)  # shared across candidates
            self._per_v_steps[t_n] = out
            self._account(("pvs", t_n), int(out.nbytes))
        else:
            self._touch(("pvs", t_n))
        return out

    def _sums(self, t_n: int) -> tuple[int, int]:
        out = self._unit_sums.get(t_n)
        if out is None:
            s = self.per_v_steps(t_n)
            out = (
                int(np.maximum(s - 1, 0).sum()),
                int(s.sum()),
            )
            self._unit_sums[t_n] = out
        return out

    def spill_units(self, t_n: int) -> int:
        """One psum round trip per extra neighbor revisit of each output
        element, per unit of feature width: ``sum(max(steps - 1, 0))``."""
        return self._sums(t_n)[0]

    def accum_units(self, t_n: int) -> int:
        """RF accumulator touches per unit of feature width: ``sum(steps)``."""
        return self._sums(t_n)[1]

    # -- per-vertex-tile entries ----------------------------------------
    def vtile_steps(self, t_v: int, t_n: int) -> np.ndarray:
        """Lock-step neighbor steps per ``t_v``-vertex tile (the max over
        the tile's lanes — one evil row stalls all its tile-mates)."""
        key = (t_v, t_n)
        out = self._vtile_steps.get(key)
        self._tally(out is not None)
        if out is None:
            s = self.per_v_steps(t_n)
            num_v = self.graph.num_vertices
            n_vtiles = -(-num_v // t_v) if num_v else 0
            if n_vtiles:
                pad = n_vtiles * t_v - num_v
                padded = np.concatenate([s, np.zeros(pad, dtype=np.int64)])
                out = padded.reshape(n_vtiles, t_v).max(axis=1)
            else:
                out = np.zeros(0, dtype=np.int64)
            out.setflags(write=False)  # shared across candidates
            self._vtile_steps[key] = out
            self._account(("vts", t_v, t_n), int(out.nbytes))
        else:
            self._touch(("vts", t_v, t_n))
        return out

    # -- micro-simulator grids ------------------------------------------
    def step_grid_chunks(
        self, t_v: int, t_n: int, chunk_rows: int
    ) -> Iterator[StepGridChunk]:
        """The per-(vtile, nstep) populations of the whole graph as a
        stream of vtile-row slabs of at most ``chunk_rows`` rows each
        (:class:`StepGridChunk`).

        Chunks are built on the fly from the O(V) per-vertex entries and
        never cached, so peak memory is ``O(chunk_rows x slab max_nsteps)``
        regardless of graph size.  Each yielded slab bumps
        ``streamed_chunk_passes``.
        """
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        s = self.per_v_steps(t_n)
        tile_steps = self.vtile_steps(t_v, t_n)
        return self._iter_chunks(s, tile_steps, t_v, t_n, chunk_rows)

    def _iter_chunks(
        self,
        s: np.ndarray,
        tile_steps: np.ndarray,
        t_v: int,
        t_n: int,
        chunk_rows: int,
    ) -> Iterator[StepGridChunk]:
        deg = self.graph.degrees
        num_v = self.graph.num_vertices
        n_vtiles = int(tile_steps.size)
        for row_lo in range(0, n_vtiles, chunk_rows):
            row_hi = min(row_lo + chunk_rows, n_vtiles)
            v_lo = row_lo * t_v
            v_hi = min(row_hi * t_v, num_v)
            grids = _scatter_grids(
                deg[v_lo:v_hi],
                s[v_lo:v_hi],
                t_v,
                t_n,
                tile_steps[row_lo:row_hi],
            )
            self.streamed_chunk_passes += 1
            yield StepGridChunk(row_lo=row_lo, row_hi=row_hi, grids=grids)


class TileStatsRegistry:
    """Session-scoped pool of :class:`TileStats`, one per distinct graph.

    Keyed by sparsity-pattern digest (cached on each graph instance) so
    two workload contexts built from independently-loaded copies of one
    dataset (e.g. overlapping campaign units) resolve to the same cache.
    Only one graph per distinct pattern is kept alive — the one inside
    its :class:`TileStats`.  ``byte_budget`` is forwarded to every cache
    the registry creates (``None`` defers to ``REPRO_TILESTATS_BUDGET``).
    """

    def __init__(self, byte_budget: int | None = None) -> None:
        self.byte_budget = byte_budget
        self._by_digest: dict[str, TileStats] = {}

    def for_graph(self, graph: CSRGraph) -> TileStats:
        stats = self._by_digest.get(graph.pattern_digest)
        if stats is None:
            stats = TileStats(graph, byte_budget=self.byte_budget)
            self._by_digest[graph.pattern_digest] = stats
        return stats

    def counters(self) -> tuple[int, int]:
        """Aggregate ``(hits, misses)`` across every registered graph."""
        hits = sum(stats.hits for stats in self._by_digest.values())
        misses = sum(stats.misses for stats in self._by_digest.values())
        return hits, misses

    def memory_counters(self) -> dict[str, int]:
        """Aggregate memory accounting across every registered graph.

        ``peak_nbytes`` and ``evictions`` are monotone (sums of per-cache
        monotone counters), so per-unit deltas in the campaign stats
        sidecar remain meaningful; ``nbytes`` is the instantaneous total.
        """
        caches = self._by_digest.values()
        return {
            "nbytes": sum(c.nbytes() for c in caches),
            "peak_nbytes": sum(c.peak_nbytes for c in caches),
            "evictions": sum(c.evictions for c in caches),
            "streamed_chunk_passes": sum(
                c.streamed_chunk_passes for c in caches
            ),
        }

    def __len__(self) -> int:
        return len(self._by_digest)
