"""Inter-phase cost composition (paper §IV, Table III).

Combines the two intra-phase engine results into a whole-layer cost under
the chosen inter-phase dataflow:

============  =========================  ==================================
dataflow      intermediate buffering     runtime
============  =========================  ==================================
Seq           ``V x F`` (DRAM if big)    ``t_AGG + t_CMB`` (+ spill xfer)
SP-Generic    ``Pel``                    ``t_AGG + t_CMB``
SP-Optimized  0 (stays in PE RF)         ``t_AGG + t_CMB - t_load``
PP            ``2 x Pel`` ping-pong      bounded-pipeline recurrence
============  =========================  ==================================

Energy follows the access counts: Seq/SP-Generic stage the intermediate
through the global buffer; SP-Optimized turns that traffic into register
file accesses; PP charges it to the small dedicated ping-pong partition
(lower per-access energy, §V-B2); Seq spills the overflow to DRAM when the
global buffer is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from typing import Sequence

from ..arch.config import AcceleratorConfig
from ..arch.energy import EnergyBreakdown
from ..arch.memory import DramModel, SpillReport
from ..engine.gemm import GemmResult
from ..engine.spmm import SpmmResult
from ..engine.stats import PhaseStats, merge_counts
from .granularity import GranuleSpec, granule_series, make_granule_spec
from .legality import LegalityError, validate_dataflow
# bounded_pipeline_batch is not called here but stays importable from
# this module: the benchmark's per-layer trace wraps both entry points
# by name where the composition layer imports them.
from .pipeline import (  # noqa: F401
    PipelineReport,
    bounded_pipeline,
    bounded_pipeline_batch,
)
from .taxonomy import (
    Dataflow,
    Granularity,
    InterPhase,
    PhaseOrder,
    SPVariant,
)
from .workload import GNNWorkload

__all__ = ["RunResult", "compose", "compose_batch"]

# One compose_batch item: (dataflow, workload, hw, agg_result, cmb_result) —
# the exact argument tuple of one scalar compose() call.
ComposeItem = "tuple[Dataflow, GNNWorkload, AcceleratorConfig, SpmmResult, GemmResult]"

@dataclass
class RunResult:
    """Whole-layer cost of one dataflow on one workload.

    ``gb_reads``/``gb_writes`` are element counts *after* redirection: the
    intermediate's traffic is removed for SP-Optimized (RF-resident) and PP
    (ping-pong buffer) and reported in ``rf_*`` / ``intermediate_*``
    instead.  ``energy`` prices every pool at its level's per-access cost.
    """

    dataflow: Dataflow
    workload: GNNWorkload
    hw: AcceleratorConfig
    total_cycles: int
    agg: PhaseStats
    cmb: PhaseStats
    gb_reads: dict[str, float]
    gb_writes: dict[str, float]
    rf_reads: float
    rf_writes: float
    intermediate_reads: float  # through the PP ping-pong buffer
    intermediate_writes: float
    intermediate_buffer_elements: int  # Table III "Intermediate Buffering"
    energy: EnergyBreakdown
    granularity: Granularity | None = None
    pel: int | None = None
    pipeline: PipelineReport | None = None
    spill: SpillReport | None = None
    notes: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total_gb_accesses(self) -> float:
        return float(sum(self.gb_reads.values()) + sum(self.gb_writes.values()))

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    def gb_breakdown(self) -> dict[str, float]:
        """Fig. 13-style operand breakdown (reads + writes, elements)."""
        out: dict[str, float] = {}
        for d in (self.gb_reads, self.gb_writes):
            for k, v in d.items():
                out[k] = out.get(k, 0.0) + v
        return out

    def summary(self) -> dict:
        return {
            "dataflow": self.dataflow.name or str(self.dataflow),
            "workload": self.workload.name,
            "cycles": self.total_cycles,
            "energy_pj": self.energy_pj,
            "gb_accesses": self.total_gb_accesses,
            "intermediate_buffer": self.intermediate_buffer_elements,
            "granularity": self.granularity.value if self.granularity else None,
        }


def _roofline(
    steps: int, reads: float, writes: float, hw: AcceleratorConfig, stalls: int
) -> int:
    """Steady-state roofline matching the engines: compute + serialized
    stationary loads vs pipelined distribution vs collection."""
    dist = math.ceil(reads / hw.effective_dist_bw)
    red = math.ceil(writes / hw.effective_red_bw)
    return max(steps + stalls, dist, red)


def _energy_from_counts(
    gb_reads: dict[str, float],
    gb_writes: dict[str, float],
    rf_reads: float,
    rf_writes: float,
    int_reads: float,
    int_writes: float,
    int_buffer_bytes: float,
    spill: SpillReport | None,
    hw: AcceleratorConfig,
) -> EnergyBreakdown:
    e = hw.energy
    int_pj = e.buffer_pj(int_buffer_bytes)
    out = EnergyBreakdown(
        gb_read_pj=sum(gb_reads.values()) * e.gb_pj,
        gb_write_pj=sum(gb_writes.values()) * e.gb_pj,
        rf_read_pj=rf_reads * e.rf_pj,
        rf_write_pj=rf_writes * e.rf_pj,
        intermediate_pj=(int_reads + int_writes) * int_pj,
        dram_pj=(
            (spill.dram_reads + spill.dram_writes) * e.dram_pj if spill else 0.0
        ),
    )
    return out


def _seq_spill(
    wl: GNNWorkload, df: Dataflow, hw: AcceleratorConfig
) -> SpillReport | None:
    """Seq only: intermediate overflow to DRAM when the GB is finite."""
    if hw.gb_bytes is None:
        return None
    ac = df.order is PhaseOrder.AC
    int_elems = wl.intermediate_elements(ac)
    resident = (
        wl.num_edges  # adjacency values/indices
        + (wl.num_vertices + 1)  # row pointers
        + wl.num_vertices * wl.in_features  # X0
        + wl.in_features * wl.out_features  # W
        + wl.num_vertices * wl.out_features  # X1
    )
    free = hw.gb_bytes // hw.bytes_per_element - resident
    return DramModel().spill(int_elems, free)


def _pp_ingredients(
    df: Dataflow,
    wl: GNNWorkload,
    gran: Granularity,
    agg_res: SpmmResult,
    cmb_res: GemmResult,
):
    """Granule spec plus aligned producer/consumer series for one PP
    candidate (the recurrence's inputs, before it runs)."""
    spec = make_granule_spec(df, wl, gran, agg_res, cmb_res)
    prod_series, cons_series = granule_series(df, spec, agg_res, cmb_res)
    return spec, prod_series, cons_series


def compose(
    df: Dataflow,
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    agg_res: SpmmResult,
    cmb_res: GemmResult,
) -> RunResult:
    """Compose the two phases' results under ``df``'s inter-phase strategy.

    The engines must already have been run on the correct substrate: the
    full array for Seq/SP, the respective partitions for PP (handled by
    :func:`repro.core.omega.run_gnn_dataflow`).
    """
    gran = validate_dataflow(df)
    pp: tuple[GranuleSpec, PipelineReport] | None = None
    if df.inter is InterPhase.PP:
        assert gran is not None
        spec, prod_series, cons_series = _pp_ingredients(
            df, wl, gran, agg_res, cmb_res
        )
        pp = (spec, bounded_pipeline(prod_series, cons_series, depth=2))
    return _finish_compose(df, wl, hw, agg_res, cmb_res, gran, pp)


def compose_batch(items: "Sequence[ComposeItem]") -> list[RunResult]:
    """Compose many candidates at once; equals ``[compose(*i) for i in items]``.

    Candidates sharing the same phase-result pair, phase order, producer
    mapping, and granularity (e.g. the pe_split sweep of one PP mapping,
    or phase-cache-mates) build their producer/consumer series and run
    the PP recurrence once.  The recurrence is
    :func:`~repro.core.pipeline.bounded_pipeline`: the compiled kernel,
    or its bit-identical Python reference under
    ``REPRO_REFERENCE_ENGINE=1`` or without a C compiler.

    Error semantics match the scalar loop: the first item (in item order)
    whose composition is illegal raises, composing no observable state
    for the items after it (composition is side-effect free).
    """
    results, errors = _compose_batch(items)
    if errors:
        raise errors[0][1]
    return results  # type: ignore[return-value]


def _compose_batch(
    items: "Sequence[ComposeItem]",
) -> tuple[list["RunResult | None"], list[tuple[int, Exception]]]:
    """Shared core of :func:`compose_batch`: per-item results + captured
    per-item failures (``(item_index, exception)``, in item order) so the
    evaluation service can report illegal candidates individually."""
    n = len(items)
    grans: list[Granularity | None] = [None] * n
    errors: list[tuple[int, Exception]] = []
    failed: set[int] = set()
    # PP granule specs, deduplicated: series_of maps item index -> slot.
    series_key: dict[tuple, int] = {}
    series_of: dict[int, int] = {}
    pp_specs: list[GranuleSpec] = []
    pp_args: list[tuple] = []  # (df, agg_res, cmb_res) per slot
    for i, (df, wl, hw, agg_res, cmb_res) in enumerate(items):
        try:
            gran = validate_dataflow(df)
            grans[i] = gran
            if df.inter is InterPhase.PP:
                assert gran is not None
                # Everything the spec/series derivation reads, by identity:
                # shared phase results (the cache returns one object per
                # distinct engine run) collapse to one series build.
                key = (id(wl), id(agg_res), id(cmb_res), df.order, gran, df.producer)
                slot = series_key.get(key)
                if slot is None:
                    slot = len(pp_specs)
                    pp_specs.append(
                        make_granule_spec(df, wl, gran, agg_res, cmb_res)
                    )
                    pp_args.append((df, agg_res, cmb_res))
                    series_key[key] = slot
                series_of[i] = slot
        except (LegalityError, ValueError) as exc:
            errors.append((i, exc))
            failed.add(i)

    # Each distinct series runs through the recurrence right after it is
    # built, so at most one element-granularity series (millions of
    # granules) is resident at a time.
    reports = []
    for spec, (df, agg_res, cmb_res) in zip(pp_specs, pp_args):
        prod, cons = granule_series(df, spec, agg_res, cmb_res)
        reports.append(bounded_pipeline(prod, cons, depth=2))

    results: list[RunResult | None] = [None] * n
    for i, (df, wl, hw, agg_res, cmb_res) in enumerate(items):
        if i in failed:
            continue
        pp = None
        if i in series_of:
            slot = series_of[i]
            pp = (pp_specs[slot], reports[slot])
        try:
            results[i] = _finish_compose(
                df, wl, hw, agg_res, cmb_res, grans[i], pp
            )
        except (LegalityError, ValueError) as exc:
            errors.append((i, exc))
    errors.sort(key=lambda pair: pair[0])
    return results, errors


def _finish_compose(
    df: Dataflow,
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    agg_res: SpmmResult,
    cmb_res: GemmResult,
    gran: Granularity | None,
    pp: "tuple[GranuleSpec, PipelineReport] | None",
) -> RunResult:
    """Inter-phase accounting for one candidate, from (possibly batch-
    computed) PP ingredients; the single definition both :func:`compose`
    and :func:`compose_batch` flow through."""
    agg = agg_res.stats
    cmb = cmb_res.stats
    ac = df.order is PhaseOrder.AC
    notes: list[str] = []

    gb_reads = merge_counts(agg.gb_reads, cmb.gb_reads)
    gb_writes = merge_counts(agg.gb_writes, cmb.gb_writes)
    rf_reads = agg.rf_reads + cmb.rf_reads
    rf_writes = agg.rf_writes + cmb.rf_writes
    int_reads = int_writes = 0.0
    int_buffer_elems = 0
    pel: int | None = None
    pipeline: PipelineReport | None = None
    spill: SpillReport | None = None

    if df.inter is InterPhase.SEQ:
        spill = _seq_spill(wl, df, hw)
        total = agg.cycles + cmb.cycles
        int_buffer_elems = wl.intermediate_elements(ac)
        if spill and spill.spilled:
            total += spill.transfer_cycles
            # The spilled portion's GB traffic happens in DRAM instead.
            gb_reads["intermediate"] = max(
                0.0, gb_reads.get("intermediate", 0.0) - spill.spilled_elements
            )
            gb_writes["intermediate"] = max(
                0.0, gb_writes.get("intermediate", 0.0) - spill.spilled_elements
            )
            notes.append(
                f"Seq intermediate spilled {spill.spilled_elements} elements to DRAM"
            )

    elif df.inter is InterPhase.SP and df.sp_variant is SPVariant.OPTIMIZED:
        if not hw.supports_temporal_reduction:
            raise LegalityError(
                "SP-Optimized needs temporal reduction support (paper §V-D)"
            )
        # Producer keeps the intermediate in RF: its GB writes become RF
        # writes and its collection roofline shrinks accordingly.
        prod, cons = (agg, cmb) if ac else (cmb, agg)
        prod_int_writes = prod.gb_writes.get("intermediate", 0.0)
        cons_int_reads = cons.gb_reads.get("intermediate", 0.0)
        prod_cycles = _roofline(
            prod.compute_steps,
            prod.streamed_reads,
            prod.total_gb_writes - prod_int_writes,
            hw,
            prod.load_stall_cycles,
        )
        # Consumer reads the intermediate from the RF where it already
        # lives: drop its streamed intermediate reads (if it streamed them)
        # and its stationary-load stalls for the intermediate (t_load).
        cons_streamed = cons.streamed_reads
        if "intermediate" in cons.streamed_operands:
            cons_streamed -= cons_int_reads
        cons_cycles = _roofline(
            cons.compute_steps,
            cons_streamed,
            cons.total_gb_writes,
            hw,
            cons.load_stall_cycles - cons.intermediate_load_stall_cycles,
        )
        total = prod_cycles + cons_cycles
        t_load_saved = (agg.cycles + cmb.cycles) - total
        notes.append(f"SP-Optimized saved {t_load_saved} cycles of t_load/staging")
        gb_writes["intermediate"] = (
            gb_writes.get("intermediate", 0.0) - prod_int_writes
        )
        gb_reads["intermediate"] = gb_reads.get("intermediate", 0.0) - cons_int_reads
        rf_writes += prod_int_writes
        rf_reads += cons_int_reads
        int_buffer_elems = 0
        pel = 0

    elif df.inter is InterPhase.SP:  # SP-Generic
        assert gran is not None
        spec = make_granule_spec(df, wl, gran, agg_res, cmb_res)
        pel = spec.pel
        int_buffer_elems = spec.pel
        total = agg.cycles + cmb.cycles
        notes.append(
            f"SP-Generic staged {spec.num_granules} granules of {spec.pel} elements"
        )

    else:  # PP
        assert pp is not None
        spec, pipeline = pp
        pel = spec.pel
        int_buffer_elems = spec.buffering_elements
        total = pipeline.total_cycles
        # Intermediate traffic moves to the dedicated ping-pong partition.
        prod, cons = (agg, cmb) if ac else (cmb, agg)
        int_writes = prod.gb_writes.get("intermediate", 0.0)
        int_reads = cons.gb_reads.get("intermediate", 0.0)
        gb_writes["intermediate"] = (
            gb_writes.get("intermediate", 0.0) - int_writes
        )
        gb_reads["intermediate"] = gb_reads.get("intermediate", 0.0) - int_reads

    # Drop zeroed operand entries for clean reports.
    gb_reads = {k: v for k, v in gb_reads.items() if v > 0}
    gb_writes = {k: v for k, v in gb_writes.items() if v > 0}

    energy = _energy_from_counts(
        gb_reads,
        gb_writes,
        rf_reads,
        rf_writes,
        int_reads,
        int_writes,
        int_buffer_elems * hw.bytes_per_element,
        spill,
        hw,
    )
    return RunResult(
        dataflow=df,
        workload=wl,
        hw=hw,
        total_cycles=int(total),
        agg=agg,
        cmb=cmb,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        rf_reads=rf_reads,
        rf_writes=rf_writes,
        intermediate_reads=int_reads,
        intermediate_writes=int_writes,
        intermediate_buffer_elements=int(int_buffer_elems),
        energy=energy,
        granularity=gran,
        pel=pel,
        pipeline=pipeline,
        spill=spill,
        notes=notes,
    )
