"""Distributed campaign execution: shard, run, supervise, merge.

The single-machine campaign stack (spec → session → scheduler → store)
already makes every artifact deterministic and every restart cheap:
checkpoints journal completed units in grid order, and the result store
dedups on candidate fingerprints.  This package leans on exactly those
two properties to spread one campaign over worker *processes* (modelling
real multi-machine separation) without giving up a byte of determinism:

- :mod:`~repro.distributed.shardplan` partitions a spec's unit grid into
  N fingerprinted shard assignments (round-robin or cost-weighted);
- :mod:`~repro.distributed.worker` runs one shard's assignment under the
  *full parent spec* (so spec/candidate fingerprints never change) into
  a private shard store, journaling heartbeats and per-unit progress to
  a sidecar the coordinator can peek;
- :mod:`~repro.distributed.coordinator` spawns/monitors the shard
  subprocesses, detects dead or stalled shards via heartbeat timeout,
  and relaunches them with retry/backoff — a relaunched shard
  warm-starts from its own store/checkpoint, so recovery performs zero
  duplicate cost-model evaluations;
- :mod:`~repro.distributed.merge` folds K shard stores (+ error
  sidecars) and checkpoints back into one authoritative store and
  journal whose bytes — and whose
  :meth:`~repro.campaign.report.CampaignReport.digest` — are identical
  to a sequential single-process run.

CLI front-ends: ``repro campaign shard-plan | shard-run | dist-run`` and
``repro store merge``; ``repro serve --store`` serves a merged store.
"""

from .coordinator import DistributedCoordinator, DistRunResult, ShardAttempt
from .merge import merge_checkpoints, merge_stores
from .shardplan import SHARD_POLICIES, ShardPlan, ShardPlanError, plan_shards
from .worker import ShardPaths, load_progress, run_shard, shard_paths

__all__ = [
    "SHARD_POLICIES",
    "ShardPlan",
    "ShardPlanError",
    "plan_shards",
    "ShardPaths",
    "shard_paths",
    "load_progress",
    "run_shard",
    "DistributedCoordinator",
    "DistRunResult",
    "ShardAttempt",
    "merge_stores",
    "merge_checkpoints",
]
