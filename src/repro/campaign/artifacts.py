"""Where a campaign's files live, and the report rebuilt from them.

``repro campaign run|status|report``, :func:`repro.api.run_campaign`
callers that pass paths, the distributed coordinator and its shard
workers all name a campaign's store and checkpoint through
:func:`campaign_paths`, so they always agree on the files:

- store: the explicit path, else the spec's ``store``, else
  ``runs/<name>.jsonl``;
- checkpoint: the explicit path, else the spec's ``checkpoint``, else
  ``<store stem>.checkpoint.jsonl`` beside the store.

A report rebuilt from journaled units rather than from a live run —
``repro campaign report`` and the distributed merge — is assembled by
:func:`assemble_report`, which also sums the per-unit cache-counter
deltas of the checkpoint's stats sidecar into the campaign totals.
"""

from __future__ import annotations

from pathlib import Path

from .report import CampaignReport, UnitResult
from .runner import CampaignCheckpoint, CampaignResumeError, campaign_units
from .spec import CampaignSpec, unit_key

__all__ = ["campaign_paths", "assemble_report", "report_from_checkpoint"]


def campaign_paths(
    spec: CampaignSpec,
    out: "str | Path | None" = None,
    checkpoint: "str | Path | None" = None,
) -> tuple[Path, Path]:
    """``(store, checkpoint)`` paths for ``spec`` (rule in the module doc)."""
    store = Path(out or spec.store or Path("runs") / f"{spec.name}.jsonl")
    ckpt = Path(
        checkpoint
        or spec.checkpoint
        or store.with_name(f"{store.stem}.checkpoint.jsonl")
    )
    return store, ckpt


def assemble_report(
    spec: CampaignSpec,
    units_by_key: dict[str, dict],
    *,
    counters: dict[str, dict] | None = None,
    stats: dict | None = None,
    store_path: str | None = None,
    store_records: int | None = None,
    checkpoint_path: str | None = None,
) -> CampaignReport:
    """A :class:`~repro.campaign.report.CampaignReport` from journaled units.

    Units come out in grid order with the journal's row dicts, so the
    report's :meth:`~repro.campaign.report.CampaignReport.canonical_json`
    digest is byte-identical to the sequential run's.  Units are flagged
    ``resumed`` (their rows came from journals, not this process's
    evaluator).  ``counters`` maps unit keys to the stats sidecar's
    per-unit cache-counter deltas; their sum is the report's ``cache``
    (the deltas add up to the campaign totals even across kill/resume
    boundaries, where each session's live counters restarted at zero).
    """
    units = []
    for ds_name, pt in campaign_units(spec):
        rec = units_by_key.get(unit_key(ds_name, pt))
        if rec is not None:
            units.append(
                UnitResult(ds_name, pt.key(), rec["rows"], resumed=True)
            )
    cache: dict = {}
    for snap in (counters or {}).values():
        for key, value in snap.items():
            cache[key] = cache.get(key, 0) + value
    return CampaignReport(
        name=spec.name,
        spec_fingerprint=spec.fingerprint(),
        units=units,
        stats=stats or {},
        cache=cache,
        store_path=store_path,
        store_records=store_records,
        checkpoint_path=checkpoint_path,
    )


def report_from_checkpoint(
    spec: CampaignSpec, checkpoint: "str | Path"
) -> CampaignReport:
    """Re-render a campaign from its checkpoint (read-only).

    Raises :class:`~repro.campaign.runner.CampaignResumeError` when no
    checkpoint exists at ``checkpoint`` or it belongs to another spec.
    """
    path = Path(checkpoint)
    header, done = CampaignCheckpoint.load(path)
    if not header:
        raise CampaignResumeError(
            f"no checkpoint at {path}; run the campaign first"
        )
    if header.get("spec_fingerprint") != spec.fingerprint():
        raise CampaignResumeError(
            f"{path}: checkpoint belongs to a different spec "
            f"({header.get('spec_fingerprint')!r} != {spec.fingerprint()!r})"
        )
    return assemble_report(
        spec,
        done,
        counters=CampaignCheckpoint.unit_counters_for(path, spec.fingerprint()),
        checkpoint_path=str(path),
    )
