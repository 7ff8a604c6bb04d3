"""Dataset and results export.

The paper commits to releasing "all of our code and data".  This module
produces that release: the raw collected artifacts (bids, ads, flows,
sync events, DSAR interests, policy stats) as CSV files, and the analysis
results as a JSON summary — everything needed to re-analyze the campaign
without re-running it.

Two sources feed the same export layout:

* :func:`export_dataset` walks an in-memory
  :class:`~repro.core.experiment.AuditDataset`;
* :func:`export_segment_store` streams a
  :class:`~repro.core.segments.SegmentStore` — CSVs are written row by
  row off the k-way-merged streams and the summary is computed by
  single-pass folds, so memory stays flat in the roster size.

For the same seed and config the two paths produce byte-identical
files: segment records carry exactly the CSV cell values (JSON round
trips them exactly), and the summary folds perform the same float
arithmetic on the same values in the same order.  All text output is
pinned to UTF-8 regardless of locale.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.bids import (
    bid_summary_table,
    common_slots,
    common_slots_from_sets,
    post_cpms_from_rows,
    representative_from_rows,
    significance_vs_vanilla,
)
from repro.core.compliance import fold_policy_availability, policy_availability
from repro.core.experiment import AuditDataset
from repro.core.profiling import analyze_profiling
from repro.core.stats import mann_whitney_u, summarize
from repro.core.syncing import (
    SyncAnalysis,
    SyncEvent,
    classify_sync_event,
    detect_cookie_syncing,
)

__all__ = [
    "export_dataset",
    "export_summary",
    "export_segment_store",
    "summarize_segment_store",
    "EXPORT_FILES",
]

EXPORT_FILES = (
    "bids.csv",
    "ads.csv",
    "skill_flows.csv",
    "sync_events.csv",
    "dsar_interests.csv",
    "audio_ads.csv",
    "summary.json",
)

_BIDS_HEADER = ["persona", "iteration", "site", "slot", "bidder", "cpm", "interacted"]
_ADS_HEADER = ["persona", "iteration", "site", "slot", "advertiser", "product", "source"]
_FLOWS_HEADER = ["persona", "skill_id", "domain", "remote_ip", "port", "packets", "bytes"]
_SYNC_HEADER = ["persona", "source", "destination", "uid"]
_DSAR_HEADER = ["persona", "request", "file_missing", "interests"]
_AUDIO_HEADER = ["persona", "skill", "start_seconds", "brand"]


def _write_csv(path: Path, header: List[str], rows) -> int:
    # encoding is pinned: exports must be identical bytes on any host,
    # and a latin-1 default would crash on non-ASCII creative text.
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def _write_summary(out: Path, summary: dict) -> None:
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
    )


def export_dataset(dataset: AuditDataset, out_dir: Union[str, Path]) -> Dict[str, int]:
    """Write the raw artifacts to ``out_dir``; returns row counts per file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts: Dict[str, int] = {}

    counts["bids.csv"] = _write_csv(
        out / "bids.csv",
        _BIDS_HEADER,
        (
            (b.persona, b.iteration, b.site, b.slot_id, b.bidder, b.cpm, b.interacted)
            for a in dataset.personas.values()
            for b in a.bids
        ),
    )

    counts["ads.csv"] = _write_csv(
        out / "ads.csv",
        _ADS_HEADER,
        (
            (
                ad.persona,
                ad.iteration,
                ad.site,
                ad.slot_id,
                ad.creative.advertiser,
                ad.creative.product,
                ad.creative.source,
            )
            for a in dataset.personas.values()
            for ad in a.ads
        ),
    )

    def flow_rows():
        for artifacts in dataset.interest_personas:
            for skill_id, capture in artifacts.skill_captures.items():
                dns = capture.dns_table()
                for flow in capture.flows():
                    if flow.key[3] == "dns":
                        continue
                    domain = dns.domain_for_ip(flow.remote_ip) or flow.sni or ""
                    yield (
                        artifacts.persona.name,
                        skill_id,
                        domain,
                        flow.remote_ip,
                        flow.remote_port,
                        len(flow.packets),
                        flow.total_bytes,
                    )

    counts["skill_flows.csv"] = _write_csv(
        out / "skill_flows.csv", _FLOWS_HEADER, flow_rows()
    )

    # Computed once here and threaded into export_summary — the summary
    # used to rerun the whole sync scan on its own.
    sync = detect_cookie_syncing(dataset)
    counts["sync_events.csv"] = _write_csv(
        out / "sync_events.csv",
        _SYNC_HEADER,
        ((e.persona, e.source, e.destination_host, e.uid) for e in sync.events),
    )

    profiling = analyze_profiling(dataset)
    counts["dsar_interests.csv"] = _write_csv(
        out / "dsar_interests.csv",
        _DSAR_HEADER,
        (
            (
                obs.persona,
                obs.request_label,
                obs.file_missing,
                "; ".join(obs.interests or ()),
            )
            for obs in profiling.observations
        ),
    )

    counts["audio_ads.csv"] = _write_csv(
        out / "audio_ads.csv",
        _AUDIO_HEADER,
        (
            (s.persona, s.skill_name, seg.start, seg.label)
            for a in dataset.personas.values()
            for s in a.audio_sessions
            for seg in s.ad_segments
        ),
    )

    summary = export_summary(dataset, sync=sync)
    _write_summary(out, summary)
    counts["summary.json"] = 1
    return counts


def export_summary(
    dataset: AuditDataset, *, sync: Optional[SyncAnalysis] = None
) -> dict:
    """Headline analysis results as a JSON-serializable mapping.

    ``sync`` accepts a precomputed cookie-sync analysis so callers that
    already ran the scan (the CSV export) don't pay for it twice.
    """
    if sync is None:
        sync = detect_cookie_syncing(dataset)
    availability = policy_availability(dataset)
    slots = common_slots(dataset)
    significance = {
        persona: _significance_cell(result)
        for persona, result in significance_vs_vanilla(dataset).items()
    }
    bid_summaries = {
        row.persona: _bid_summary_cell(row.summary)
        for row in bid_summary_table(dataset)
    }
    return _assemble_summary(
        personas=sorted(dataset.personas),
        n_slots=len(slots),
        bid_summaries=bid_summaries,
        significance=significance,
        sync=sync,
        availability=availability,
    )


# ---------------------------------------------------------------------- #
# Segment-store path
# ---------------------------------------------------------------------- #


def export_segment_store(store, out_dir: Union[str, Path]) -> Dict[str, int]:
    """Stream a :class:`~repro.core.segments.SegmentStore` to ``out_dir``.

    Produces exactly :data:`EXPORT_FILES`, byte-identical to
    :func:`export_dataset` on the equivalent in-memory dataset.  CSVs
    are written row by row off the merged streams.  The summary is one
    fold (:class:`_SegmentSummaryFold`) with two feeders: here, the
    generators that write ``bids.csv`` and ``sync_events.csv`` feed it
    the records they already decoded, so every stored record is decoded
    once; :func:`summarize_segment_store` feeds the same fold from the
    streams directly.  Memory is bounded by the analysis aggregates,
    not the roster size.
    """
    from repro.core.segments import SegmentError

    missing = store.missing_positions()
    if missing:
        raise SegmentError(
            f"store lacks {len(missing)}/{len(store.roster)} personas; "
            f"missing positions {missing[:10]}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts: Dict[str, int] = {}
    summary = _SegmentSummaryFold(store)

    def bid_rows():
        for r in store.iter_stream("bids"):
            summary.add_bid(r)
            yield (r["persona"], r["iteration"], r["site"], r["slot"],
                   r["bidder"], r["cpm"], r["interacted"])

    def sync_rows():
        for r in store.iter_stream("sync"):
            summary.add_sync(r)
            yield (r["persona"], r["source"], r["destination"], r["uid"])

    counts["bids.csv"] = _write_csv(out / "bids.csv", _BIDS_HEADER, bid_rows())
    counts["ads.csv"] = _write_csv(
        out / "ads.csv",
        _ADS_HEADER,
        (
            (r["persona"], r["iteration"], r["site"], r["slot"],
             r["advertiser"], r["product"], r["source"])
            for r in store.iter_stream("ads")
        ),
    )
    counts["skill_flows.csv"] = _write_csv(
        out / "skill_flows.csv",
        _FLOWS_HEADER,
        (
            (r["persona"], r["skill"], r["domain"], r["ip"], r["port"],
             r["packets"], r["bytes"])
            for r in store.iter_stream("flows")
        ),
    )
    counts["sync_events.csv"] = _write_csv(
        out / "sync_events.csv", _SYNC_HEADER, sync_rows()
    )
    counts["dsar_interests.csv"] = _write_csv(
        out / "dsar_interests.csv",
        _DSAR_HEADER,
        (
            (
                r["persona"],
                r["request"],
                r["interests"] is None,
                "; ".join(r["interests"] or ()),
            )
            for r in store.iter_stream("dsar")
        ),
    )
    counts["audio_ads.csv"] = _write_csv(
        out / "audio_ads.csv",
        _AUDIO_HEADER,
        (
            (r["persona"], r["skill"], r["start"], r["brand"])
            for r in store.iter_stream("audio")
        ),
    )

    _write_summary(out, summary.finish())
    counts["summary.json"] = 1
    return counts


def summarize_segment_store(store) -> dict:
    """:func:`export_summary` recomputed as folds over segment streams.

    The second feeder of :class:`_SegmentSummaryFold` (the first is
    :func:`export_segment_store`'s CSV pass): the ``bids`` and ``sync``
    streams are read here and pushed through the same fold, so the
    summary arithmetic exists once.
    """
    summary = _SegmentSummaryFold(store)
    for record in store.iter_stream("bids"):
        summary.add_bid(record)
    for record in store.iter_stream("sync"):
        summary.add_sync(record)
    return summary.finish()


class _SegmentSummaryFold:
    """The segment-store summary as one push fold.

    Construction reads the ``personas`` stream (roster kinds and the
    common-slot intersection) and point-reads the vanilla control's
    bids, which interest personas are compared against before vanilla
    streams past (it sits after them in roster order).  Then bid
    records (grouped per persona; contiguous in roster order) and sync
    records arrive one at a time, and :meth:`finish` adds the policy
    fold.  Every step performs the same arithmetic on the same values
    in the same order as :func:`export_summary`, and memory is
    O(aggregates).
    """

    def __init__(self, store) -> None:
        self._store = store
        self._kinds: Dict[int, tuple] = {}
        slot_sets: List[List[str]] = []
        for record in store.iter_stream("personas"):
            self._kinds[record["pos"]] = (record["name"], record["kind"])
            slot_sets.append(record["loaded_slots"])
        self._slots = common_slots_from_sets(slot_sets)
        vanilla_pos = next(
            (pos for pos, (_, kind) in self._kinds.items() if kind == "vanilla"),
            None,
        )
        self._vanilla_sample: List[float] = []
        if vanilla_pos is not None:
            self._vanilla_sample = representative_from_rows(
                store.stream_records_for("bids", vanilla_pos), self._slots
            )
        self._bid_summaries: Dict[str, dict] = {}
        self._significance: Dict[str, dict] = {}
        self._group_pos: Optional[int] = None
        self._group: List[dict] = []
        self._sync = SyncAnalysis(partner_downstream=defaultdict(set))

    def add_bid(self, record: dict) -> None:
        if record["pos"] != self._group_pos:
            self._finish_group()
            self._group_pos = record["pos"]
            self._group = []
        self._group.append(record)

    def add_sync(self, record: dict) -> None:
        classify_sync_event(
            self._sync,
            SyncEvent(
                persona=record["persona"],
                source=record["source"],
                destination_host=record["destination"],
                uid=record["uid"],
                url=record["url"],
            ),
            keep_event=False,
        )

    def _finish_group(self) -> None:
        if self._group_pos is None:
            return
        name, kind = self._kinds[self._group_pos]
        if kind == "web":
            return
        cpms = post_cpms_from_rows(self._group, self._slots)
        if cpms:
            self._bid_summaries[name] = _bid_summary_cell(summarize(cpms))
        if kind == "interest":
            sample = representative_from_rows(self._group, self._slots)
            if sample and self._vanilla_sample:
                self._significance[name] = _significance_cell(
                    mann_whitney_u(
                        sample, self._vanilla_sample, alternative="greater"
                    )
                )

    def finish(self) -> dict:
        """The summary mapping; the fold is spent afterwards."""
        self._finish_group()
        self._sync.partner_downstream = dict(self._sync.partner_downstream)
        return _assemble_summary(
            personas=sorted(self._store.roster),
            n_slots=len(self._slots),
            bid_summaries=self._bid_summaries,
            significance=self._significance,
            sync=self._sync,
            availability=fold_policy_availability(
                self._store.iter_stream("policy")
            ),
        )


# ---------------------------------------------------------------------- #
# Shared summary assembly
# ---------------------------------------------------------------------- #


def _bid_summary_cell(summary) -> dict:
    return {
        "median": summary.median,
        "mean": summary.mean,
        "max": summary.maximum,
        "n": summary.n,
    }


def _significance_cell(result) -> dict:
    return {
        "p_value": result.p_value,
        "effect_size": result.effect_size,
        "significant": result.significant,
    }


def _assemble_summary(
    *,
    personas: List[str],
    n_slots: int,
    bid_summaries: Dict[str, dict],
    significance: Dict[str, dict],
    sync: SyncAnalysis,
    availability,
) -> dict:
    return {
        "personas": personas,
        "common_ad_slots": n_slots,
        "bid_summaries": bid_summaries,
        "significance_vs_vanilla": significance,
        "cookie_sync": {
            "partners": sync.partner_count,
            "downstream": sync.downstream_count,
            "amazon_outbound": len(sync.amazon_outbound_targets),
        },
        "policy_availability": {
            "total_skills": availability.total_skills,
            "with_link": availability.with_link,
            "downloadable": availability.downloadable,
            "mention_amazon": availability.mention_amazon,
            "generic": availability.generic,
            "link_amazon_policy": availability.link_amazon_policy,
        },
    }
