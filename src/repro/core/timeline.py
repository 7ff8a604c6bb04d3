"""Longitudinal multi-epoch audits with incremental persona recompute.

The paper's campaign is one snapshot: a six-week measurement window in
December 2021.  Real auditing is longitudinal — the same personas are
re-measured months apart while the ecosystem drifts underneath them:
interests shift, the skill catalog churns, filter lists are updated,
bidders enter and exit the exchange, and the seasonal bid surge comes
and goes.  This module adds that axis.

A :class:`TimelineSpec` is a base :class:`~repro.core.campaign.CampaignSpec`
plus an ordered sequence of :class:`EpochSpec` mutations.  Each epoch's
mutation state is **absolute** (cumulative), so epoch ``i`` is fully
described by ``spec.effective_config(i)`` — a plain
:class:`~repro.core.experiment.ExperimentConfig` with the epoch's
offset/churn/drift/bidder fields filled in.  Like the campaign spec, a
timeline spec is frozen, validated at construction, JSON-round-trippable,
and fingerprintable.

The execution core is **incremental recompute**.  Every persona's inputs
are summarized by :func:`persona_fingerprint` — the seed, the shared
config (including the epoch clock offset and bidder churn, which are
global), plus the persona's own slice of the selective mutations (its
summed interest-drift shift; its category's catalog-churn salts).  A
persona whose fingerprint is unchanged between consecutive epochs
produced byte-identical segments in the previous epoch's store, so its
records are *copied* instead of re-executed; only the dirty set runs
through the campaign engine (serial batches or the sharded supervisor,
via :func:`~repro.core.campaign.run_segment_positions`).  Because
per-persona artifacts depend only on ``(seed, config, persona)`` — the
same shard/batch invariance the parallel runner relies on — an
incremental epoch exports byte-identical files to a cold full re-run.

Filter-list updates are deliberately *not* config mutations: the filter
list classifies traffic after the fact, it never shapes it, so an update
dirties nobody.  It only changes how the **delta report**
(:func:`timeline_delta`) labels domains — which is exactly how a real
blocklist refresh behaves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.campaign import CampaignSpec, run_segment_positions
from repro.core.experiment import ExperimentConfig, config_fingerprint
from repro.core.personas import Persona, scaled_roster
from repro.data import categories as cat
from repro.data.calibration import holiday_factor, holiday_window
from repro.data.domains import PIHOLE_FILTER_TEXT
from repro.orgmap.filterlists import FilterList, FilterRule, parse_rules
from repro.util.clock import PAPER_EPOCH
from repro.util.rng import Seed

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "EpochSpec",
    "TimelineSpec",
    "EpochRun",
    "TimelineResult",
    "persona_fingerprint",
    "dirty_positions",
    "run_timeline",
    "run_timeline_epoch",
    "timeline_delta",
]

#: Bump whenever the serialized TimelineSpec layout changes shape; a
#: stale or foreign timeline document fails :meth:`TimelineSpec.from_dict`.
TIMELINE_SCHEMA_VERSION = 1

#: Epoch fields that are injected into the effective config.  The base
#: campaign's config must leave all of them at their defaults — the
#: timeline owns the mutation axis.
_CONFIG_MUTATION_FIELDS = (
    "epoch_offset_days",
    "bidders_entered",
    "bidders_exited",
    "catalog_churn",
    "interest_drift",
)


# ---------------------------------------------------------------------- #
# EpochSpec
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EpochSpec:
    """One epoch's **absolute** (cumulative) ecosystem state.

    Every field describes the world as of this epoch, not a diff against
    the previous one: a drift token added in epoch 1 must be repeated in
    epoch 2's tuple or the persona snaps back.  Absolute state keeps each
    epoch independently executable (``effective_config`` needs no fold
    over history) and makes the dirty-set comparison a pure two-epoch
    function.
    """

    #: Sim-clock shift in days: epoch day 0 is ``PAPER_EPOCH + offset``.
    #: Moves the campaign across the Table-6 holiday ramp, so seasonal
    #: bid levels differ between epochs.  Global — dirties every persona.
    offset_days: int = 0
    #: New exchange bidders (``edsp00``...) present this epoch.  Global.
    bidders_entered: int = 0
    #: Original partner bidders that have left.  Global.
    bidders_exited: int = 0
    #: ``"<category>:<salt>"`` review-count churn tokens — dirties only
    #: that category's interest personas.
    catalog_churn: Tuple[str, ...] = ()
    #: ``"<persona>:<shift>"`` interest-drift tokens — dirties only the
    #: named persona.
    interest_drift: Tuple[str, ...] = ()
    #: Hosts added to the epoch's filter list (blocked with subdomains).
    #: Never a config mutation: dirties nobody, reclassifies the delta.
    filterlist_add: Tuple[str, ...] = ()
    #: Base-list hosts whose rules are dropped this epoch.
    filterlist_remove: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("offset_days", "bidders_entered", "bidders_exited"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}"
                )
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        for name in (
            "catalog_churn",
            "interest_drift",
            "filterlist_add",
            "filterlist_remove",
        ):
            value = tuple(str(item) for item in getattr(self, name))
            object.__setattr__(self, name, value)
        for host in self.filterlist_add + self.filterlist_remove:
            if "." not in host or any(c.isspace() for c in host) or not host:
                raise ValueError(
                    f"filter-list entries must be bare hostnames, got {host!r}"
                )

    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        for name in (
            "catalog_churn",
            "interest_drift",
            "filterlist_add",
            "filterlist_remove",
        ):
            payload[name] = list(payload[name])
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EpochSpec":
        if not isinstance(payload, dict):
            raise TypeError(
                f"epoch spec must be a JSON object, got {type(payload).__name__}"
            )
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ValueError(f"unknown epoch spec fields: {unknown}")
        return cls(**payload)


# ---------------------------------------------------------------------- #
# TimelineSpec
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class TimelineSpec:
    """A base campaign re-run across an ordered sequence of epochs.

    Mirrors :class:`~repro.core.campaign.CampaignSpec`'s contract:
    frozen, validated at construction, exact JSON round trip
    (``TimelineSpec.from_json(spec.to_json())``), and a stable
    :meth:`fingerprint` usable as a job key.  The base spec must select
    the segment store — incremental reuse is a property of
    content-addressed persona coverage, which only the store provides.
    """

    base: CampaignSpec
    epochs: Tuple[EpochSpec, ...] = (EpochSpec(),)

    def __post_init__(self) -> None:
        if not isinstance(self.base, CampaignSpec):
            raise TypeError(
                f"base must be a CampaignSpec, got {type(self.base).__name__}"
            )
        epochs = tuple(self.epochs)
        if not epochs:
            raise ValueError("a timeline needs at least one epoch")
        for epoch in epochs:
            if not isinstance(epoch, EpochSpec):
                raise TypeError(
                    f"epochs must be EpochSpec instances, got "
                    f"{type(epoch).__name__}"
                )
        object.__setattr__(self, "epochs", epochs)
        if self.base.store != "segments":
            raise ValueError(
                "timeline base spec must use store='segments' — incremental "
                "epoch reuse needs the content-addressed segment store"
            )
        for name in _CONFIG_MUTATION_FIELDS:
            default = (0 if name.startswith(("epoch_", "bidders_")) else ())
            if getattr(self.base.config, name) != default:
                raise ValueError(
                    f"base config must leave {name} at its default; epoch "
                    "mutations belong in EpochSpec entries"
                )
        offsets = [epoch.offset_days for epoch in epochs]
        if offsets != sorted(offsets):
            raise ValueError(
                f"epoch offsets must be non-decreasing, got {offsets}"
            )
        # Force full ExperimentConfig validation of every epoch's tokens
        # now, so an invalid timeline can never be submitted or stored.
        for index in range(len(epochs)):
            self.effective_config(index)

    # ------------------------------------------------------------------ #
    # Derived per-epoch state
    # ------------------------------------------------------------------ #

    def effective_config(self, index: int) -> ExperimentConfig:
        """The epoch's complete :class:`ExperimentConfig` (validated)."""
        epoch = self.epochs[index]
        return dataclasses.replace(
            self.base.config,
            epoch_offset_days=epoch.offset_days,
            bidders_entered=epoch.bidders_entered,
            bidders_exited=epoch.bidders_exited,
            catalog_churn=epoch.catalog_churn,
            interest_drift=epoch.interest_drift,
        )

    def effective_filterlist(self, index: int) -> FilterList:
        """The epoch's compiled filter list (base ± epoch updates)."""
        epoch = self.epochs[index]
        removed = {host.lower() for host in epoch.filterlist_remove}
        rules = [
            rule
            for rule in parse_rules(PIHOLE_FILTER_TEXT.splitlines())
            if rule.host not in removed
        ]
        rules.extend(
            FilterRule(host=host.lower(), match_subdomains=True, is_exception=False)
            for host in epoch.filterlist_add
        )
        return FilterList(rules)

    def epoch_day0(self, index: int):
        """The epoch's simulated day-0 datetime (shifted paper epoch)."""
        return PAPER_EPOCH + timedelta(days=self.epochs[index].offset_days)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TIMELINE_SCHEMA_VERSION,
            "base": self.base.to_dict(),
            "epochs": [epoch.to_dict() for epoch in self.epochs],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TimelineSpec":
        if not isinstance(payload, dict):
            raise TypeError(
                f"timeline spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        payload = dict(payload)
        schema = payload.pop("schema", TIMELINE_SCHEMA_VERSION)
        if schema != TIMELINE_SCHEMA_VERSION:
            raise ValueError(
                f"timeline spec schema {schema!r} is not supported "
                f"(this build speaks schema {TIMELINE_SCHEMA_VERSION})"
            )
        unknown = sorted(set(payload) - {"base", "epochs"})
        if unknown:
            raise ValueError(f"unknown timeline spec fields: {unknown}")
        if "base" not in payload:
            raise ValueError("timeline spec is missing its base campaign")
        base = payload["base"]
        if isinstance(base, dict):
            base = CampaignSpec.from_dict(base)
        elif not isinstance(base, CampaignSpec):
            raise TypeError(
                "base must be a JSON object or CampaignSpec, got "
                f"{type(base).__name__}"
            )
        epochs_payload = payload.get("epochs", [{}])
        if not isinstance(epochs_payload, list):
            raise TypeError(
                f"epochs must be a JSON array, got "
                f"{type(epochs_payload).__name__}"
            )
        epochs = tuple(
            epoch
            if isinstance(epoch, EpochSpec)
            else EpochSpec.from_dict(epoch)
            for epoch in epochs_payload
        )
        return cls(base=base, epochs=epochs)

    @classmethod
    def from_json(cls, text: str) -> "TimelineSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"timeline spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def fingerprint(self) -> str:
        """Stable content digest of the timeline (16 hex chars)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def replace(self, **changes: object) -> "TimelineSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Seeded authoring
    # ------------------------------------------------------------------ #

    @classmethod
    def generate(
        cls,
        base: CampaignSpec,
        *,
        n_epochs: int = 2,
        epoch_gap_days: int = 0,
        drift_personas: int = 2,
        drift_max_shift: int = 3,
        churn_categories: int = 1,
        filterlist_updates: int = 1,
        bidders_entered_per_epoch: int = 0,
        bidders_exited_per_epoch: int = 0,
    ) -> "TimelineSpec":
        """Author a deterministic timeline from seeded mutation draws.

        Every draw comes from ``Seed(base.seed).derive("timeline")``
        substreams, so the same base spec and knobs always produce the
        same timeline.  Epoch 0 is the unmutated base; later epochs
        accumulate mutations.  The defaults keep the *global* mutation
        knobs at zero (no clock shift, no bidder churn), so by default
        only drifted personas and churned categories are dirtied and an
        incremental re-run re-executes a small fraction of the roster;
        raise ``epoch_gap_days`` to march epochs across the holiday ramp
        at the cost of dirtying everyone.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if epoch_gap_days < 0:
            raise ValueError(
                f"epoch_gap_days must be >= 0, got {epoch_gap_days}"
            )
        if drift_max_shift < 1:
            raise ValueError(
                f"drift_max_shift must be >= 1, got {drift_max_shift}"
            )
        timeline_seed = Seed(base.seed).derive("timeline")
        interest_names = [
            p.name
            for p in scaled_roster(base.config.roster_scale)
            if p.kind == "interest"
        ]
        base_hosts = sorted(
            {
                rule.host
                for rule in parse_rules(PIHOLE_FILTER_TEXT.splitlines())
                if not rule.is_exception
            }
        )
        epochs: List[EpochSpec] = [EpochSpec()]
        drift: List[str] = []
        churn: List[str] = []
        added: List[str] = []
        removed: List[str] = []
        for index in range(1, n_epochs):
            rng = timeline_seed.rng("drift", index)
            for name in rng.sample(
                interest_names, min(drift_personas, len(interest_names))
            ):
                drift.append(f"{name}:{rng.randint(1, drift_max_shift)}")
            rng = timeline_seed.rng("churn", index)
            for category in rng.sample(
                sorted(cat.ALL_CATEGORIES),
                min(churn_categories, len(cat.ALL_CATEGORIES)),
            ):
                churn.append(f"{category}:e{index}-{rng.randrange(16**6):06x}")
            rng = timeline_seed.rng("filterlist", index)
            for update in range(filterlist_updates):
                removable = sorted(set(base_hosts) - set(removed))
                # Alternate additions (a newly-listed tracker) with
                # removals (a delisted host) so both delta directions
                # are exercised.
                if update % 2 == 0 or not removable:
                    added.append(
                        f"e{index}t{update}-{rng.randrange(16**4):04x}"
                        ".tracker.example"
                    )
                else:
                    removed.append(rng.choice(removable))
            epochs.append(
                EpochSpec(
                    offset_days=index * epoch_gap_days,
                    bidders_entered=index * bidders_entered_per_epoch,
                    bidders_exited=index * bidders_exited_per_epoch,
                    catalog_churn=tuple(churn),
                    interest_drift=tuple(drift),
                    filterlist_add=tuple(added),
                    filterlist_remove=tuple(removed),
                )
            )
        return cls(base=base, epochs=tuple(epochs))


# ---------------------------------------------------------------------- #
# Incremental recompute
# ---------------------------------------------------------------------- #


def persona_fingerprint(
    seed_root: int, config: ExperimentConfig, persona: Persona
) -> str:
    """Digest of every input that can reach one persona's artifacts.

    Two epochs in which a persona's fingerprint is unchanged produce
    byte-identical segment records for it, so the previous epoch's can
    be copied.  The digest covers:

    * the seed root and the *shared* config (every field except the two
      selective mutation tuples) — this includes the epoch clock offset
      and bidder entry/exit, which are global because bids sample the
      seasonal ramp and the whole bidder population;
    * the persona's summed interest-drift shift (what
      ``ExperimentRunner._skills_for`` actually consumes — token order
      and grouping don't matter);
    * its category's catalog-churn salts, in token order (the churn RNG
      is keyed by the accumulated salt sequence), for interest personas
      only — controls never consult review counts.
    """
    shared = dataclasses.asdict(config)
    drift_tokens = shared.pop("interest_drift")
    churn_tokens = shared.pop("catalog_churn")
    shift = sum(
        int(token.partition(":")[2])
        for token in drift_tokens
        if token.partition(":")[0] == persona.name
    )
    if persona.kind == "interest":
        salts = [
            token.partition(":")[2]
            for token in churn_tokens
            if token.partition(":")[0] == persona.category
        ]
    else:
        salts = []
    payload = json.dumps(
        {
            "seed_root": seed_root,
            "persona": persona.name,
            "config": shared,
            "interest_shift": shift,
            "catalog_salts": salts,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def dirty_positions(
    seed_root: int,
    prev_config: ExperimentConfig,
    config: ExperimentConfig,
    roster: Sequence[Persona],
) -> List[int]:
    """Roster positions whose persona fingerprint changed between epochs."""
    return [
        pos
        for pos, persona in enumerate(roster)
        if persona_fingerprint(seed_root, prev_config, persona)
        != persona_fingerprint(seed_root, config, persona)
    ]


def run_timeline_epoch(
    spec: TimelineSpec,
    index: int,
    *,
    store_dir: Union[str, Path],
    incremental: bool = True,
    worker_faults=None,
):
    """Execute one epoch into its segment store.

    With ``incremental=True`` and a predecessor epoch, clean personas
    (unchanged fingerprint, covered in the previous epoch's store) are
    reused; only the dirty set re-executes.  Reuse is **zero-copy**
    where possible: a previous-epoch batch whose positions are entirely
    clean is adopted whole via
    :meth:`~repro.core.segments.SegmentStore.adopt_batch` (hard links,
    no parse); only batches straddling the dirty set fall back to
    record-level copy.  With ``incremental=False`` (or for epoch 0)
    every uncovered persona runs cold — the correctness pin is that
    both paths export byte-identical files.  Returns ``(store,
    personas_reused, personas_recomputed)``; the store manifest's
    ``"timeline"`` key additionally records the reuse mechanics as
    ``reuse = {"linked", "copied", "records"}`` (segment files
    hard-linked, files byte-copied, records JSON-round-tripped).
    """
    from repro.core.segments import STREAMS, SegmentStore

    if not 0 <= index < len(spec.epochs):
        raise IndexError(f"epoch {index} outside timeline of {len(spec.epochs)}")
    config = spec.effective_config(index)
    seed = Seed(spec.base.seed)
    fingerprint = config_fingerprint(config)
    roster = scaled_roster(config.roster_scale)
    names = tuple(p.name for p in roster)
    store = SegmentStore(store_dir, seed.root, fingerprint, names)
    store.ensure_manifest()
    reuse = {"linked": 0, "copied": 0, "records": 0}

    if incremental and index > 0:
        prev_config = spec.effective_config(index - 1)
        prev_fingerprint = config_fingerprint(prev_config)
        if prev_fingerprint != fingerprint:
            # Identical fingerprints mean the two epochs share one store
            # directory and coverage carries over by construction; only
            # distinct stores need the explicit transfer.
            prev_store = SegmentStore(
                store_dir, seed.root, prev_fingerprint, names
            )
            dirty = set(dirty_positions(seed.root, prev_config, config, roster))
            already = store.covered_positions()
            for entry in prev_store.batches():
                batch_positions = set(entry.positions)
                wanted = batch_positions - dirty - already
                if not wanted:
                    continue
                if wanted == batch_positions:
                    counts = store.adopt_batch(prev_store, entry)
                    reuse["linked"] += counts["linked"]
                    reuse["copied"] += counts["copied"]
                else:
                    # The batch straddles the dirty set: only its clean
                    # positions transfer, record by record.
                    for pos in sorted(wanted):
                        records = {
                            stream: prev_store.stream_records_for(stream, pos)
                            for stream in STREAMS
                        }
                        reuse["records"] += sum(
                            len(recs) for recs in records.values()
                        )
                        store.write_batch(
                            [pos],
                            {
                                stream: recs
                                for stream, recs in records.items()
                                if recs
                            },
                        )
                already |= wanted

    covered = store.covered_positions()
    pending = [pos for pos in range(len(names)) if pos not in covered]
    reused = len(names) - len(pending)
    missing = run_segment_positions(
        store,
        seed,
        config,
        pending,
        parallel=spec.base.parallel,
        workers=spec.base.workers,
        batch_personas=spec.base.batch_personas,
        on_shard_failure=spec.base.on_shard_failure,
        shard_timeout=spec.base.shard_timeout,
        max_shard_retries=spec.base.max_shard_retries,
        worker_faults=worker_faults,
    )
    store.write_manifest(
        "partial" if missing else "complete",
        extras={
            "timeline": {
                "epoch": index,
                "incremental": bool(incremental and index > 0),
                "personas_reused": reused,
                "personas_recomputed": len(pending),
                "reuse": reuse,
            }
        },
    )
    return store, reused, len(pending)


# ---------------------------------------------------------------------- #
# Delta report
# ---------------------------------------------------------------------- #


def _fold_tracker_domains(store, filter_list: FilterList) -> set:
    """One pass over the flows stream: distinct blocked domains."""
    domains = set()
    for record in store.iter_stream("flows"):
        domain = record["domain"]
        if domain:
            domains.add(domain)
    return {domain for domain in domains if filter_list.is_blocked(domain)}


def _fold_bid_means(store) -> Dict[str, Tuple[float, int]]:
    """One pass over the bids stream: per-persona (mean CPM, count)."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in store.iter_stream("bids"):
        persona = record["persona"]
        totals[persona] = totals.get(persona, 0.0) + record["cpm"]
        counts[persona] = counts.get(persona, 0) + 1
    return {
        persona: (totals[persona] / counts[persona], counts[persona])
        for persona in totals
    }


def _fold_policy_flags(store) -> Dict[Tuple[str, str], Dict[str, bool]]:
    """One pass over the policy stream: per-(persona, skill) compliance."""
    flags: Dict[Tuple[str, str], Dict[str, bool]] = {}
    for record in store.iter_stream("policy"):
        flags[(record["persona"], record["skill"])] = {
            field: bool(record[field])
            for field in ("has_link", "downloaded")
        }
    return flags


def _seasonality_cell(spec: TimelineSpec, index: int) -> Dict[str, object]:
    day0 = spec.epoch_day0(index)
    window_start, window_end = holiday_window()
    return {
        "day0": day0.date().isoformat(),
        "day0_factor": holiday_factor(day0),
        "day0_in_holiday_window": window_start <= day0.date() <= window_end,
    }


def timeline_delta(
    spec: TimelineSpec,
    prev_index: int,
    index: int,
    prev_store,
    store,
) -> Dict[str, object]:
    """What changed between two epochs, as single-pass stream folds.

    Mirrors :func:`~repro.core.export.summarize_segment_store`'s fold
    style: each section is one streaming pass per store, O(aggregates)
    in memory.  Sections:

    * ``tracker_domains`` — distinct flow domains classified by each
      epoch's *own* filter list; new/vanished is the symmetric
      difference, so both traffic changes and filter-list updates
      surface here.
    * ``bid_deltas`` — per-persona mean-CPM movement (seasonal shifts,
      bidder churn, drift).
    * ``policy_regressions`` — per-skill compliance flags that were true
      in the previous epoch and are false now (catalog churn swapping a
      compliant skill for a non-compliant one).
    """
    prev_filter = spec.effective_filterlist(prev_index)
    cur_filter = spec.effective_filterlist(index)
    prev_trackers = _fold_tracker_domains(prev_store, prev_filter)
    cur_trackers = _fold_tracker_domains(store, cur_filter)

    prev_bids = _fold_bid_means(prev_store)
    cur_bids = _fold_bid_means(store)
    bid_deltas: Dict[str, Dict[str, object]] = {}
    for persona in sorted(set(prev_bids) | set(cur_bids)):
        prev_mean, prev_n = prev_bids.get(persona, (0.0, 0))
        cur_mean, cur_n = cur_bids.get(persona, (0.0, 0))
        bid_deltas[persona] = {
            "mean_cpm_previous": prev_mean,
            "mean_cpm_current": cur_mean,
            "delta": cur_mean - prev_mean,
            "n_previous": prev_n,
            "n_current": cur_n,
        }

    prev_policy = _fold_policy_flags(prev_store)
    cur_policy = _fold_policy_flags(store)
    regressions: List[Dict[str, object]] = []
    for key in sorted(set(prev_policy) & set(cur_policy)):
        for field, was in prev_policy[key].items():
            if was and not cur_policy[key][field]:
                regressions.append(
                    {"persona": key[0], "skill": key[1], "field": field}
                )

    return {
        "schema": TIMELINE_SCHEMA_VERSION,
        "epochs": {"previous": prev_index, "current": index},
        "seasonality": {
            "previous": _seasonality_cell(spec, prev_index),
            "current": _seasonality_cell(spec, index),
        },
        "tracker_domains": {
            "previous_total": len(prev_trackers),
            "current_total": len(cur_trackers),
            "new": sorted(cur_trackers - prev_trackers),
            "vanished": sorted(prev_trackers - cur_trackers),
        },
        "bid_deltas": bid_deltas,
        "policy_regressions": regressions,
    }


# ---------------------------------------------------------------------- #
# Full-timeline driver
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EpochRun:
    """One executed epoch's outcome."""

    index: int
    campaign_dir: str
    export_dir: str
    counts: Dict[str, int]
    personas_reused: int
    personas_recomputed: int
    status: str


@dataclass(frozen=True)
class TimelineResult:
    """Everything :func:`run_timeline` produced."""

    epochs: Tuple[EpochRun, ...]
    #: Consecutive-epoch delta reports (``len(epochs) - 1`` entries).
    deltas: Tuple[Dict[str, object], ...]


def run_timeline(
    spec: TimelineSpec,
    out_dir: Union[str, Path],
    *,
    incremental: bool = True,
    worker_faults=None,
) -> TimelineResult:
    """Execute every epoch in order, exporting each plus delta reports.

    The timeline counterpart of
    :func:`~repro.core.campaign.execute_spec`: epoch ``i`` exports to
    ``<out>/epoch-<i>/`` (the standard
    :data:`~repro.core.export.EXPORT_FILES` layout, byte-identical to a
    cold run of the same effective config), segment stores live under
    the base spec's ``store_dir`` or ``<out>/_segments``, and each
    consecutive pair's :func:`timeline_delta` lands at
    ``<out>/delta-epoch<i-1>-to-epoch<i>.json``.
    """
    from repro.core.export import export_segment_store

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store_dir = (
        spec.base.store_dir
        if spec.base.store_dir is not None
        else str(out / "_segments")
    )
    runs: List[EpochRun] = []
    deltas: List[Dict[str, object]] = []
    prev_store = None
    for index in range(len(spec.epochs)):
        store, reused, recomputed = run_timeline_epoch(
            spec,
            index,
            store_dir=store_dir,
            incremental=incremental,
            worker_faults=worker_faults,
        )
        export_dir = out / f"epoch-{index:02d}"
        counts = export_segment_store(store, export_dir)
        runs.append(
            EpochRun(
                index=index,
                campaign_dir=str(store.campaign_dir),
                export_dir=str(export_dir),
                counts=counts,
                personas_reused=reused,
                personas_recomputed=recomputed,
                status=store.status() or "running",
            )
        )
        if prev_store is not None:
            delta = timeline_delta(spec, index - 1, index, prev_store, store)
            delta_path = (
                out / f"delta-epoch{index - 1:02d}-to-epoch{index:02d}.json"
            )
            delta_path.write_text(
                json.dumps(delta, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            deltas.append(delta)
        prev_store = store
    return TimelineResult(epochs=tuple(runs), deltas=tuple(deltas))
