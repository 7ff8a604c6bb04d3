#!/usr/bin/env python3
"""Regenerate docs/API.md from the package's docstrings."""

import importlib
import inspect
import pathlib
import pkgutil

import repro

PREAMBLE = """\
## CampaignSpec: one serializable campaign description

`repro.core.campaign.CampaignSpec` is the single description of a
campaign execution — config, seed, worker topology, observability,
crash-safety knobs, and store selection — shared
verbatim by the Python API (`run_campaign(spec)`), the CLI
(`repro run --spec spec.json`), and the HTTP service (`POST
/campaigns`).  Properties the rest of the system builds on:

* **Frozen + validated at construction.**  Every invalid combination
  (unknown field, bad backend, negative workers, supervisor knobs
  without `parallel=True`, …) raises the same message on every
  surface, before anything runs.
* **Exact JSON round trip.**  `CampaignSpec.from_json(spec.to_json())
  == spec`, with unknown keys rejected (a typo'd knob fails the
  submit instead of silently running a different campaign).  The
  document carries a `schema` version (`SPEC_SCHEMA_VERSION`).
* **Stable fingerprint.**  `spec.fingerprint()` digests the canonical
  JSON — identical across processes and machines; job identity for the
  service and a reuse key everywhere else.
* **Runtime companions stay out.**  A live `ObsCollector` or a
  `WorkerFaultPlan` are per-process
  overrides accepted by the kwargs form of `run_campaign` only — they
  cannot cross a process boundary, so they are not spec fields.

`execute_spec(spec, out_dir)` is the run-and-export path on top:
because export content is seed-deterministic and the CLI, the Python
API, and the HTTP service all funnel through it, the export directory
for a given spec is **byte-identical no matter which surface submitted
it**.

JSON shape (defaults shown; `config` accepts any `ExperimentConfig`
field):

```json
{
  "schema": 1,
  "config": {"skills_per_persona": 50, "pre_iterations": 6, "...": "..."},
  "seed": 42,
  "parallel": false,
  "workers": null,
  "backend": "process",
  "cache": null,
  "cache_copy": true,
  "obs": true,
  "checkpoint_dir": null,
  "resume": false,
  "on_shard_failure": "retry",
  "shard_timeout": null,
  "max_shard_retries": 2,
  "store": "memory",
  "store_dir": null,
  "batch_personas": 1
}
```

`backend` accepts only `"process"`: shard workers are always forked
processes.  The field stays because schema 1 and every existing spec
fingerprint include it; the removed `"thread"` value fails with a
message that names the replacement (omit `backend`, or run with
`parallel=False`).

`cache`, `cache_copy`, `checkpoint_dir` and `resume` follow the same
rule.  They belonged to the removed pickle dataset cache and shard
checkpoint journal, and accept only the defaults shown above; any other
value fails with one message naming the replacement, `store:
"segments"` plus `store_dir` (a rerun into the same store resumes from
its covered batches).

## Longitudinal timelines: `TimelineSpec`

`repro.core.timeline.TimelineSpec` extends the spec contract along the
time axis: a base `CampaignSpec` (which must select
`store="segments"`) plus an ordered tuple of `EpochSpec` mutations.
Like the campaign spec it is frozen, validated at construction, an
exact JSON round trip, and fingerprintable; `repro timeline run
--spec timeline.json` and `run_timeline(spec, out_dir)` execute the
same document identically.

Each `EpochSpec` is the **absolute** (cumulative) ecosystem state of
one epoch, not a diff — so any epoch is independently executable via
`spec.effective_config(i)`:

```json
{
  "schema": 1,
  "base": {"...": "a CampaignSpec document with store = segments"},
  "epochs": [
    {},
    {
      "offset_days": 14,
      "bidders_entered": 1,
      "bidders_exited": 0,
      "catalog_churn": ["smart-home:e1-5f2a10"],
      "interest_drift": ["dating:2"],
      "filterlist_add": ["fresh.tracker.example"],
      "filterlist_remove": ["amazon-adsystem.com"]
    }
  ]
}
```

* **Dirty-set semantics.**  `persona_fingerprint(seed_root, config,
  persona)` digests every input that can reach one persona's
  artifacts.  `offset_days` and bidder churn are global (every persona
  dirty); `catalog_churn` dirties only that category's interest
  persona; `interest_drift` only the named persona; filter-list
  updates dirty **nobody** — the list classifies traffic after the
  fact, so an update only relabels the delta report.
* **Incremental recompute.**  `run_timeline(spec, out_dir)` reuses
  clean personas from the previous epoch's store and re-executes only
  the dirty set: batches whose personas are all clean are **adopted
  zero-copy** (`SegmentStore.adopt_batch` hard-links the
  content-addressed segment files; no record is parsed), and only
  batches straddling the dirty set fall back to record-level copy.
  `incremental=False` (CLI `--cold`) recomputes everything.  Both
  paths export byte-identical files, and each epoch's store manifest
  publishes `timeline.personas_reused` /
  `timeline.personas_recomputed` plus a `timeline.reuse` breakdown
  (`linked` / `copied` segment files, record-level `records`).
* **Delta report.**  Each consecutive epoch pair writes
  `delta-epoch<i-1>-to-epoch<i>.json`: `tracker_domains`
  (new/vanished under each epoch's own filter list), `bid_deltas`
  (per-persona mean-CPM movement), `policy_regressions`
  (compliance flags that went true→false), and `seasonality` (where
  each epoch's day 0 sits on the holiday ramp).
* **Seeded authoring.**  `TimelineSpec.generate(base, n_epochs=...)`
  draws drift/churn/filter-list mutations from
  `Seed(base.seed).derive("timeline")` substreams — the same base spec
  always yields the same timeline (`repro timeline generate`).

## Audit as a service (HTTP)

`repro serve --root DIR` starts a stdlib-only HTTP service
(`repro.service.AuditService`) that runs campaigns as durable **jobs**:

| method | path | meaning |
|---|---|---|
| `POST` | `/campaigns` | submit a CampaignSpec (JSON body) → `201` + job record; invalid specs are a `400` with the construction error |
| `GET` | `/campaigns` | list all jobs |
| `GET` | `/campaigns/{id}` | one job's state record |
| `GET` | `/campaigns/{id}/events` | Server-Sent Events tail of the job's event log (`?follow=0` replays and closes) |
| `GET` | `/campaigns/{id}/results` | export-file listing |
| `GET` | `/campaigns/{id}/results/{name}` | one export file's bytes |
| `POST` | `/campaigns/{id}/cancel` | cancel a queued job |
| `GET` | `/healthz` | liveness + `service.*` counters |

**Job lifecycle.**  `queued` → `running` → one of the terminal states
`complete`, `partial` (a degraded parallel campaign dropped personas),
`failed`, or `cancelled`.  Each job owns a directory under the service
root (`spec.json`, `state.json`, `events.jsonl`, `out/`, plus a
per-job `segments/` store), with every state write atomic.  Every job
runs on its own segment store, whatever store its spec names (the two
stores export byte-identical files); the spec's `store_dir` is
service-managed and must be unset.  Kill the service mid-campaign and
restart it on the same root: non-terminal jobs are re-enqueued and
**resume** from their content-addressed segment batches, producing
exports byte-identical to an uninterrupted run.

**Scheduling.**  `CampaignScheduler` admits jobs strict-FIFO under a
worker-token budget (`--total-workers`): a serial campaign costs one
token, a parallel campaign its worker count, and the sum of running
jobs' tokens never exceeds the budget — observable as
`service.workers_peak` in `/healthz`.  Concurrent tenants get isolated
namespaces and independently-seeded campaigns.

**Backpressure & drain.**  Admission is bounded (`--max-queue`,
default 64): an overflowing `POST /campaigns` is a `429` with a
`Retry-After` header (`service.jobs_rejected`); a submit while the
service is draining is a `503`; `ENOSPC` while persisting the job is
a `507` with reason `storage_exhausted`.  Cancelling a queued job
releases its admission slot, and its terminal `job.cancelled` event
lands in the log *before* the state flips so an SSE tail cannot miss
it.  `SIGTERM` triggers a graceful drain: admission stops, running
campaigns finish, queued jobs stay durably parked for the next boot,
and the process exits `0`.  A per-job watchdog (`--job-timeout`)
fails jobs running past the wall-clock deadline (state `failed`,
reason `watchdog_timeout`, `service.watchdog_reaped`) and frees their
worker tokens; a late zombie completion can neither resurrect the job
nor double-release tokens.

**Events.**  The job log speaks the obs event schema (`schema`, `seq`,
`type`, `sim_time`, `fields`): `job.submitted`, `job.started`
(`resumed` flag: the job's segment store was already there),
`job.progress` (completed batches, for every job),
`job.finished` / `job.failed` / `job.cancelled` / `job.recovered`.
The SSE endpoint emits each line as one `data:` frame and closes with
`event: end` + the terminal state.

Client side: `repro submit spec.json --url http://host:8321 --wait
--download DIR` submits a spec file, polls to completion, and downloads
the exports; `repro run --spec spec.json --out DIR` runs the same file
locally — `diff -r` of the two directories is empty (CI's
`service-smoke` job asserts exactly that).

## Observability

Every campaign run traces itself by default.  `run_campaign` returns its
dataset with an attached `repro.obs.ObsCollector` (`dataset.obs`) holding
four artifacts:

* **Spans** (`dataset.obs.tracer`) — a nested span tree over the campaign
  phases and per-persona work.  Deterministic spans (`det=True`: all
  `persona:*` work plus prebid discovery) carry integer simulated-time
  durations (`sim_us`) derived from the world clock; every span also
  carries wall-clock timings in separate `real_*` fields.  The
  simulated-time tree (`tracer.sim_tree_json()`) is byte-identical
  between serial and parallel runs of the same seed and config.
* **Metrics** (`dataset.obs.metrics`) — typed counters and gauges with
  per-metric merge policies (`sum`, `first`, `max`, `min`) so parallel
  shards combine correctly: persona-partitioned work sums, per-shard
  duplicated work (discovery) deduplicates.
* **Events** (`dataset.obs.events`) — an ordered structured log
  (`schema`, `seq`, `type`, `sim_time`, `fields`) for discrete
  occurrences: phase completions, skill-install failures, DSAR
  re-requests.
* **Manifest** (`dataset.obs.manifest`) — how the run was executed: seed
  root, config fingerprint, entrypoint (`serial`/`parallel`),
  worker topology and persona shards, per-shard attempt history,
  package version (manifest schema 4).

Write everything as one JSONL trace with
`dataset.obs.write_trace(path)`, or from the CLI with
`python -m repro run --trace-out trace.jsonl --metrics-out metrics.json`;
`python -m repro report obs-summary` renders a phase/counter summary.
Pass `obs=False` to `run_campaign` to disable collection entirely
(null-object fast path, <5% overhead budget either way — enforced by
`benchmarks/bench_pipeline_throughput.py::bench_obs_overhead`).

## Fault injection and retries

`run_campaign` drives a perfectly healthy network unless a fault profile
is set (`ExperimentConfig(fault_profile=...)`, or `--faults` on the
CLI).  The subsystem lives in `repro.netsim.faults`, one of three
tables over the seeded fault kernel `repro.util.faults` (see "One fault
kernel" below):

* **`FaultProfile`** — a named mix of per-request rates for the four
  failure modes in `FAULT_KINDS` (`nxdomain`, `timeout`, `http_5xx`,
  `slow`).  `FaultProfile.parse` accepts a profile name from
  `FAULT_PROFILES` (`none` / `mild` / `harsh`), a float overall rate,
  or the `rate:<x>` name a float rate normalises to.
* **`FaultPlan`** — turns a profile into concrete per-request
  `FaultDecision`s; `FaultPlan.decide(actor, domain)` is called once
  per attempt and returns `None` for a healthy request.  Decisions are drawn from `StreamFamily` substreams
  keyed by `(actor, domain)` and derived from the world `Seed`, so an
  actor's fault schedule depends only on its own request sequence —
  never on shard composition.  Serial and persona-sharded parallel
  campaigns therefore stay byte-identical under every profile
  (`tests/integration/test_fault_resilience.py`), and `fault_profile`
  is part of the config fingerprint.
* **`RetryPolicy`** — the kernel's capped exponential `Backoff`, shared
  by Echo devices, the AVS Echo, and the crawler.  Backoff burns *simulated*
  seconds (`SimClock.advance`); library code never sleeps on the host
  clock.  Retries fire on `NetworkError` and on retryable statuses
  (500/502/503/504); once exhausted, the last retryable response is
  returned for callers to check `.ok`, while a final `NetworkError` is
  re-raised for the caller's degradation path.

**Partial-dataset semantics.** A faulted campaign never aborts: a voice
command whose retries exhaust yields no reply, a failed crawl hop is
logged with a synthetic `504`, a failed skill session is skipped.  The
dataset that comes back is valid but partial, and every loss is
accounted for in the metrics (`net.faults.*`, `web.faults.*`,
`<scope>.retries`, `<scope>.retry_exhausted`, `device.*_failures`,
`skills.sessions_failed`) plus the manifest's `fault_profile` field —
so partial data is always distinguishable from a healthy run.

## One fault kernel

`repro.util.faults` owns every decision the three fault domains —
network requests, storage reads and writes, shard workers — make alike:

* **`FaultTable`** — the base of each domain's frozen rate dataclass:
  one `<kind>_rate` field per kind, in draw order.  It validates every
  rate (in [0, 1], sum ≤ 1), every `*_seconds` duration and every
  `*_seconds` / `*_fraction` range (finite, ordered, fractions inside
  [0, 1]) at construction, and computes the cumulative draw edges once.
  Named profiles get `from_rate` and `parse`.
* **`FaultDraw`** — the seeded engine: one `StreamFamily` per plan,
  exactly one `random()` per decision from the key's own stream, and
  any parameter draw from the same stream right after it.  Targeted
  overrides (`override(key, kind, after=N)`) are checked first and
  consume no draw; the worker `targeted` schedule and the storage
  `exhaust` thresholds are both overrides.
* **`FaultDecision(kind, seconds=0.0, fraction=0.0)`** — the one
  decision type, and **`Backoff`** — the one capped exponential retry
  schedule.

The kind order and each domain's substream key (network
`seed.derive("faults")`/`(actor, domain)`, storage
`seed.derive("storage")`/`(component, op)`, worker
`seed.derive("supervisor")`/`(shard, attempt)`) are part of the
determinism contract; `tests/unit/test_fault_schedules.py` pins each
domain's decision sequence.

## Storage chaos: seeded I/O faults, hardened writes, `repro fsck`

`repro.core.iosim` gives the storage layer the same seeded-fault
treatment as the network (`FaultPlan`) and the workers
(`WorkerFaultPlan`):

* **`StorageFaultProfile`** — named per-operation rates over
  `STORAGE_FAULT_KINDS` (`enospc`, `eio`, `fsync`, `rename`, `torn`,
  `slow`, `corrupt_read`).  `StorageFaultProfile.parse` accepts a
  profile name from `STORAGE_FAULT_PROFILES` (`none` / `mild` /
  `harsh`) or an overall rate (`rate:0.05`).
* **`StorageFaultPlan`** — turns a profile into concrete
  `FaultDecision`s drawn from `Seed.derive("storage")`
  substreams keyed by `(component, op)` (`segments`, `jobs`, `fsck`),
  so a component's fault schedule depends only
  on its own operation sequence — never on shard composition.
  `plan.exhaust(component, op, after=N)` switches an op to persistent
  `ENOSPC` after N calls for disk-full drills; `plan.snapshot()` /
  `plan.summary()` expose the `storage.*` counters, which a segment
  campaign writes into its store manifest's `storage` block.
* **Installation is harness-level** — `install_storage_faults(...)` /
  the `storage_faults(...)` context manager in Python, the
  `--storage-faults` flag of `repro run --store segments` (a
  memory-store campaign touches no storage, so the flag exits 2
  without `--store segments`), or
  `REPRO_STORAGE_FAULTS=<profile>:<seed>` in the environment.
  `propagate=True` exports that variable for spawned workers and
  raises `ValueError` for a plan it cannot carry: a custom profile or
  an `exhaust` schedule.  The
  plan never enters the config fingerprint: a faulted run is the same
  campaign as a healthy one, merely executed on worse hardware.

The injection seam is `repro.core.checkpoint.atomic_write_bytes`
(write-temp → fsync → rename → **parent-dir fsync**) plus the read
paths of the digest cache and the sidecar indexes.  The hardening
contract:

* Transient faults (`eio`, `fsync`, `rename`, `torn`, `slow`) are
  retried behind the seam with capped exponential backoff
  (`DEFAULT_STORAGE_RETRY`, a `Backoff` on the host clock; reads and
  writes share one retry loop); a torn temp file is discarded
  before the rename, so torn bytes never reach a live name.
  `storage.retries` / `storage.retry_exhausted` count the work.
* `corrupt_read` fires only on self-healing artifacts; every victim is
  quarantined to `*.corrupt` (`storage.quarantined`) and rebuilt or
  recomputed, never trusted.
* **Determinism bar.**  Under any profile where writes eventually
  succeed, campaign exports are byte-identical to a no-fault run,
  serial and parallel (`tests/integration/test_storage_chaos.py`,
  `tests/property/test_storage_fault_properties.py`, CI's
  `chaos-smoke` storage leg).
* **`ENOSPC` degrades, never wedges.**  Segment campaigns finish
  `partial` with `missing_personas` accounted and a `storage` block
  (profile + counters) in the store manifest; the HTTP service maps it
  to `507` and a `failed` job with reason `storage_exhausted`, its
  worker tokens released.

**`repro fsck <dir> [--repair] [--out report.json]`**
(`repro.core.fsck.fsck_path`) is the offline audit.  It auto-detects
what a directory holds — a segment store or single campaign, or a
service job tree (recursing into each job's `segments/`) — and
classifies every artifact:

| verdict | meaning | examples |
|---|---|---|
| `ok` | passes every integrity check | verified segment, valid batch marker |
| `repaired` | reconstructible from surviving artifacts | rebuild a sidecar index, prune a stale digest cache, truncate a torn event-log tail |
| `quarantined` | recomputable — moved to `*.corrupt` so a rerun recomputes | digest-mismatched segment + its marker, corrupt `state.json` |
| `unrecoverable` | identity-bearing, reported but never deleted | store `MANIFEST.json`, job `spec.json`, interior event-log damage |

Without `--repair` the identical report is a dry run (`applied:
false` on every action).  The JSON report counts each verdict and
lists every action; the exit code is non-zero iff anything is
unrecoverable.

## Crash safety & resume

The segment store is the one durable resume path.  A campaign run with
`store="segments"` (CLI `--store segments --store-dir DIR`) publishes
every batch of personas atomically — content-addressed segment files,
then a batch marker recording each file's sha256 — so a campaign killed
mid-run resumes when it is re-run into the same `store_dir`: covered
batches are reused, only the rest is computed, and no flag is needed.
A foreign or corrupt batch is recomputed, never trusted.  A memory-store
campaign writes nothing to disk.  The layer has two halves:

* **`repro.core.checkpoint`** — the publishing primitives every durable
  file goes through: `atomic_write_bytes` (write-temp → fsync → rename
  → parent-dir fsync), `fsync_dir`, and `quarantine_path` (move a
  corrupt artifact to `*.corrupt`, never delete it).
* **The shard supervisor** (`repro.core.parallel`) — each worker
  sends its result (or traceback) over its own pipe, and the supervisor
  waits on the pipes: EOF without a message is a crash, bytes that do
  not unpickle are a poisoned result.  The supervisor writes nothing to
  disk; segment workers publish their own batches.  It
  restarts crashed workers with a bounded retry budget
  (`max_shard_retries`), and reaps workers hung past a **wall-clock**
  `shard_timeout` (a stuck simulated clock cannot fool the watchdog).
  `SupervisorPolicy` bundles the knobs; `on_shard_failure` picks what
  happens when a shard exhausts its budget: `"retry"` (default —
  raises `ShardFailure` after the budget), `"degrade"` (completes
  without the lost personas, recorded in `dataset.missing_personas`,
  the run manifest, and `supervisor.*` counters; a segment store's
  manifest lists what its coverage lacks, so a shard whose result was
  lost after it published every batch leaves a `complete` store),
  or `"raise"` (aborts on first failure).

From the CLI: `python -m repro run --parallel --store segments
--store-dir DIR [--on-shard-failure MODE] [--shard-timeout SECONDS]`,
re-run unchanged after a crash.  Because persona artifacts are
seed-deterministic, a resumed run's exports are **byte-identical** to
an uninterrupted run's, under healthy and mild-faulted networks
(`tests/integration/test_resume_determinism.py` SIGKILLs a 4-worker
campaign mid-run; CI's `chaos-smoke` job crashes a worker, resumes
through the CLI and diffs).  The run manifest (schema 4) records
`shard_attempts` and `missing_personas`; schema 4 dropped the
`cache_hit`, `resumed` and `checkpointed` fields and the `"cached"`
entrypoint of the removed dataset cache and shard journal.

Recovery is testable on demand: `WorkerFaultPlan` injects worker-level
faults (`WORKER_FAULT_KINDS`: `crash`, `hang`, `poison`) either at
seeded rates drawn from substreams keyed by `(shard, attempt)` — the
third table on the network's and storage's fault kernel — or as an
exact `WorkerFaultPlan.targeted({(shard, attempt): kind})` schedule.
Supervisor overhead on a healthy run is budgeted under 5% of campaign
wall-clock (`bench_supervisor_overhead`).

## Performance: the capture→analysis hot path

Capture and analysis are profile-guided-optimized; the invariant is that
none of it moves an exported byte
(`tests/integration/test_pipeline_equivalence.py` pins serial vs
4-worker exports under healthy and mild-faulted networks).

* **Sealed flows** — `repro.netsim.packet.FlowTable` groups packets into
  flows *as the router emits them* and is the only place a `Flow` is
  created (`packets` is not a constructor argument), so each flow's
  running `total_bytes` / `sni` / `first_timestamp` aggregates cover
  exactly its packets.  Stopping a capture seals the table once
  (`Flow.seal()` freezes a flow against further packets).  Flows are
  non-empty by construction — a `FlowTable` only creates a flow when
  its first packet arrives.  `CaptureSession.flows()` on a live session
  returns a snapshot of its table's flows.
  `CaptureSession.dns_table()` is likewise built incrementally and free
  to read.  The `flows.sealed` counter tracks how many flows each run
  froze; stopping an already-stopped capture adds nothing to it.
* **Metadata-only TLS packets** — the router sizes a TLS packet with
  `HttpRequest.wire_size()` / `HttpResponse.wire_size()`, which equal
  `estimate_size(message.to_payload())` without building the payload
  the packet hides (`payload is None`).  Only plaintext HTTP packets
  call `to_payload()`.  DNS packet sizes are memoised per router, keyed
  by host and answer.  Echo devices build their requests with
  `HttpRequest.from_parts`, so their URLs are never parsed.
* **Memoized analysis** — `OrgResolver.attribute_domain` and
  `FilterList.is_blocked` cache per-domain answers (the underlying
  entity DB, WHOIS answers, and rule set are immutable for a built
  world); `analyze_traffic` classifies each distinct domain and
  `(org, vendor)` pair once.  Repeat lookups the caches absorbed are
  counted as `analysis.domain_cache_hits`.  Both caches are always on.
* **No dataset cache** — a memory-store campaign is computed afresh
  on every call, so a model change can never hide behind a warm cache
  (the pickle `DatasetCache`, whose key held no code digest, was
  removed).  Reuse across runs is the segment store's: re-running a
  `(seed, config)` into the same store skips covered personas.
* **Exact gates** — tier-1 pins the fast paths with deterministic
  counts instead of speedup ratios:
  `test_pipeline_equivalence.py::test_obs_counters_present` checks
  `flows.sealed`, `analysis.domain_cache_hits` and one resolution per
  distinct domain on a seed-42 config and fails if analysis regroups
  packets or rebuilds a DNS table, and
  `test_traffic_matrix_matches_reference_scan` compares the traffic
  matrix with a cache-free re-derivation from raw packets.  Wall-clock
  is measured end to end by `benchmarks/e2e/bench_e2e.py`.

## Scaling: the segment-store I/O fast path

`repro.core.segments.SegmentStore` streams campaigns through
append-only, content-addressed JSONL segments (see the module
docstring for the layout).  Three structures keep its hot paths off
the O(campaign-size) cost curve:

* **Zero-copy batch adoption** — `store.adopt_batch(prev_store,
  entry)` transfers one validated batch from another store of the same
  seed and roster by hard-linking its segment files (`os.link`),
  falling back to a byte copy through `atomic_write_bytes` on
  filesystems that refuse links.  No record is parsed or
  re-serialized; a fresh marker records the origin store's config
  fingerprint (`"origin"` field), which reads validate adopted segment
  headers against.  Counters: `segments.reuse.linked` /
  `segments.reuse.copied` (files); the timeline layer's record-level
  fallback counts `segments.reuse.records`.
* **Offset-indexed point reads** — each batch writes a sidecar index
  `batches/index-<firstpos>.json`: the batch envelope (schema, seed
  root, config fingerprint, positions) plus, per stream, the segment
  file name, its full sha256, and an `offsets` map from roster
  position to `[byte offset, byte length, record count]` of that
  persona's contiguous run of lines.  `stream_records_for(stream,
  pos)` seeks to the extent and parses only those lines.  The sidecar
  is validated against the batch marker's file names and digests;
  a missing, stale, or tampered index is rebuilt from the segment
  file and re-persisted — never an error.
* **Cached digest verification** — coverage scans verify every
  referenced segment's sha256.  Verified digests persist in
  `digest-cache.json` next to the manifest, keyed by `(file name,
  size, mtime_ns)`, so unchanged files are never re-hashed — across
  scans, processes, and service restarts (`segments.digest_cache.hits`
  / `.misses` counters; `repro fsck` re-hashes every segment itself).
  On any digest mismatch the cache is cleared, the handle
  permanently switches to cold-path full hashing, and the corrupt
  segment is quarantined to `*.corrupt` with a warning — corruption is
  recomputed over, never silently trusted.

  The cache has **one writer**: the campaign owner (the serial runner,
  a sharded run's parent, a timeline epoch, `write_dataset_segments`)
  writes it once per campaign, right after it publishes the manifest
  (`store.publish_manifest()`, which stamps `status` and
  `missing_personas` from the store's verified coverage).  Forked
  shard workers never write it; the parent's one end-of-run scan
  verifies their segments cold.  Only a handle that sees a digest
  mismatch writes out of turn, to persist the cleared cache.  A
  writing handle trusts its own writes: `write_batch` and
  `adopt_batch` add their batch to the handle's coverage view, so a
  writer scans the store once, not once per batch
  (`tests/unit/test_segment_traffic.py` counts both).

Rebind `store.obs` to a live `ObsCollector` to record the counters.
All three paths are pinned byte-identical to cold recompute by
`tests/property/test_segment_reuse_properties.py`, and each fast path
by exact counts in `tests/unit/test_segment_fastpath.py`: a warm
re-scan is all digest-cache hits, adoption links every file and copies
none, and point reads never parse a whole segment.

## Migrating to `run_campaign` / `CampaignSpec`

The three pre-1.0 entrypoints — `run_experiment`,
`run_parallel_experiment`, `run_cached_experiment` — were deprecated
shims through 1.5.x and are **removed in 1.6**; `run_campaign` is the
one entrypoint used by the CLI, the service, tests, and benchmarks.

| legacy call | replacement |
|---|---|
| `run_experiment(seed, config)` | `run_campaign(config, seed)` |
| `run_parallel_experiment(seed, config, workers=4, backend="process")` | `run_campaign(config, seed, parallel=True, workers=4)` |
| `run_cached_experiment(seed_root, config)` | `run_segment_campaign(config, seed_root, store_dir=DIR)` (the dataset cache is gone; a segment store is reused across runs) |

Note the argument order: `run_campaign` takes `(config, seed)` — config
first, matching how call sites are usually parameterized — and
everything else is keyword-only.

Since 1.6 the preferred form is a spec — build it once, run it anywhere:

```python
spec = CampaignSpec(config=config, seed=42, parallel=True, workers=4)
dataset = run_campaign(spec)            # Python API
# repro run --spec spec.json           # CLI, same exports
# POST /campaigns <- spec.to_json()    # HTTP service, same exports
```

`run_campaign(spec, workers=8)` is a `TypeError` — a spec is the whole
campaign; derive variants with `spec.replace(workers=8)`.  The kwargs
form `run_campaign(config, seed, ...)` remains supported as a shim that
builds the spec internally and also accepts the non-serializable
runtime companions (`obs=` collector, `worker_faults=`).
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n")[0]


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated from the package's docstrings (`python docs/generate_api.py`).",
        "",
        PREAMBLE,
    ]
    for modinfo in sorted(
        pkgutil.walk_packages(repro.__path__, "repro."), key=lambda m: m.name
    ):
        if modinfo.ispkg or modinfo.name.endswith("__main__"):
            continue
        module = importlib.import_module(modinfo.name)
        lines.append(f"## `{modinfo.name}`")
        lines.append("")
        lines.append(first_line(module))
        lines.append("")
        exported = getattr(module, "__all__", None)
        if not exported:
            continue
        rows = []
        for symbol in exported:
            obj = getattr(module, symbol, None)
            if obj is None:
                continue
            if inspect.isclass(obj):
                kind = "class"
            elif callable(obj):
                kind = "function"
            else:
                kind = "constant"
            summary = first_line(obj) if kind != "constant" else ""
            rows.append((symbol, kind, summary.replace("|", "\\|")))
        if rows:
            lines.append("| name | kind | summary |")
            lines.append("|---|---|---|")
            lines.extend(
                f"| `{symbol}` | {kind} | {summary} |" for symbol, kind, summary in rows
            )
            lines.append("")
    target = pathlib.Path(__file__).with_name("API.md")
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
