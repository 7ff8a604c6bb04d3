"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        run the full (or scaled) campaign and export artifacts
``timeline``   longitudinal multi-epoch audits (``generate`` / ``run``)
``serve``      start the audit HTTP service (:mod:`repro.service`)
``submit``     submit a CampaignSpec file to a running audit service
``tables``     print the paper's headline tables from a fresh campaign
``report``     render campaign reports (``obs-summary``)
``policheck``  run the §7 policy-compliance analysis
``sync``       run the §5.5 cookie-sync analysis
``audio``      run the §5.4 audio-ad study
``defend``     run the §8.1 defense evaluations
``version``    print the package version

Every campaign-running command shares one flag set (``--seed``,
``--small``, ``--parallel``, ``--workers``, ``--faults``, ``--cache``,
``--quiet``, ``--trace-out``, ``--metrics-out``) and goes through
:func:`repro.core.run_campaign`.  ``run`` additionally exposes the
crash-safety knobs (``--checkpoint-dir``, ``--resume``,
``--on-shard-failure``, ``--shard-timeout``) and accepts a serialized
:class:`~repro.core.campaign.CampaignSpec` via ``--spec`` — the same
document the HTTP service takes, so ``repro run --spec`` and an HTTP
submission of the same file export byte-identical directories.  Output
is emitted through the ``repro.cli`` logger; ``--quiet`` raises the
threshold to warnings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.core.bids import bid_summary_table, significance_vs_vanilla
from repro.core.campaign import CampaignSpec, execute_spec, run_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.report import render_kv, render_table
from repro.core.syncing import detect_cookie_syncing
from repro.util.rng import Seed

__all__ = ["main", "build_parser"]

_LOG = logging.getLogger("repro.cli")


class _ConsoleHandler(logging.Handler):
    """Stdout handler that resolves ``sys.stdout`` at emit time, so
    output lands in whatever stream is active (pytest's ``capsys``
    swaps the stream between tests)."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stdout.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


def _configure_logging(quiet: bool = False) -> None:
    """Idempotent logger setup for the ``repro`` namespace."""
    root = logging.getLogger("repro")
    if not any(isinstance(h, _ConsoleHandler) for h in root.handlers):
        handler = _ConsoleHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
    root.setLevel(logging.WARNING if quiet else logging.INFO)
    root.propagate = False


# ---------------------------------------------------------------------- #
# Parsers
# ---------------------------------------------------------------------- #


def _common_parent() -> argparse.ArgumentParser:
    """Flags every command shares."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=42)
    parent.add_argument(
        "--quiet", action="store_true", help="suppress informational output"
    )
    return parent


def _campaign_parent(common: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Flags every campaign-running command shares, on top of the
    common set.  Declared once; each subcommand mounts it via
    ``parents=[...]`` instead of redeclaring the flags."""
    parent = argparse.ArgumentParser(add_help=False, parents=[common])
    parent.add_argument("--small", action="store_true", help="scaled-down campaign")
    parent.add_argument(
        "--parallel",
        action="store_true",
        help="shard the campaign by persona across workers; exports and "
        "the merged trace's simulated-time span tree are identical to a "
        "serial run",
    )
    parent.add_argument(
        "--workers", type=int, default=4, help="worker count for --parallel"
    )
    parent.add_argument(
        "--faults",
        metavar="PROFILE",
        default="none",
        help="network fault profile: none|mild|harsh or a float rate "
        "(e.g. 0.05); seeded and deterministic, see repro.netsim.faults",
    )
    parent.add_argument(
        "--storage-faults",
        metavar="PROFILE",
        default="none",
        help="storage fault profile: none|mild|harsh or a float rate; "
        "seeded, deterministic I/O fault injection on every durable "
        "write/read path, see repro.core.iosim.  Harness-level: exports "
        "stay byte-identical to a fault-free run",
    )
    parent.add_argument(
        "--cache",
        action="store_true",
        help="serve the campaign from the on-disk dataset cache, computing "
        "and storing it on first use; the CLI only reads the dataset, so "
        "the cached instance is aliased without a deep copy",
    )
    parent.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the campaign trace (manifest, spans, events) as JSONL",
    )
    parent.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write campaign counters/gauges as JSON",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="echo-audit: smart-speaker ecosystem auditing framework",
    )
    common = _common_parent()
    campaign = _campaign_parent(common)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", parents=[campaign], help="run the campaign and export artifacts"
    )
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="run the campaign described by a serialized CampaignSpec "
        "(JSON; '-' for stdin) instead of composing one from flags — the "
        "same document `repro submit` sends to the audit service, so both "
        "surfaces export byte-identical directories",
    )
    run.add_argument(
        "--store",
        choices=("memory", "segments"),
        default="memory",
        help="campaign backend: memory (default) holds the full dataset "
        "in RAM; segments streams persona batches through the on-disk "
        "segment store, keeping peak memory flat in the roster size — "
        "exports are byte-identical either way",
    )
    run.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="segment store root for --store segments "
        "(default: <out>/_segments); covered personas found there are "
        "reused instead of recomputed",
    )
    run.add_argument(
        "--roster-scale",
        type=int,
        default=1,
        metavar="N",
        help="replicate each interest persona N times (controls are "
        "never replicated): roster grows from 13 to 9*N+4 personas; "
        "large scales should use --store segments",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal completed persona shards to DIR (requires --parallel); "
        "a killed run can be resumed from it with --resume",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint journal in --checkpoint-dir instead "
        "of recomputing completed shards; exports are byte-identical to an "
        "uninterrupted run of the same seed/config",
    )
    run.add_argument(
        "--on-shard-failure",
        choices=("retry", "degrade", "raise"),
        default="retry",
        help="supervisor policy for a crashed/hung shard worker: retry "
        "(requeue, then fail), degrade (drop the shard, export a partial "
        "dataset with missing_personas recorded), or raise immediately",
    )
    run.add_argument(
        "--shard-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock watchdog: reap and requeue a shard worker that "
        "produces no result within SECONDS (host clock, not sim clock)",
    )

    serve = sub.add_parser(
        "serve", parents=[common], help="start the audit HTTP service"
    )
    serve.add_argument(
        "--root",
        default="audit-jobs",
        help="service state directory (jobs, checkpoints, exports); "
        "restarting with the same root recovers in-flight jobs",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--total-workers",
        type=int,
        default=4,
        metavar="N",
        help="worker-token budget shared by all running campaigns: a "
        "serial campaign costs 1, a parallel one its worker count",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="bounded admission queue: submissions beyond N queued "
        "campaigns get HTTP 429 with Retry-After",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock watchdog: a campaign running longer is "
        "marked failed and its worker tokens are freed",
    )

    fsck = sub.add_parser(
        "fsck",
        parents=[common],
        help="cold integrity audit of a segment store, checkpoint "
        "journal, or service job tree",
    )
    fsck.add_argument(
        "path",
        metavar="DIR",
        help="artifact tree to audit (auto-detected: segment store / "
        "campaign dir / checkpoint journal / job tree)",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="apply repairs: rebuild sidecar indexes, drop stale digest "
        "caches, re-stamp recoverable journal manifests, truncate torn "
        "event-log tails, quarantine corrupt artifacts to *.corrupt",
    )
    fsck.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the JSON report here",
    )

    submit = sub.add_parser(
        "submit", parents=[common], help="submit a CampaignSpec to a service"
    )
    submit.add_argument(
        "spec", metavar="FILE", help="CampaignSpec JSON file ('-' for stdin)"
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8321", help="audit service base URL"
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll the job until it reaches a terminal state",
    )
    submit.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval for --wait",
    )
    submit.add_argument(
        "--download",
        metavar="DIR",
        default=None,
        help="after completion, download every result file to DIR "
        "(implies --wait)",
    )

    timeline = sub.add_parser(
        "timeline", help="longitudinal multi-epoch audits (TimelineSpec)"
    )
    tsub = timeline.add_subparsers(dest="timeline_command", required=True)
    tgen = tsub.add_parser(
        "generate",
        parents=[common],
        help="author a seeded TimelineSpec and print/write its JSON",
    )
    tgen.add_argument("--small", action="store_true", help="scaled-down campaign")
    tgen.add_argument(
        "--parallel", action="store_true", help="shard each epoch across workers"
    )
    tgen.add_argument(
        "--workers", type=int, default=4, help="worker count for --parallel"
    )
    tgen.add_argument(
        "--faults", metavar="PROFILE", default="none",
        help="network fault profile for every epoch (none|mild|harsh|rate)",
    )
    tgen.add_argument("--epochs", type=int, default=2, metavar="N")
    tgen.add_argument(
        "--gap-days", type=int, default=0, metavar="DAYS",
        help="sim-clock shift between epochs; nonzero marches the campaign "
        "across the holiday ramp but dirties every persona",
    )
    tgen.add_argument("--drift-personas", type=int, default=2, metavar="N")
    tgen.add_argument("--churn-categories", type=int, default=1, metavar="N")
    tgen.add_argument("--filterlist-updates", type=int, default=1, metavar="N")
    tgen.add_argument(
        "--out", default="-", metavar="FILE",
        help="write the TimelineSpec JSON here ('-' for stdout)",
    )
    trun = tsub.add_parser(
        "run",
        parents=[common],
        help="execute a TimelineSpec: per-epoch exports + delta reports",
    )
    trun.add_argument(
        "--spec", metavar="FILE", required=True,
        help="TimelineSpec JSON file ('-' for stdin)",
    )
    trun.add_argument("--out", default="timeline-results", help="output directory")
    trun.add_argument(
        "--cold", action="store_true",
        help="disable incremental reuse: every epoch recomputes the full "
        "roster (exports are byte-identical either way — this flag exists "
        "to verify exactly that)",
    )

    sub.add_parser("tables", parents=[campaign], help="print headline tables")

    report = sub.add_parser("report", parents=[campaign], help="render reports")
    report.add_argument(
        "view",
        choices=("obs-summary",),
        help="obs-summary: per-phase cost, counters, and the run manifest",
    )

    policheck = sub.add_parser(
        "policheck", parents=[campaign], help="run the §7 compliance analysis"
    )
    policheck.add_argument("--with-amazon-policy", action="store_true")

    sub.add_parser("sync", parents=[campaign], help="run the §5.5 cookie-sync analysis")

    audio = sub.add_parser(
        "audio", parents=[common], help="run the §5.4 audio-ad study"
    )
    audio.add_argument("--hours", type=float, default=6.0)

    sub.add_parser(
        "defend", parents=[common], help="run the §8.1 defense evaluations"
    )

    sub.add_parser("version", help="print version")
    return parser


def _config(small: bool) -> ExperimentConfig:
    if not small:
        return ExperimentConfig()
    return ExperimentConfig(
        skills_per_persona=8,
        pre_iterations=2,
        post_iterations=6,
        crawl_sites=8,
        prebid_discovery_target=50,
        audio_hours=2.0,
    )


def _resolve_config(args, config: Optional[ExperimentConfig] = None):
    """Parsed flags -> the effective campaign config."""
    config = config if config is not None else _config(args.small)
    faults = getattr(args, "faults", "none")
    if faults != config.fault_profile:
        config = dataclasses.replace(config, fault_profile=faults)
    roster_scale = getattr(args, "roster_scale", 1)
    if roster_scale != config.roster_scale:
        config = dataclasses.replace(config, roster_scale=roster_scale)
    return config


def _run_campaign_from_args(args, config: Optional[ExperimentConfig] = None):
    """One code path from parsed flags to a campaign dataset."""
    config = _resolve_config(args, config)
    use_cache = getattr(args, "cache", False)
    dataset = run_campaign(
        config,
        args.seed,
        parallel=args.parallel,
        workers=args.workers if args.parallel else None,
        cache=True if use_cache else None,
        cache_copy=not use_cache,
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        resume=getattr(args, "resume", False),
        on_shard_failure=getattr(args, "on_shard_failure", "retry"),
        shard_timeout=getattr(args, "shard_timeout", None),
    )
    _write_obs_outputs(dataset, args)
    return dataset


def _write_obs_outputs(dataset, args) -> None:
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if dataset.obs is None:
        if trace_out or metrics_out:
            _LOG.warning("observability was disabled; nothing to write")
        return
    if trace_out:
        count = dataset.obs.write_trace(trace_out)
        _LOG.info("wrote %d trace records to %s", count, trace_out)
    if metrics_out:
        dataset.obs.write_metrics(metrics_out)
        _LOG.info("wrote metrics to %s", metrics_out)


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #


def _spec_from_run_args(args) -> Optional[CampaignSpec]:
    """``run`` flags -> a :class:`CampaignSpec`, or ``None`` on a flag
    conflict (already logged, exit code 2)."""
    if args.store == "segments":
        incompatible = [
            flag
            for flag, active in (
                ("--cache", args.cache),
                ("--resume", args.resume),
                ("--checkpoint-dir", args.checkpoint_dir is not None),
                ("--trace-out", args.trace_out is not None),
                ("--metrics-out", args.metrics_out is not None),
            )
            if active
        ]
        if incompatible:
            _LOG.warning(
                "%s do(es) not apply to --store segments: the store's "
                "content-addressed batches already provide reuse and resume, "
                "and segment workers do not trace",
                ", ".join(incompatible),
            )
            return None
        return CampaignSpec(
            config=_resolve_config(args),
            seed=args.seed,
            parallel=args.parallel,
            workers=args.workers if args.parallel else None,
            store="segments",
            store_dir=args.store_dir,
            on_shard_failure=args.on_shard_failure,
            shard_timeout=args.shard_timeout,
        )
    if args.store_dir is not None:
        _LOG.warning("--store-dir is ignored without --store segments")
    cache_root = None
    if args.cache:
        from repro.core.cache import DatasetCache

        cache_root = str(DatasetCache().root)
    return CampaignSpec(
        config=_resolve_config(args),
        seed=args.seed,
        parallel=args.parallel,
        workers=args.workers if args.parallel else None,
        # the CLI only reads the dataset, so a cache hit is aliased
        cache=cache_root,
        cache_copy=not args.cache,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        on_shard_failure=args.on_shard_failure,
        shard_timeout=args.shard_timeout,
    )


def _load_spec_file(path: str) -> CampaignSpec:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return CampaignSpec.from_json(text)


def _cmd_run(args) -> int:
    if args.spec is not None:
        shaping = [
            flag
            for flag, active in (
                ("--seed", args.seed != 42),
                ("--small", args.small),
                ("--parallel", args.parallel),
                ("--faults", args.faults != "none"),
                ("--cache", args.cache),
                ("--store", args.store != "memory"),
                ("--store-dir", args.store_dir is not None),
                ("--roster-scale", args.roster_scale != 1),
                ("--checkpoint-dir", args.checkpoint_dir is not None),
                ("--resume", args.resume),
                ("--on-shard-failure", args.on_shard_failure != "retry"),
                ("--shard-timeout", args.shard_timeout is not None),
            )
            if active
        ]
        if shaping:
            _LOG.warning(
                "--spec takes the whole campaign from the file; also passing "
                "%s is ambiguous — edit the spec instead",
                ", ".join(shaping),
            )
            return 2
        spec = _load_spec_file(args.spec)
    else:
        spec = _spec_from_run_args(args)
        if spec is None:
            return 2
    counts, result = execute_spec(spec, args.out)
    _LOG.info("%s", render_kv(counts, title=f"exported to {args.out}/"))
    if spec.store == "segments":
        _LOG.info("segment store: %s", result.campaign_dir)
        return 0
    _write_obs_outputs(result, args)
    if result.timings:
        total = result.timings.get("total", 0.0)
        _LOG.info("campaign wall-clock: %.1fs", total)
    return 0


def _cmd_timeline(args) -> int:
    from repro.core.timeline import TimelineSpec, run_timeline

    if args.timeline_command == "generate":
        config = _config(args.small)
        if args.faults != config.fault_profile:
            config = dataclasses.replace(config, fault_profile=args.faults)
        base = CampaignSpec(
            config=config,
            seed=args.seed,
            parallel=args.parallel,
            workers=args.workers if args.parallel else None,
            store="segments",
        )
        spec = TimelineSpec.generate(
            base,
            n_epochs=args.epochs,
            epoch_gap_days=args.gap_days,
            drift_personas=args.drift_personas,
            churn_categories=args.churn_categories,
            filterlist_updates=args.filterlist_updates,
        )
        text = spec.to_json(indent=2) + "\n"
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
            _LOG.info("wrote TimelineSpec (%d epochs) to %s", args.epochs, args.out)
        return 0

    text = (
        sys.stdin.read()
        if args.spec == "-"
        else Path(args.spec).read_text(encoding="utf-8")
    )
    spec = TimelineSpec.from_json(text)
    result = run_timeline(spec, args.out, incremental=not args.cold)
    for run in result.epochs:
        counts = dict(run.counts)
        counts["personas_reused"] = run.personas_reused
        counts["personas_recomputed"] = run.personas_recomputed
        _LOG.info(
            "%s",
            render_kv(
                counts,
                title=f"epoch {run.index:02d} -> {run.export_dir}/ ({run.status})",
            ),
        )
    for delta in result.deltas:
        epochs = delta["epochs"]
        _LOG.info(
            "delta epoch %02d -> %02d: %d new / %d vanished tracker domains, "
            "%d policy regressions",
            epochs["previous"],
            epochs["current"],
            len(delta["tracker_domains"]["new"]),
            len(delta["tracker_domains"]["vanished"]),
            len(delta["policy_regressions"]),
        )
    return 0


def _cmd_serve(args) -> int:
    import signal

    from repro.service import AuditService

    service = AuditService(
        args.root,
        host=args.host,
        port=args.port,
        total_workers=args.total_workers,
        max_queue=args.max_queue,
        job_timeout=args.job_timeout,
    )
    service.start()
    _LOG.info("audit service listening on %s (root: %s)", service.url, args.root)

    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        while not stop.wait(0.5):
            pass
        # SIGTERM: graceful drain — stop admission, let running
        # campaigns finish (queued jobs stay durably queued for the
        # next start), flush, exit 0.
        _LOG.info("SIGTERM: draining running campaigns")
        finished = service.drain()
        _LOG.info(
            "drain %s", "complete" if finished else "timed out; exiting anyway"
        )
    except KeyboardInterrupt:
        _LOG.info("shutting down")
        service.stop(wait=False)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_fsck(args) -> int:
    from repro.core.fsck import fsck_path

    try:
        report = fsck_path(args.path, repair=args.repair)
    except ValueError as exc:
        _LOG.warning("%s", exc)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0 if report["unrecoverable"] == 0 else 1


_TERMINAL_JOB_STATES = ("complete", "partial", "failed", "cancelled")


def _http_json(url: str, data: Optional[bytes] = None) -> dict:
    import urllib.request

    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read().decode("utf-8"))


def _cmd_submit(args) -> int:
    import urllib.error
    import urllib.request

    spec = _load_spec_file(args.spec)  # fail locally before going remote
    base = args.url.rstrip("/")
    try:
        job = _http_json(base + "/campaigns", spec.to_json().encode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        _LOG.warning("submit rejected (%d): %s", exc.code, detail)
        return 1
    _LOG.info("submitted %s (fingerprint %s)", job["id"], spec.fingerprint())
    if not args.wait and args.download is None:
        return 0
    while True:
        detail = _http_json(f"{base}/campaigns/{job['id']}")
        if detail["state"] in _TERMINAL_JOB_STATES:
            break
        time.sleep(args.poll)
    _LOG.info("job %s: %s", job["id"], detail["state"])
    if args.download is not None:
        listing = _http_json(f"{base}/campaigns/{job['id']}/results")
        out = Path(args.download)
        out.mkdir(parents=True, exist_ok=True)
        for name in listing["files"]:
            with urllib.request.urlopen(
                f"{base}/campaigns/{job['id']}/results/{name}"
            ) as response:
                (out / name).write_bytes(response.read())
        _LOG.info("downloaded %d files to %s/", len(listing["files"]), out)
    return 0 if detail["state"] in ("complete", "partial") else 1


def _cmd_tables(args) -> int:
    dataset = _run_campaign_from_args(args)
    rows = [
        (r.persona, f"{r.summary.median:.3f}", f"{r.summary.mean:.3f}")
        for r in bid_summary_table(dataset)
    ]
    _LOG.info(
        "%s\n", render_table(["persona", "median CPM", "mean CPM"], rows, title="Table 5")
    )
    rows = [
        (p, f"{r.p_value:.3f}", f"{r.effect_size:.3f}", "yes" if r.significant else "no")
        for p, r in significance_vs_vanilla(dataset).items()
    ]
    _LOG.info(
        "%s\n", render_table(["persona", "p", "effect", "significant"], rows, title="Table 7")
    )
    sync = detect_cookie_syncing(dataset)
    _LOG.info(
        "%s",
        render_kv(
            {
                "partners syncing with Amazon": sync.partner_count,
                "downstream third parties": sync.downstream_count,
            },
            title="§5.5",
        ),
    )
    return 0


def _cmd_report(args) -> int:
    dataset = _run_campaign_from_args(args)
    if dataset.obs is None:
        _LOG.warning("observability was disabled; no summary available")
        return 1
    summary = dataset.obs.summary()
    rows = [
        (name, f"{entry['real_s']:.3f}", f"{entry['sim_s']:.1f}", entry["spans"])
        for name, entry in sorted(summary["phases"].items())
    ]
    _LOG.info(
        "%s\n",
        render_table(["phase", "real s", "sim s", "spans"], rows, title="campaign phases"),
    )
    _LOG.info("%s\n", render_kv(summary["counters"], title="counters"))
    if summary["gauges"]:
        _LOG.info("%s\n", render_kv(summary["gauges"], title="gauges"))
    manifest = summary["manifest"]
    if manifest is not None:
        _LOG.info(
            "%s",
            render_kv(
                {
                    "seed": manifest["seed_root"],
                    "config": manifest["config_fingerprint"],
                    "entrypoint": manifest["entrypoint"],
                    "workers": manifest["workers"],
                    "backend": manifest["backend"],
                    "faults": manifest["fault_profile"],
                    "personas": manifest["persona_count"],
                    "events": summary["events"],
                },
                title="run manifest",
            ),
        )
    return 0


def _cmd_defend(args) -> int:
    from repro.alexa import AlexaCloud, AmazonAccount, EchoDevice, Marketplace
    from repro.data import categories as cat
    from repro.data.domains import PIHOLE_FILTER_TEXT, build_endpoint_registry
    from repro.data.skill_catalog import build_catalog
    from repro.defenses import BlockingRouter, evaluate_blocking
    from repro.netsim.router import Router
    from repro.orgmap.filterlists import FilterList
    from repro.util.clock import SimClock

    seed = Seed(args.seed)
    router = Router(build_endpoint_registry(), SimClock())
    catalog = build_catalog(seed)
    cloud = AlexaCloud(catalog, router, router.clock, seed)
    marketplace = Marketplace(catalog, cloud)
    blocking = BlockingRouter(router, FilterList.from_text(PIHOLE_FILTER_TEXT))
    account = AmazonAccount(email="defend@persona.example.com", persona="defend")
    device = EchoDevice("echo-defend", account, blocking, cloud, seed)
    skills = [s for s in catalog.top_skills(cat.FASHION, 50) if s.active]
    evaluation = evaluate_blocking(device, marketplace, skills, blocking)
    for spec in skills:
        device.background_sync(list(spec.amazon_endpoints))
    _LOG.info(
        "%s",
        render_kv(
            {
                "skills functional": f"{evaluation.skills_functional}/{evaluation.skills_run}",
                "breakage rate": f"{100 * evaluation.breakage_rate:.1f}%",
                "tracking requests blocked": blocking.report.blocked_total,
            },
            title="selective blocking",
        ),
    )
    return 0


def _cmd_policheck(args) -> int:
    from repro.core.compliance import analyze_compliance, policy_availability
    from repro.data import datatypes as dt

    config = ExperimentConfig(
        pre_iterations=0,
        post_iterations=1,
        crawl_sites=1,
        prebid_discovery_target=2,
        audio_hours=0.1,
    )
    dataset = _run_campaign_from_args(args, config=config)
    world = dataset.world
    availability = policy_availability(dataset)
    _LOG.info(
        "%s\n",
        render_kv(
            {
                "skills": availability.total_skills,
                "policy links": availability.with_link,
                "downloadable": availability.downloadable,
                "generic (no Amazon mention)": availability.generic,
            },
            title="§7.1",
        ),
    )
    compliance = analyze_compliance(
        dataset,
        world.corpus,
        world.org_resolver(),
        world.org_categories(),
        include_platform_policy=args.with_amazon_policy,
    )
    rows = [
        (
            data_type,
            counts.get("clear", 0),
            counts.get("vague", 0),
            counts.get("omitted", 0),
            counts.get("no policy", 0),
        )
        for data_type in dt.ALL_DATA_TYPES
        for counts in [compliance.datatype_table.get(data_type, {})]
    ]
    _LOG.info(
        "%s",
        render_table(
            ["data type", "clear", "vague", "omitted", "no policy"],
            rows,
            title="Table 13",
        ),
    )
    return 0


def _cmd_sync(args) -> int:
    dataset = _run_campaign_from_args(args)
    analysis = detect_cookie_syncing(dataset)
    _LOG.info(
        "%s",
        render_kv(
            {
                "sync events": len(analysis.events),
                "partners syncing with Amazon": analysis.partner_count,
                "Amazon outbound syncs": len(analysis.amazon_outbound_targets),
                "downstream third parties": analysis.downstream_count,
            },
            title="§5.5 cookie syncing",
        ),
    )
    return 0


def _cmd_audio(args) -> int:
    from repro.adtech.audio import AudioAdServer
    from repro.core.adcontent import extract_audio_ads, transcribe_session
    from repro.data import categories as cat

    server = AudioAdServer(Seed(args.seed).derive("audio"))
    rows = []
    for skill in ("Amazon Music", "Spotify", "Pandora"):
        for persona in (cat.CONNECTED_CAR, cat.FASHION, cat.VANILLA):
            session = server.stream(skill, persona, hours=args.hours)
            brands = extract_audio_ads(transcribe_session(session))
            rows.append((skill, persona, len(brands)))
    _LOG.info(
        "%s", render_table(["skill", "persona", "ads"], rows, title="§5.4 audio ads")
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(quiet=getattr(args, "quiet", False))
    if args.command == "version":
        _LOG.info("%s", __version__)
        return 0
    if getattr(args, "storage_faults", "none") != "none":
        # Harness-level, not campaign-shaping: the plan lives in the
        # process (and, via propagate, in spawned workers), never in the
        # spec — which is why it composes with --spec and never touches
        # the config fingerprint.
        from repro.core.iosim import install_storage_faults

        install_storage_faults(
            args.storage_faults,
            seed=getattr(args, "seed", 42),
            propagate=True,
        )
    handlers = {
        "run": _cmd_run,
        "timeline": _cmd_timeline,
        "serve": _cmd_serve,
        "fsck": _cmd_fsck,
        "submit": _cmd_submit,
        "tables": _cmd_tables,
        "report": _cmd_report,
        "policheck": _cmd_policheck,
        "sync": _cmd_sync,
        "audio": _cmd_audio,
        "defend": _cmd_defend,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
