"""Flat-memory smoke: peak memory must not scale with roster size.

The segment-store path writes each shard batch to disk and analyzes the
campaign as single-pass folds over k-way-merged streams, so its peak
heap is bounded by one batch plus the analysis aggregates — never by
the roster.  This script runs the same tiny per-persona workload at
``--small-scale`` (the paper's 13-persona roster) and ``--large-scale``
(139 personas by default), measures the tracemalloc peak of each
campaign+export, and fails when the large run's peak exceeds
``--max-ratio`` (default 1.5) times the small run's.

Usage::

    PYTHONPATH=src python benchmarks/memory_smoke.py \
        --out bench-memory-current.json

The script is its own gate: it exits 1 when the ratio exceeds
``--max-ratio``.  ``--out`` writes the measurements as a JSON report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.campaign import run_segment_campaign  # noqa: E402
from repro.core.experiment import ExperimentConfig  # noqa: E402
from repro.core.export import export_segment_store  # noqa: E402
from repro.util.rng import Seed  # noqa: E402

#: Per-persona workload for the smoke — small enough that a 139-persona
#: roster finishes in CI, large enough that every stream is non-empty.
SMOKE_WORKLOAD = dict(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


def _campaign_peak_bytes(scale: int, batch: int, root: Path) -> tuple:
    """Run one segment campaign + export; return (personas, peak bytes)."""
    import gc

    config = ExperimentConfig(roster_scale=scale, **SMOKE_WORKLOAD)
    gc.collect()
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
    store = run_segment_campaign(
        config,
        Seed(42),
        store_dir=root / f"scale-{scale}" / "segments",
        batch_personas=batch,
    )
    counts = export_segment_store(store, root / f"scale-{scale}" / "out")
    _, peak = tracemalloc.get_traced_memory()
    assert counts["bids.csv"] > 0, "smoke workload produced no bids"
    return len(store.roster), peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="write the JSON report to PATH")
    parser.add_argument("--small-scale", type=int, default=1,
                        help="baseline roster scale (default 1 = 13 personas)")
    parser.add_argument("--large-scale", type=int, default=15,
                        help="stress roster scale (default 15 = 139 personas)")
    parser.add_argument("--max-ratio", type=float, default=1.5,
                        help="allowed large/small peak ratio (default 1.5)")
    parser.add_argument("--batch-personas", type=int, default=4,
                        help="personas per segment batch, both runs "
                        "(default 4) — peak must track this, not roster")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-memory-smoke-") as tmp:
        root = Path(tmp)
        # Untraced warm-up at BOTH scales: one-time process-global costs
        # are charged here, so the traced runs below compare steady-state
        # campaign working sets, which is what the flat-memory claim is
        # about.  The large run brings CPython's interned-identifier
        # table to its final size (pathlib interns every path component,
        # and a table rehash transiently holds both the old and new
        # ~MB-sized tables); only the small roster reaches the lazy
        # imports of small-sample code (``scipy.special`` for exact
        # Mann-Whitney p-values, ``numpy.ma`` for medians), about 10 MiB
        # of module objects that would otherwise land in a traced peak.
        for scale in (args.small_scale, args.large_scale):
            _campaign_peak_bytes(scale, args.batch_personas, root / "warm")
        tracemalloc.start()
        small_n, small_peak = _campaign_peak_bytes(
            args.small_scale, args.batch_personas, root
        )
        large_n, large_peak = _campaign_peak_bytes(
            args.large_scale, args.batch_personas, root
        )
    tracemalloc.stop()

    ratio = large_peak / small_peak
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "memory_smoke": {
            "ratio": round(ratio, 4),
            "small_personas": small_n,
            "large_personas": large_n,
            "small_peak_mb": round(small_peak / 2**20, 2),
            "large_peak_mb": round(large_peak / 2**20, 2),
            "ru_maxrss_mb": round(maxrss_mb, 1),
        }
    }
    print(
        f"peak heap: {small_n} personas -> {small_peak / 2**20:.2f} MiB, "
        f"{large_n} personas -> {large_peak / 2**20:.2f} MiB "
        f"(ratio {ratio:.2f}x, process ru_maxrss {maxrss_mb:.0f} MiB)"
    )
    if args.out:
        args.out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report written to {args.out}")
    if ratio > args.max_ratio:
        print(
            f"FLAT-MEMORY VIOLATION: {ratio:.2f}x exceeds the "
            f"{args.max_ratio:.2f}x ceiling — the segment path is "
            "accumulating per-persona state",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
