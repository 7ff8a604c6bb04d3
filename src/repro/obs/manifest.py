"""The run manifest: what produced this trace, and at what cost.

One manifest per campaign run.  The deterministic half (seed, config
fingerprint, worker topology, entrypoint) answers "can I reproduce this
artifact?"; the real-time half (per-phase host seconds) answers "what
did it cost?" and is kept under a separate ``real`` key so reproducible
exports can drop it wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["RunManifest", "MANIFEST_SCHEMA_VERSION"]

#: Bump when the manifest layout changes shape.
#: v2: added ``fault_profile`` (network fault injection).
#: v3: added ``shard_attempts`` / ``missing_personas`` / ``resumed`` /
#: ``checkpointed`` (crash-safe supervisor).
#: v4: dropped ``cache_hit``, ``resumed``, ``checkpointed`` and the
#: ``"cached"`` entrypoint with the dataset cache and the shard
#: checkpoint journal (resume is the segment store's coverage).
MANIFEST_SCHEMA_VERSION = 4


@dataclass
class RunManifest:
    """Provenance record for one campaign run."""

    seed_root: int
    config_fingerprint: str
    #: ``"serial"`` | ``"parallel"``.
    entrypoint: str
    workers: int = 1
    backend: str = "inline"
    #: Persona names per shard, in shard order (one shard when serial).
    shards: Tuple[Tuple[str, ...], ...] = ()
    package_version: str = ""
    #: Normalised network fault profile the run was driven under
    #: (``"none"`` / ``"mild"`` / ``"harsh"`` / ``"rate:<r>"``) — part of
    #: the deterministic half: same seed + same profile reproduces the run.
    fault_profile: str = "none"
    #: Supervisor attempt history per shard, in shard order: each inner
    #: tuple lists that shard's outcomes (``"ok"`` / ``"crash"`` /
    #: ``"hang"`` / ``"poison"`` / ``"enospc-degrade"``) in attempt order.
    #: Empty for serial runs.
    shard_attempts: Tuple[Tuple[str, ...], ...] = ()
    #: Personas absent from a degraded (partial) merge, in plan order.
    #: A complete run always has an empty tuple here.
    missing_personas: Tuple[str, ...] = ()
    #: Host seconds per campaign phase — never reproducible.
    phase_real_seconds: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.entrypoint not in {"serial", "parallel"}:
            raise ValueError(f"invalid entrypoint: {self.entrypoint!r}")
        self.shards = tuple(tuple(names) for names in self.shards)
        self.shard_attempts = tuple(
            tuple(outcomes) for outcomes in self.shard_attempts
        )
        self.missing_personas = tuple(self.missing_personas)

    @property
    def persona_count(self) -> int:
        return sum(len(shard) for shard in self.shards)

    # ------------------------------------------------------------------ #

    def to_dict(self, include_real: bool = True) -> Dict[str, object]:
        """JSON-ready form; ``include_real=False`` keeps only the
        seed-reproducible fields."""
        payload: Dict[str, object] = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "entrypoint": self.entrypoint,
            "workers": self.workers,
            "backend": self.backend,
            "shards": [list(names) for names in self.shards],
            "persona_count": self.persona_count,
            "package_version": self.package_version,
            "fault_profile": self.fault_profile,
            "shard_attempts": [list(outcomes) for outcomes in self.shard_attempts],
            "missing_personas": list(self.missing_personas),
        }
        if include_real:
            payload["real"] = {
                "phase_seconds": {
                    name: round(seconds, 6)
                    for name, seconds in sorted(self.phase_real_seconds.items())
                }
            }
        return payload
