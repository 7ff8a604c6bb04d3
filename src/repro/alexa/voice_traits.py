"""Voice-derived speaker traits (the paper's motivating patent [69]).

Amazon holds a patent on "voice-based determination of physical and
emotional characteristics of users" — e.g. targeting cough-drop ads at
users whose voice indicates a cold.  The paper cites it as a key threat
(§1, §2.2) and argues the local-voice defense (§8.1) forecloses it:
text-only upload carries no voice signal to infer from.

This module models both sides:

* :class:`SpeakerProfile` — ground-truth characteristics the raw audio of
  one speaker carries (age band, mood, health markers, accent);
* :class:`TraitInference` — the patented platform-side inference, run
  over voice uploads; it recovers traits only when the upload actually
  contains audio characteristics;
* :func:`traits_exposed` — the auditor's view: which traits left the
  home, measured from a device's plaintext log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Tuple

from repro.util.rng import Seed

if TYPE_CHECKING:
    from repro.alexa.device import PlaintextRecord

__all__ = [
    "SpeakerProfile",
    "TraitInference",
    "traits_exposed",
    "AGE_BANDS",
    "MOODS",
    "HEALTH_MARKERS",
]

AGE_BANDS: Tuple[str, ...] = ("child", "young-adult", "adult", "senior")
MOODS: Tuple[str, ...] = ("neutral", "cheerful", "tired", "stressed")
HEALTH_MARKERS: Tuple[str, ...] = ("none", "cough", "congestion", "hoarseness")
_ACCENTS: Tuple[str, ...] = ("midwest", "southern", "new-england", "west-coast")


@dataclass(frozen=True)
class SpeakerProfile:
    """What a speaker's raw voice signal gives away."""

    age_band: str
    mood: str
    health_marker: str
    accent: str

    @classmethod
    def derive(cls, seed: Seed, speaker_id: str) -> "SpeakerProfile":
        """Deterministic per-speaker characteristics."""
        rng = seed.rng("speaker-profile", speaker_id)
        return cls(
            age_band=rng.choice(AGE_BANDS),
            mood=rng.choice(MOODS),
            health_marker=rng.choices(
                HEALTH_MARKERS, weights=(0.7, 0.12, 0.10, 0.08)
            )[0],
            accent=rng.choice(_ACCENTS),
        )

    def as_signal(self) -> Dict[str, str]:
        """The characteristics embedded in an audio upload."""
        return {
            "age_band": self.age_band,
            "mood": self.mood,
            "health_marker": self.health_marker,
            "accent": self.accent,
        }


#: Patent example: trait -> products an advertiser would target with it.
_TRAIT_PRODUCT_MAP: Mapping[Tuple[str, str], str] = {
    ("health_marker", "cough"): "Cough drops",
    ("health_marker", "congestion"): "Decongestant",
    ("health_marker", "hoarseness"): "Throat lozenges",
    ("mood", "tired"): "Energy drinks",
    ("mood", "stressed"): "Meditation app subscription",
    ("age_band", "senior"): "Hearing aids",
}


@dataclass
class TraitInference:
    """The patented platform-side inference over voice uploads.

    Confidence grows with corroborating uploads; a trait is *inferred*
    once it has been heard in at least ``min_observations`` recordings —
    the platform never infers anything from text-only commands.
    """

    min_observations: int = 3
    _observations: Dict[str, Dict[Tuple[str, str], int]] = field(default_factory=dict)

    def observe(self, customer_id: str, characteristics: Mapping[str, str]) -> None:
        """Ingest the characteristics carried by one voice upload."""
        per_customer = self._observations.setdefault(customer_id, {})
        for trait, value in characteristics.items():
            if trait == "health_marker" and value == "none":
                continue
            key = (trait, value)
            per_customer[key] = per_customer.get(key, 0) + 1

    def inferred_traits(self, customer_id: str) -> Dict[str, str]:
        """Traits inferred with enough corroboration."""
        inferred: Dict[str, str] = {}
        for (trait, value), count in self._observations.get(customer_id, {}).items():
            if count >= self.min_observations:
                inferred[trait] = value
        return inferred

    def targetable_products(self, customer_id: str) -> List[str]:
        """The patent's payoff: products targetable from voice traits."""
        traits = self.inferred_traits(customer_id)
        return sorted(
            product
            for (trait, value), product in _TRAIT_PRODUCT_MAP.items()
            if traits.get(trait) == value
        )


def traits_exposed(plaintext_log: Iterable[PlaintextRecord]) -> Dict[str, int]:
    """Auditor-side count of trait-bearing uploads in a device's tap.

    Returns trait-name → number of uploads carrying it.  Zero across the
    board is what the local-voice defense must achieve.
    """
    counts: Dict[str, int] = {}
    for record in plaintext_log:
        body = record.payload.get("body", {})
        characteristics = body.get("voice_characteristics")
        if not characteristics:
            continue
        for trait in characteristics:
            counts[trait] = counts.get(trait, 0) + 1
    return counts
