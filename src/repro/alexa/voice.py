"""Voice frontend: wake word detection and speech transcription.

The Echo only records after the wake word (§2.2), but — as prior work
shows (and the paper cites) — devices misactivate.  The simulated ASR adds
a small word-error rate so downstream consumers cannot assume perfect
transcripts, mirroring the paper's use of automated transcription plus
manual review for audio ads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.util.rng import Seed, StreamFamily

__all__ = ["WAKE_WORDS", "VoiceFrontend", "Transcription"]

WAKE_WORDS: Tuple[str, ...] = ("alexa", "echo", "computer")

#: Phonetically confusable word pairs used to inject ASR errors.
_CONFUSIONS = {
    "four": "for",
    "to": "two",
    "there": "their",
    "by": "buy",
    "whether": "weather",
    "right": "write",
}


@dataclass(frozen=True)
class Transcription:
    """Result of transcribing one voice capture."""

    text: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range: {self.confidence}")


class VoiceFrontend:
    """Wake-word gate + simulated cloud ASR."""

    def __init__(
        self,
        seed: Seed,
        word_error_rate: float = 0.02,
        misactivation_rate: float = 0.005,
    ) -> None:
        if not 0.0 <= word_error_rate <= 1.0:
            raise ValueError("word_error_rate must be in [0, 1]")
        if not 0.0 <= misactivation_rate <= 1.0:
            raise ValueError("misactivation_rate must be in [0, 1]")
        self._rng = seed.rng("voice", "asr")
        self._streams = StreamFamily(seed, "voice", "asr")
        self.word_error_rate = word_error_rate
        self.misactivation_rate = misactivation_rate
        self.misactivations = 0

    def _draw(self, speaker: Optional[str]) -> float:
        """The next noise draw for one speaker (device/customer).

        The frontend serves every device in the world; keying the error
        draws per speaker keeps one persona's transcripts independent of
        which other personas are talking — callers that pass no speaker
        share the legacy sequential stream.
        """
        if speaker is None:
            return self._rng.random()
        return self._streams.random(speaker)

    def detect_wake_word(
        self, utterance: str, speaker: Optional[str] = None
    ) -> Optional[str]:
        """Return the command after the wake word, or None if not awake.

        A small misactivation rate triggers recording without the wake
        word — the privacy failure mode documented in prior work [59].
        """
        words = utterance.strip().lower().split()
        if not words:
            return None
        if words[0].rstrip(",") in WAKE_WORDS:
            return " ".join(words[1:])
        if self._draw(speaker) < self.misactivation_rate:
            self.misactivations += 1
            return " ".join(words)
        return None

    def transcribe(self, speech: str, speaker: Optional[str] = None) -> Transcription:
        """Simulate cloud ASR with a small word-error rate."""
        words = speech.lower().split()
        out = []
        errors = 0
        for word in words:
            if word in _CONFUSIONS and self._draw(speaker) < self.word_error_rate:
                out.append(_CONFUSIONS[word])
                errors += 1
            else:
                out.append(word)
        confidence = max(0.0, 1.0 - errors / max(1, len(words)) - 0.01)
        return Transcription(text=" ".join(out), confidence=confidence)
