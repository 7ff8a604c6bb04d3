"""Possible defenses (paper §8.1), implemented and measurable.

* :mod:`repro.defenses.blocking` — router-level selective blocking of
  non-essential (advertising/tracking) skill traffic, after [72].
* :mod:`repro.defenses.local_voice` — on-device wake word + transcription
  so only text commands reach the platform, after Porcupine/Rhasspy.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "BlockReport": "blocking",
        "BlockingRouter": "blocking",
        "LocalProcessingEcho": "local_voice",
        "evaluate_blocking": "blocking",
        "voice_exposure": "local_voice",
    },
)
