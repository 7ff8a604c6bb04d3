"""Simulated Amazon Echo ecosystem: devices, cloud, marketplace, DSAR.

The *world side* of the reproduction — what the paper audits.  The Echo
device emits only TLS-opaque traffic; the instrumented AVS Echo exposes a
pre-encryption plaintext log; the cloud mediates every skill interaction
and feeds the interest profiler behind Amazon's ad targeting.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "AVSEcho": "device",
        "CertificationChecker": "certification",
        "CertificationResult": "certification",
        "PolicyViolation": "certification",
        "audit_certified_skills": "certification",
        "AccountState": "cloud",
        "AdvertisingInterestsFile": "dsar",
        "AlexaCloud": "cloud",
        "AmazonAccount": "account",
        "DataExport": "dsar",
        "DataRequestPortal": "dsar",
        "Directive": "skill_backend",
        "EchoDevice": "device",
        "InstallReceipt": "marketplace",
        "InteractionRecord": "cloud",
        "InterestProfile": "profiler",
        "InterestProfiler": "profiler",
        "Marketplace": "marketplace",
        "PlaintextRecord": "device",
        "SkillBackend": "skill_backend",
        "SkillListing": "marketplace",
        "SkillResult": "skill_backend",
        "SpeakerProfile": "voice_traits",
        "TraitInference": "voice_traits",
        "Transcription": "voice",
        "traits_exposed": "voice_traits",
        "VOICE_ENDPOINT": "cloud",
        "VoiceFrontend": "voice",
        "WAKE_WORDS": "voice",
    },
)
