"""The lazy package surface: every package ``__init__`` re-exports its
names through PEP 562 ``__getattr__``/``__dir__`` over one name→module
table (``repro._lazy_exports``), and imports a submodule only when one
of its names is first used.

The public surface must not move with the wiring: each package's
``__all__`` is pinned here to its value when the packages imported
eagerly.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SEED_ALL = {
    "repro": [
        "CampaignSpec", "ExperimentConfig", "Seed", "__version__", "execute_spec",
        "run_campaign",
    ],
    "repro.adtech": [
        "AdCreative", "AdServer", "AdTechWorld", "AdUnit", "AuctionContext",
        "AudioAdServer", "AudioSegment", "BIDDERS_PER_SLOT", "Bidder", "BidResponse",
        "PersonaState", "PrebidSession", "SLOT_FAILURE_RATE", "StreamSession",
        "WEB_SIGNAL_FRACTION", "register_publisher", "slot_id",
    ],
    "repro.alexa": [
        "AVSEcho", "CertificationChecker", "CertificationResult", "PolicyViolation",
        "audit_certified_skills", "AccountState", "AdvertisingInterestsFile",
        "AlexaCloud", "AmazonAccount", "DataExport", "DataRequestPortal", "Directive",
        "EchoDevice", "InstallReceipt", "InteractionRecord", "InterestProfile",
        "InterestProfiler", "Marketplace", "PlaintextRecord", "SkillBackend",
        "SkillListing", "SkillResult", "SpeakerProfile", "TraitInference",
        "Transcription", "traits_exposed", "VOICE_ENDPOINT", "VoiceFrontend",
        "WAKE_WORDS",
    ],
    "repro.core": [
        "AuditDataset", "AudioAdAnalysis", "ComplianceAnalysis",
        "CorruptSegmentError", "DisplayAdAnalysis",
        "ExperimentConfig", "ExperimentRunner", "FsckReport", "MannWhitneyResult",
        "Persona", "PersonaArtifacts", "PolicyAvailability", "PolicyFetch",
        "ProfilingAnalysis", "SegmentError", "SegmentStore", "ShardFailure",
        "ShardResult", "StorageFaultPlan", "StorageFaultProfile",
        "SupervisorPolicy", "SupervisorReport", "SyncAnalysis", "SyncEvent",
        "TrafficAnalysis", "WorkerFaultPlan", "World", "all_personas",
        "atomic_write_bytes", "analyze_audio_ads", "analyze_compliance",
        "analyze_display_ads", "analyze_profiling", "analyze_traffic",
        "bid_summary_table", "bids_on_slots", "build_world", "common_slots",
        "control_personas", "detect_cookie_syncing", "echo_vs_web_matrix",
        "effect_size_label", "extract_audio_ads", "figure3_series", "figure7_series",
        "fsck_path", "holiday_window_means", "install_storage_faults",
        "interest_personas", "mann_whitney_u", "partner_split",
        "persona_stream_records", "policy_availability", "quarantine_path",
        "rank_biserial", "representative_bids", "run_campaign", "run_segment_campaign",
        "run_validation_study", "scaled_roster", "shard_personas",
        "significance_vs_vanilla", "storage_faults", "summarize", "transcribe_session",
        "uninstall_storage_faults", "write_dataset_segments",
    ],
    "repro.data": [
        "calibration", "categories", "datatypes", "domains", "skill_catalog", "websites",
    ],
    "repro.defenses": [
        "BlockReport", "BlockingRouter", "LocalProcessingEcho", "evaluate_blocking",
        "voice_exposure",
    ],
    "repro.netsim": [
        "CaptureSession", "DEFAULT_RETRY_POLICY", "Direction", "DnsRecord", "DnsServer",
        "DnsTable", "Endpoint", "EndpointRegistry", "FAULT_PROFILES", "FaultDecision",
        "FaultPlan", "FaultProfile", "Flow", "FlowTable", "HttpRequest", "HttpResponse",
        "NetworkError", "Packet", "Protocol", "RetryPolicy", "Router", "ServiceHandler",
        "estimate_size", "flow_key", "registrable_domain",
    ],
    "repro.obs": [
        "Counter", "EVENT_SCHEMA_VERSION", "EventLog", "Gauge",
        "MANIFEST_SCHEMA_VERSION", "MERGE_POLICIES", "MetricsRegistry", "NULL_OBS",
        "NullObs", "ObsCollector", "RunManifest", "SPAN_SCHEMA_VERSION", "Span",
        "Tracer", "event_line", "make_event_record", "merge_collectors",
    ],
    "repro.orgmap": [
        "Attribution", "EntityDatabase", "FilterList", "FilterRule", "OrgEntity",
        "OrgResolver", "REDACTED", "UNKNOWN_ORG", "WhoisRecord", "WhoisService",
        "parse_rules",
    ],
    "repro.policies": [
        "AMAZON_POLICY_TEXT", "PHRASING_NOISE_RATE", "PolicyCorpus", "PolicyDocument",
        "build_corpus",
    ],
    "repro.policies.policheck": [
        "CODER_NOISE_RATE", "DISCLOSURE_CLASSES", "DataFlow", "DataOntology",
        "Disclosure", "EntityOntology", "PolicheckAnalyzer", "TermMatch",
        "ValidationReport", "default_data_ontology", "default_entity_ontology",
        "extract_datatype_flows", "extract_endpoint_flows", "human_code_flows",
        "score_multiclass",
    ],
    "repro.service": [
        "AuditService", "CampaignScheduler", "DrainingError", "JOB_SCHEMA_VERSION",
        "JOB_STATES", "Job", "JobEventWriter", "JobStore", "QueueFullError",
        "SubmitError", "TERMINAL_STATES", "worker_cost",
    ],
    "repro.util": [
        "Seed", "SimClock", "IdFactory", "stable_hash",
    ],
    "repro.web": [
        "AdRecord", "BidRecord", "Browser", "BrowserProfile", "CookieJar",
        "CrawlResult", "LoggedRequest", "OpenWPMCrawler", "WebUniverse",
        "discover_prebid_sites",
    ],
}
#: Packages whose ``__init__`` imports nothing until a name is used.
#: ``repro.data`` re-exports its submodules themselves and stays eager.
LAZY = sorted(set(SEED_ALL) - {"repro.data"})


@pytest.fixture(params=sorted(SEED_ALL))
def package(request):
    return importlib.import_module(request.param)


def test_all_is_pinned(package):
    assert list(package.__all__) == SEED_ALL[package.__name__]


def test_every_name_resolves_through_getattr(package):
    for name in package.__all__:
        value = getattr(package, name)
        assert value is not None, name
        assert getattr(package, name) is value


def test_star_import_matches_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)  # noqa: S102 - test-only
    del namespace["__builtins__"]
    assert set(namespace) == set(package.__all__)


def test_dir_lists_every_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018 - the access is the test
    assert not hasattr(package, "no_such_name")


def test_resolved_names_are_cached_in_the_package():
    import repro.core as core

    value = core.SegmentStore
    assert core.__dict__["SegmentStore"] is value


def test_importing_a_package_loads_none_of_its_submodules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys\nfor name in {LAZY!r}:\n    __import__(name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == repr(LAZY)
