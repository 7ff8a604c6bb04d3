"""The auditing framework — the paper's primary contribution.

Orchestrates the measurement campaign (:mod:`repro.core.experiment`) and
implements every analysis of §4–§7: traffic attribution, bid statistics,
ad-content labelling, cookie-sync detection, DSAR profiling, and policy
compliance.
"""

from repro.core.adcontent import (
    AudioAdAnalysis,
    DisplayAdAnalysis,
    analyze_audio_ads,
    analyze_display_ads,
    extract_audio_ads,
    transcribe_session,
)
from repro.core.bids import (
    bid_summary_table,
    bids_on_slots,
    common_slots,
    echo_vs_web_matrix,
    figure3_series,
    figure7_series,
    holiday_window_means,
    partner_split,
    representative_bids,
    significance_vs_vanilla,
)
from repro.core.compliance import (
    ComplianceAnalysis,
    PolicyAvailability,
    analyze_compliance,
    policy_availability,
    run_validation_study,
)
from repro.core.cache import DatasetCache
from repro.core.campaign import run_campaign, run_segment_campaign
from repro.core.checkpoint import (
    CheckpointError,
    CorruptShardError,
    ShardJournal,
    atomic_write_bytes,
    quarantine_path,
)
from repro.core.fsck import FsckReport, fsck_path
from repro.core.iosim import (
    StorageFaultPlan,
    StorageFaultProfile,
    install_storage_faults,
    storage_faults,
    uninstall_storage_faults,
)
from repro.core.experiment import (
    AuditDataset,
    ExperimentConfig,
    ExperimentRunner,
    PersonaArtifacts,
    PolicyFetch,
)
from repro.core.parallel import (
    ShardFailure,
    ShardResult,
    SupervisorPolicy,
    SupervisorReport,
    WorkerFaultPlan,
    shard_personas,
)
from repro.core.personas import (
    Persona,
    all_personas,
    control_personas,
    interest_personas,
    scaled_roster,
)
from repro.core.profiling import ProfilingAnalysis, analyze_profiling
from repro.core.segments import (
    CorruptSegmentError,
    SegmentError,
    SegmentStore,
    persona_stream_records,
    write_dataset_segments,
)
from repro.core.stats import (
    MannWhitneyResult,
    effect_size_label,
    mann_whitney_u,
    rank_biserial,
    summarize,
)
from repro.core.syncing import SyncAnalysis, SyncEvent, detect_cookie_syncing
from repro.core.traffic import TrafficAnalysis, analyze_traffic
from repro.core.world import World, build_world

__all__ = [
    "AuditDataset",
    "AudioAdAnalysis",
    "CheckpointError",
    "ComplianceAnalysis",
    "CorruptSegmentError",
    "CorruptShardError",
    "DatasetCache",
    "DisplayAdAnalysis",
    "ExperimentConfig",
    "ExperimentRunner",
    "FsckReport",
    "MannWhitneyResult",
    "Persona",
    "PersonaArtifacts",
    "PolicyAvailability",
    "PolicyFetch",
    "ProfilingAnalysis",
    "SegmentError",
    "SegmentStore",
    "ShardFailure",
    "ShardJournal",
    "ShardResult",
    "StorageFaultPlan",
    "StorageFaultProfile",
    "SupervisorPolicy",
    "SupervisorReport",
    "SyncAnalysis",
    "SyncEvent",
    "TrafficAnalysis",
    "WorkerFaultPlan",
    "World",
    "all_personas",
    "atomic_write_bytes",
    "analyze_audio_ads",
    "analyze_compliance",
    "analyze_display_ads",
    "analyze_profiling",
    "analyze_traffic",
    "bid_summary_table",
    "bids_on_slots",
    "build_world",
    "common_slots",
    "control_personas",
    "detect_cookie_syncing",
    "echo_vs_web_matrix",
    "effect_size_label",
    "extract_audio_ads",
    "figure3_series",
    "figure7_series",
    "fsck_path",
    "holiday_window_means",
    "install_storage_faults",
    "interest_personas",
    "mann_whitney_u",
    "partner_split",
    "persona_stream_records",
    "policy_availability",
    "quarantine_path",
    "rank_biserial",
    "representative_bids",
    "run_campaign",
    "run_segment_campaign",
    "run_validation_study",
    "scaled_roster",
    "shard_personas",
    "significance_vs_vanilla",
    "storage_faults",
    "summarize",
    "transcribe_session",
    "uninstall_storage_faults",
    "write_dataset_segments",
]
