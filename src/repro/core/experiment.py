"""The end-to-end auditing experiment (paper §3, Figure 1).

Timeline (simulated dates mirror the paper's December-2021 campaign):

1.  **Setup** — accounts, Echo + AVS Echo per Echo persona, fresh browser
    profile per persona, unique IPs, companion-app login.
2.  **Pre-interaction crawls** — 6 iterations (Dec 10–20) over the
    prebid crawl set, for Figure 3a / Table 6's no-interaction columns.
3.  **Skill installation** — top-50 per interest persona; DSAR #1.
4.  **Interaction wave 1** — per-skill tcpdump-bracketed sessions on the
    Echo (encrypted captures) and AVS Echo (plaintext log); DSAR #2.
5.  **Post-interaction crawls** — 25 iterations (Dec 27 – late Jan),
    collecting bids, rendered ads, and the request log.
6.  **Audio streaming** — 6 h × 3 skills × 3 personas.
7.  **Interaction wave 2 + DSAR #3** (and the re-request that reproduces
    the missing-interest-file quirk).
8.  **Policy collection** — the Puppeteer-style policy crawl.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.adtech.audio import StreamSession
from repro.alexa.account import AmazonAccount
from repro.alexa.device import AVSEcho, EchoDevice, PlaintextRecord
from repro.alexa.dsar import DataExport
from repro.core.personas import Persona, scaled_roster
from repro.core.world import World, build_config_world
from repro.data import categories as cat
from repro.data.skill_catalog import STREAMING_SKILLS
from repro.data.websites import WEB_PRIMING_SITES, WebsiteSpec
from repro.netsim.faults import FaultProfile
from repro.netsim.http import HttpRequest, HttpResponse
from repro.netsim.pcap import CaptureSession
from repro.netsim.router import NetworkError
from repro.obs import NULL_OBS, ObsCollector
from repro.policies.corpus import PolicyDocument
from repro.util.rng import Seed
from repro.web.browser import Browser, BrowserProfile
from repro.web.openwpm import AdRecord, BidRecord, OpenWPMCrawler, discover_prebid_sites
from repro.web.browser import LoggedRequest

__all__ = [
    "ExperimentConfig",
    "config_fingerprint",
    "PersonaArtifacts",
    "PolicyFetch",
    "AuditDataset",
    "ExperimentRunner",
]

_DAY = 86400.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs; defaults reproduce the paper's campaign."""

    skills_per_persona: int = 50
    pre_iterations: int = 6
    post_iterations: int = 25
    crawl_sites: int = 20
    prebid_discovery_target: int = 200
    audio_hours: float = 6.0
    audio_personas: Tuple[str, ...] = (cat.CONNECTED_CAR, cat.FASHION, cat.VANILLA)
    second_interaction_wave: bool = True
    run_avs_echo: bool = True
    #: Network fault profile: ``"none"``, ``"mild"``, ``"harsh"``, or a
    #: float rate (e.g. ``"0.05"``).  See :mod:`repro.netsim.faults`.
    fault_profile: str = "none"
    #: Interest-persona replication factor: the default roster becomes
    #: :func:`repro.core.personas.scaled_roster` of this scale
    #: (``9 * roster_scale + 4`` personas).  ``1`` is the paper's
    #: 13-persona campaign; larger scales drive the flat-memory segment
    #: store (see :mod:`repro.core.segments`).
    roster_scale: int = 1
    #: Timeline-epoch mutations (:mod:`repro.core.timeline`).  All of
    #: them default to "no mutation", so a plain campaign is epoch 0 of
    #: every timeline.  Because they are config fields they participate
    #: in :func:`config_fingerprint` — two epochs whose effective configs
    #: match share a segment-store directory and reuse each other's
    #: covered personas for free.
    #:
    #: Calendar shift in whole days: the world clock's epoch becomes
    #: ``PAPER_EPOCH + epoch_offset_days``, so
    #: :func:`repro.data.calibration.holiday_factor` seasonality (Table
    #: 6) varies across timeline epochs while the day-relative crawl
    #: schedule is untouched.
    epoch_offset_days: int = 0
    #: Bidder-roster churn: ``bidders_entered`` appends that many new
    #: partner DSPs (``edsp00``, ``edsp01``, …); ``bidders_exited``
    #: removes the last that many original partners.  Slot assignment
    #: samples from the whole roster, so any churn dirties every persona.
    bidders_entered: int = 0
    bidders_exited: int = 0
    #: Skill-catalog churn tokens, ``"<category>:<salt>"``: re-draw the
    #: review counts of that category's skills with a salt-keyed stream,
    #: reshuffling its ``top_skills`` ranking while every other
    #: category's skills — and every other seeded draw — stay untouched.
    catalog_churn: Tuple[str, ...] = ()
    #: Interest-drift tokens, ``"<persona>:<shift>"``: slide that
    #: persona's skill window down its category ranking by ``shift``
    #: positions (installs skills ranked ``shift .. shift+n``), leaving
    #: every other persona's artifacts untouched.
    interest_drift: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.skills_per_persona < 1 or self.skills_per_persona > 50:
            raise ValueError("skills_per_persona must be in [1, 50]")
        if self.pre_iterations < 0 or self.post_iterations < 1:
            raise ValueError("iteration counts out of range")
        if self.pre_iterations > 6:
            raise ValueError(
                f"pre_iterations must be <= 6, got {self.pre_iterations}: "
                "pre-interaction crawls run every other day from day 0 and "
                "must finish before the day-11 install phase"
            )
        if self.crawl_sites < 1:
            raise ValueError(f"crawl_sites must be >= 1, got {self.crawl_sites}")
        if self.prebid_discovery_target < 1:
            raise ValueError(
                "prebid_discovery_target must be >= 1, got "
                f"{self.prebid_discovery_target}"
            )
        if self.crawl_sites > self.prebid_discovery_target:
            raise ValueError(
                f"crawl_sites ({self.crawl_sites}) cannot exceed "
                f"prebid_discovery_target ({self.prebid_discovery_target}); "
                "the crawl set is a prefix of the discovered prebid sites"
            )
        if self.audio_hours <= 0:
            raise ValueError(f"audio_hours must be positive, got {self.audio_hours}")
        if not isinstance(self.roster_scale, int) or isinstance(
            self.roster_scale, bool
        ):
            raise ValueError(
                f"roster_scale must be an int, got {type(self.roster_scale).__name__}"
            )
        if self.roster_scale < 1:
            raise ValueError(f"roster_scale must be >= 1, got {self.roster_scale}")
        # Normalise to a tuple so configs hash/fingerprint consistently,
        # then validate each member: a typo'd category used to silently
        # yield zero audio sessions.
        object.__setattr__(self, "audio_personas", tuple(self.audio_personas))
        valid_audio = set(cat.ALL_CATEGORIES) | {cat.VANILLA}
        for name in self.audio_personas:
            if name not in valid_audio:
                raise ValueError(
                    f"unknown audio persona {name!r}: audio streaming needs an "
                    f"Echo-holding persona, one of {sorted(valid_audio)}"
                )
        # Validate + normalise (e.g. "MILD" -> "mild", "0.10" ->
        # "rate:0.1") so equivalent profiles fingerprint identically.
        object.__setattr__(
            self, "fault_profile", FaultProfile.parse(self.fault_profile).name
        )
        for name in ("epoch_offset_days", "bidders_entered", "bidders_exited"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{name} must be an int, got {type(value).__name__}"
                )
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        object.__setattr__(self, "catalog_churn", tuple(self.catalog_churn))
        for token in self.catalog_churn:
            category, sep, salt = str(token).partition(":")
            if not sep or not salt or category not in cat.ALL_CATEGORIES:
                raise ValueError(
                    f"catalog_churn token {token!r} must be "
                    f"'<category>:<salt>' with a category from "
                    f"{sorted(cat.ALL_CATEGORIES)}"
                )
        object.__setattr__(self, "interest_drift", tuple(self.interest_drift))
        for token in self.interest_drift:
            persona, sep, shift = str(token).partition(":")
            if not sep or not persona or not shift.isdigit() or int(shift) < 1:
                raise ValueError(
                    f"interest_drift token {token!r} must be "
                    "'<persona>:<shift>' with an integer shift >= 1"
                )


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable digest of every config field (new fields change the key)."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class PersonaArtifacts:
    """Everything the auditor collected for one persona."""

    persona: Persona
    profile_id: str
    account: Optional[AmazonAccount] = None
    skill_captures: Dict[str, CaptureSession] = field(default_factory=dict)
    install_failures: List[str] = field(default_factory=list)
    avs_plaintext: List[PlaintextRecord] = field(default_factory=list)
    bids: List[BidRecord] = field(default_factory=list)
    ads: List[AdRecord] = field(default_factory=list)
    request_log: List[LoggedRequest] = field(default_factory=list)
    loaded_slots: Set[str] = field(default_factory=set)
    audio_sessions: List[StreamSession] = field(default_factory=list)
    dsar_exports: List[DataExport] = field(default_factory=list)
    #: This persona's slice of the policy crawl (interest personas only).
    #: ``AuditDataset.policy_fetches`` is the roster-ordered concatenation
    #: of these; the per-persona attribution is what lets segment-store
    #: workers emit policy records at any batch granularity.
    policy_fetches: List["PolicyFetch"] = field(default_factory=list)


@dataclass(frozen=True)
class PolicyFetch:
    """Outcome of the policy crawl for one skill (§7.1)."""

    skill_id: str
    url: Optional[str]
    document: Optional[PolicyDocument]

    @property
    def has_link(self) -> bool:
        return self.url is not None

    @property
    def downloaded(self) -> bool:
        return self.document is not None


@dataclass
class AuditDataset:
    """The full artifact bundle the analyses run on."""

    personas: Dict[str, PersonaArtifacts]
    prebid_sites: List[WebsiteSpec]
    crawl_sites: List[WebsiteSpec]
    policy_fetches: List[PolicyFetch]
    #: World handle — used by benchmarks/tests to compare measured vs
    #: generative truth.  Analysis code must not consult it.
    world: World = None  # type: ignore[assignment]
    #: Wall-clock seconds per campaign phase (diagnostics only — never
    #: exported, so serial and parallel runs stay export-identical).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Personas the campaign expected but could not deliver — non-empty
    #: only for an explicitly-degraded parallel merge
    #: (``on_shard_failure="degrade"`` after a shard exhausted its retry
    #: budget).  A complete run always has an empty tuple, so partial
    #: data is never silently indistinguishable from complete data.
    missing_personas: Tuple[str, ...] = ()
    #: Observability collector for the run that produced this dataset
    #: (spans, metrics, events, manifest) — None when tracing was off.
    #: Never consulted by exports or analyses.
    obs: Optional[ObsCollector] = None

    def artifacts(self, persona_name: str) -> PersonaArtifacts:
        return self.personas[persona_name]

    @property
    def interest_personas(self) -> List[PersonaArtifacts]:
        return [a for a in self.personas.values() if a.persona.kind == "interest"]

    @property
    def vanilla(self) -> PersonaArtifacts:
        return self.personas[cat.VANILLA]


class ExperimentRunner:
    """Drives the measurement campaign against a world.

    ``personas`` selects the persona subset this runner drives — the
    shard unit of the parallel runner (:mod:`repro.core.parallel`).  The
    default is the paper's full roster.  Every phase method takes the
    subset explicitly, and per-persona artifacts are independent of which
    other personas share the world (all randomness is keyed by
    :class:`~repro.util.rng.Seed` substreams, never by call order), so a
    sharded campaign merges back into the serial result.
    """

    def __init__(
        self,
        world: World,
        config: ExperimentConfig = ExperimentConfig(),
        personas: Optional[Sequence[Persona]] = None,
        obs: Optional[ObsCollector] = None,
    ) -> None:
        self.world = world
        self.config = config
        self._personas = (
            list(personas)
            if personas is not None
            else scaled_roster(config.roster_scale)
        )
        if not self._personas:
            raise ValueError("persona subset must not be empty")
        names = [p.name for p in self._personas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate personas in subset: {names}")
        self.obs = obs if obs is not None else NULL_OBS
        if self.obs.enabled:
            # Simulated timestamps come from the world clock; counters in
            # the world's services (DSAR portal, ad exchange) report here.
            self.obs.bind_clock(world.clock)
            world.dsar.obs = self.obs
            world.adtech.obs = self.obs
            world.router.obs = self.obs
        self.timings: Dict[str, float] = {}
        self._artifacts: Dict[str, PersonaArtifacts] = {}
        self._devices: Dict[str, EchoDevice] = {}
        self._avs_devices: Dict[str, AVSEcho] = {}
        self._profiles: Dict[str, BrowserProfile] = {}
        self._crawlers: Dict[str, OpenWPMCrawler] = {}

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #

    def _phase(self, name: str, fn, *args, det: bool = False, **attrs):
        """Run one phase under a ``phase:<name>`` span, accumulating its
        host wall-clock under ``name`` (several spans can share a key —
        the three DSAR rounds all land in ``timings["dsar"]``)."""
        started = time.perf_counter()
        with self.obs.span(f"phase:{name}", det=det, **attrs):
            try:
                return fn(*args)
            finally:
                elapsed = time.perf_counter() - started
                self.timings[name] = self.timings.get(name, 0.0) + elapsed
                self.obs.event("phase.end", phase=name)

    def run(self) -> AuditDataset:
        personas = self._personas
        total_started = time.perf_counter()
        self.obs.event(
            "campaign.start",
            seed_root=self.world.seed.root,
            personas=len(personas),
        )
        with self.obs.span("campaign"):
            self._phase("setup", self._setup_personas, personas)
            crawl_sites, prebid_sites = self._phase(
                "discovery", self._discover_sites, det=True
            )
            self._phase(
                "pre_crawls", self._run_pre_interaction_crawls, personas, crawl_sites
            )
            self._advance_to_day(11)  # Dec 21
            self._phase("install", self._install_all_skills, personas)
            # DSAR #1 (install-only)
            self._phase("dsar", self._request_dsar_all, personas, wave=1)
            self._advance_to_day(12)  # Dec 22
            self._phase(
                "interaction_wave_1", self._run_interaction_wave, personas, True
            )
            self._mark_interacted(personas)
            self._phase("dsar", self._request_dsar_all, personas, wave=2)
            self._phase(
                "post_crawls", self._run_post_interaction_crawls, personas, crawl_sites
            )
            self._phase("audio", self._run_audio_sessions, personas)
            if self.config.second_interaction_wave:
                self._phase(
                    "interaction_wave_2", self._run_interaction_wave, personas, False
                )
                self._phase("dsar", self._request_dsar_all, personas, wave=3)
                self._phase(
                    "dsar", self._rerequest_missing_interest_files, personas,
                    wave=3, rerequest=True,
                )
            policy_fetches = self._phase("policies", self._collect_policies, personas)
        self.timings["total"] = time.perf_counter() - total_started
        self.obs.event("campaign.end", personas=len(personas))
        return AuditDataset(
            personas=self._artifacts,
            prebid_sites=prebid_sites,
            crawl_sites=crawl_sites,
            policy_fetches=policy_fetches,
            world=self.world,
            timings=dict(self.timings),
            obs=self.obs if self.obs.enabled else None,
        )

    # ------------------------------------------------------------------ #
    # Phase 1: setup
    # ------------------------------------------------------------------ #

    def _setup_personas(self, personas: Sequence[Persona]) -> None:
        for persona in personas:
            with self.obs.span("persona:setup", det=True, persona=persona.name):
                self._setup_one_persona(persona)

    def _setup_one_persona(self, persona: Persona) -> None:
        artifacts = PersonaArtifacts(
            persona=persona, profile_id=f"profile-{persona.name}"
        )
        profile = BrowserProfile(
            profile_id=artifacts.profile_id, persona=persona.name
        )
        if persona.uses_echo:
            account = AmazonAccount(email=persona.email, persona=persona.name)
            artifacts.account = account
            device = EchoDevice(
                f"echo-{persona.name}",
                account,
                self.world.router,
                self.world.cloud,
                self.world.seed,
                obs=self.obs,
            )
            self._devices[persona.name] = device
            if self.config.run_avs_echo and persona.kind == "interest":
                avs_account = AmazonAccount(
                    email=f"avs-{persona.name}@persona.example.com",
                    persona=f"avs-{persona.name}",
                )
                self._avs_devices[persona.name] = AVSEcho(
                    f"avs-{persona.name}",
                    avs_account,
                    self.world.router,
                    self.world.cloud,
                    self.world.seed,
                    obs=self.obs,
                )
            profile.login_amazon(account)
        self._profiles[persona.name] = profile
        self.world.adtech.register_profile(profile)
        self._crawlers[persona.name] = OpenWPMCrawler(
            profile,
            self.world.universe,
            self.world.adtech,
            self.world.clock,
            self.world.seed,
            obs=self.obs,
            faults=self.world.fault_plan,
        )
        self._artifacts[persona.name] = artifacts
        if persona.kind == "web":
            self._prime_web_persona(persona)

    def _prime_web_persona(self, persona: Persona) -> None:
        """Visit the category's top-50 sites to build browsing history.

        Each priming page embeds a third-party tracking pixel; fetching
        it is what builds the persona's server-side interest profile —
        conventional web tracking, no Echo involved (§3.1.2).
        """
        browser = self._crawlers[persona.name].browser
        for domain in WEB_PRIMING_SITES(persona.category):
            if domain not in self.world.universe:
                self.world.universe.register(
                    domain, _make_priming_site_handler(persona.category)
                )
            page = browser.get(f"https://{domain}/")
            self.obs.inc("web.priming_requests")
            for pixel_url in page.body.get("trackers", []):
                browser.get(pixel_url)
                self.obs.inc("web.priming_requests")

    # ------------------------------------------------------------------ #
    # Phase 2: site discovery + crawls
    # ------------------------------------------------------------------ #

    def _discover_sites(self):
        probe_profile = BrowserProfile(profile_id="probe", persona="probe")
        self.world.adtech.register_profile(probe_profile)
        prebid_sites = discover_prebid_sites(
            self.world.toplist,
            self.world.universe,
            self.world.adtech,
            probe_profile,
            self.world.clock,
            target=self.config.prebid_discovery_target,
            obs=self.obs,
            faults=self.world.fault_plan,
        )
        return prebid_sites[: self.config.crawl_sites], prebid_sites

    def _crawl_all(
        self, personas: Sequence[Persona], sites: List[WebsiteSpec], iteration: int
    ) -> None:
        with self.obs.span("crawl:iteration", iteration=iteration):
            for persona in personas:
                crawler = self._crawlers[persona.name]
                with self.obs.span(
                    "persona:crawl",
                    det=True,
                    persona=persona.name,
                    iteration=iteration,
                ):
                    result = crawler.crawl_iteration(sites, iteration)
                artifacts = self._artifacts[persona.name]
                artifacts.bids.extend(result.bids)
                artifacts.ads.extend(result.ads)
                artifacts.loaded_slots.update(result.loaded_slots)
        # Request logs accumulate inside each browser; snapshot at the end.

    def _run_pre_interaction_crawls(
        self, personas: Sequence[Persona], sites: List[WebsiteSpec]
    ) -> None:
        for i in range(self.config.pre_iterations):
            # Iteration 0 crawls on day 0, where setup/discovery already
            # left the clock; asking to "advance" there would be a
            # backwards target.
            if i:
                self._advance_to_day(2 * i)  # Dec 12, 14, ..., 20
            self._crawl_all(
                personas, sites, iteration=-(self.config.pre_iterations - i)
            )

    def _run_post_interaction_crawls(
        self, personas: Sequence[Persona], sites: List[WebsiteSpec]
    ) -> None:
        for i in range(self.config.post_iterations):
            if i < 3:
                self._advance_to_day(17 + 2 * i)  # Dec 27, 29, 31
            else:
                self._advance_to_day(23 + (i - 3))  # Jan 2 onward
            self._crawl_all(personas, sites, iteration=i)
        for persona in personas:
            # Hand the log over, not a copy; the browser starts a fresh one
            # so no later request can land in the artifact's log.
            browser = self._crawlers[persona.name].browser
            self._artifacts[persona.name].request_log = browser.request_log
            browser.request_log = []

    # ------------------------------------------------------------------ #
    # Phase 3: skills
    # ------------------------------------------------------------------ #

    def _skills_for(self, persona: Persona):
        n = self.config.skills_per_persona
        shift = sum(
            int(token.partition(":")[2])
            for token in self.config.interest_drift
            if token.partition(":")[0] == persona.name
        )
        if shift == 0:
            return self.world.catalog.top_skills(persona.category, n)
        # Interest drift: the persona's attention window slides down the
        # category ranking, so installs/captures/policies churn while the
        # category-keyed bid parameters (and every other persona) hold.
        return self.world.catalog.top_skills(persona.category, n + shift)[shift:]

    def _install_all_skills(self, personas: Sequence[Persona]) -> None:
        for persona in personas:
            if persona.kind != "interest":
                continue
            artifacts = self._artifacts[persona.name]
            account = artifacts.account
            assert account is not None
            with self.obs.span("persona:install", det=True, persona=persona.name):
                for spec in self._skills_for(persona):
                    receipt = self.world.marketplace.install(account, spec.skill_id)
                    if receipt.installed:
                        self.obs.inc("skills.installed")
                    else:
                        artifacts.install_failures.append(spec.skill_id)
                        self.obs.inc("skills.install_failures")
                        self.obs.event(
                            "skill.install_failure",
                            persona=persona.name,
                            skill_id=spec.skill_id,
                        )
                    avs = self._avs_devices.get(persona.name)
                    if avs is not None and not spec.fails_to_load:
                        self.world.marketplace.install(avs.account, spec.skill_id)

    def _run_interaction_wave(
        self, personas: Sequence[Persona], capture: bool
    ) -> None:
        """One interaction pass over every installed skill (§3.1.1/§3.2)."""
        for persona in personas:
            if persona.kind != "interest":
                continue
            artifacts = self._artifacts[persona.name]
            device = self._devices[persona.name]
            avs = self._avs_devices.get(persona.name)
            with self.obs.span(
                "persona:interactions",
                det=True,
                persona=persona.name,
                capture=capture,
            ):
                for spec in self._skills_for(persona):
                    if spec.skill_id in artifacts.install_failures:
                        continue
                    session = None
                    if capture:
                        session = self.world.router.start_capture(
                            label=spec.skill_id, device_filter=device.device_id
                        )
                    # Devices absorb transient faults internally (retry +
                    # degrade); this belt keeps a persona whose session
                    # still dies from aborting the whole campaign — the
                    # partial dataset stays valid, the loss is recorded.
                    try:
                        device.run_skill_session(spec)
                        device.background_sync(list(spec.amazon_endpoints))
                        self.obs.inc("skills.sessions")
                    except NetworkError:
                        self.obs.inc("skills.sessions_failed")
                        self.obs.event(
                            "skill.session_failure",
                            persona=persona.name,
                            skill_id=spec.skill_id,
                        )
                    if session is not None:
                        self.world.router.stop_capture(session)
                        artifacts.skill_captures[spec.skill_id] = session
                    if avs is not None:
                        avs.run_skill_session(spec)
                    self.world.clock.advance(30.0)
            self.world.cloud.advance_epoch(artifacts.account.customer_id)
        # The vanilla account tracks the same experiment phases (its DSAR
        # requests are timed identically to the interest personas').
        vanilla = self._artifacts.get(cat.VANILLA)
        if vanilla is not None and vanilla.account is not None:
            self.world.cloud.advance_epoch(vanilla.account.customer_id)
        # Snapshot AVS plaintext after the wave.
        for persona_name, avs in self._avs_devices.items():
            self._artifacts[persona_name].avs_plaintext = list(avs.plaintext_log)

    def _mark_interacted(self, personas: Sequence[Persona]) -> None:
        for persona in personas:
            if persona.kind == "interest":
                self.world.adtech.set_interacted(f"profile-{persona.name}", True)

    # ------------------------------------------------------------------ #
    # Phase 4: audio
    # ------------------------------------------------------------------ #

    def _run_audio_sessions(self, personas: Sequence[Persona]) -> None:
        subset = {p.name for p in personas}
        for persona_name in self.config.audio_personas:
            if persona_name not in subset:
                continue  # persona lives in another shard
            artifacts = self._artifacts[persona_name]
            device = self._devices[persona_name]
            with self.obs.span("persona:audio", det=True, persona=persona_name):
                for skill in STREAMING_SKILLS:
                    device.say(f"alexa, play top hits on {skill.invocation_name}")
                    artifacts.audio_sessions.append(
                        self.world.audio_server.stream(
                            skill.name, persona_name, hours=self.config.audio_hours
                        )
                    )
                    self.obs.inc("audio.stream_sessions")
                    self.world.clock.advance(self.config.audio_hours * 3600.0)

    # ------------------------------------------------------------------ #
    # Phase 5: DSAR
    # ------------------------------------------------------------------ #

    def _request_dsar_all(self, personas: Sequence[Persona]) -> None:
        for persona in personas:
            if not persona.uses_echo:
                continue
            artifacts = self._artifacts[persona.name]
            with self.obs.span("persona:dsar", det=True, persona=persona.name):
                export = self.world.dsar.request_data(artifacts.account.customer_id)
            artifacts.dsar_exports.append(export)

    def _rerequest_missing_interest_files(self, personas: Sequence[Persona]) -> None:
        """Repeat the request when the interests file was absent (§6.1)."""
        for persona in personas:
            if not persona.uses_echo:
                continue
            artifacts = self._artifacts[persona.name]
            if not artifacts.dsar_exports:
                continue  # no DSAR ever completed for this persona
            if artifacts.dsar_exports[-1].advertising_interests is None:
                self.obs.event("dsar.rerequest", persona=persona.name)
                with self.obs.span(
                    "persona:dsar", det=True, persona=persona.name, rerequest=True
                ):
                    export = self.world.dsar.request_data(
                        artifacts.account.customer_id
                    )
                artifacts.dsar_exports.append(export)

    # ------------------------------------------------------------------ #
    # Phase 6: policies
    # ------------------------------------------------------------------ #

    def _collect_policies(self, personas: Sequence[Persona]) -> List[PolicyFetch]:
        fetches: List[PolicyFetch] = []
        for persona in personas:
            if persona.kind != "interest":
                continue
            persona_fetches = self._artifacts[persona.name].policy_fetches
            with self.obs.span("persona:policies", det=True, persona=persona.name):
                for spec in self._skills_for(persona):
                    url = self.world.marketplace.privacy_policy_url(spec.skill_id)
                    document = (
                        self.world.corpus.get(spec.skill_id)
                        if url is not None
                        else None
                    )
                    self.obs.inc("policies.checked")
                    if url is None:
                        self.obs.inc("policies.missing_link")
                    elif document is None:
                        self.obs.inc("policies.broken_link")
                    fetch = PolicyFetch(
                        skill_id=spec.skill_id, url=url, document=document
                    )
                    fetches.append(fetch)
                    persona_fetches.append(fetch)
        return fetches

    # ------------------------------------------------------------------ #

    def _advance_to_day(self, day: float) -> None:
        """Advance the sim clock to ``day`` days after the epoch.

        A target behind the clock is a scheduling bug (mirroring
        :meth:`~repro.util.clock.SimClock.advance`): silently no-opping
        here would let a mis-scheduled timeline collapse distinct crawl
        days onto one date and skew the Table-6 seasonality unnoticed.
        """
        target = day * _DAY
        if target < self.world.clock.now:
            raise ValueError(
                f"cannot advance backwards to day {day} "
                f"(clock is already at {self.world.clock.now / _DAY:.3f} days)"
            )
        if target > self.world.clock.now:
            self.world.clock.advance(target - self.world.clock.now)


def _make_priming_site_handler(category: str):
    """Content page carrying a third-party tracking pixel for its topic."""
    from repro.adtech.exchange import TRACKER_DOMAIN

    def handler(request: HttpRequest) -> HttpResponse:
        pixel = (
            f"https://{TRACKER_DOMAIN}/t?cat={category}&page={request.host}"
        )
        return HttpResponse(
            status=200, body={"page": request.host, "trackers": [pixel]}
        )

    return handler


def _run_serial_experiment(
    seed: Seed,
    config: ExperimentConfig = ExperimentConfig(),
    obs: Optional[ObsCollector] = None,
) -> AuditDataset:
    """Build a world for ``seed`` and run the full campaign on it.

    Internal serial engine behind :func:`repro.core.run_campaign`; call
    that instead of this.
    """
    world = build_config_world(seed, config)
    return ExperimentRunner(world, config, obs=obs).run()
