"""World assembly: everything the lab stands up before auditing begins.

One :func:`build_world` call constructs the simulated Internet (endpoint
registry + router), the Amazon side (catalog, cloud, marketplace, DSAR
portal, audio ads), the browser-side web (universe, ad-tech world,
toplist), the policy corpus, and the auditor's own knowledge bases
(entity DB, WHOIS, filter list) — all derived from a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.adtech.audio import AudioAdServer
from repro.adtech.exchange import AdTechWorld
from repro.alexa.cloud import AlexaCloud
from repro.alexa.dsar import DataRequestPortal
from repro.alexa.marketplace import Marketplace
from repro.data.domains import (
    ORG_ENTITIES,
    PIHOLE_FILTER_TEXT,
    build_endpoint_registry,
    build_entity_database,
)
from repro.data.skill_catalog import SkillCatalog, build_catalog, churn_catalog
from repro.data.websites import WebsiteSpec, build_toplist
from repro.netsim.endpoints import EndpointRegistry
from repro.netsim.faults import FaultPlan, FaultProfile
from repro.netsim.router import Router
from repro.orgmap.entity_db import EntityDatabase
from repro.orgmap.filterlists import FilterList
from repro.orgmap.resolver import OrgResolver
from repro.orgmap.whois import WhoisService
from repro.policies.corpus import PolicyCorpus, build_corpus
from repro.util.clock import PAPER_EPOCH, SimClock
from repro.util.rng import Seed
from repro.web.browser import WebUniverse

__all__ = ["World", "build_world", "build_config_world"]


@dataclass
class World:
    """Handles to every subsystem of the simulated lab."""

    seed: Seed
    clock: SimClock
    # Home-network side
    registry: EndpointRegistry
    router: Router
    # Amazon side
    catalog: SkillCatalog
    cloud: AlexaCloud
    marketplace: Marketplace
    dsar: DataRequestPortal
    audio_server: AudioAdServer
    # Web side
    universe: WebUniverse
    adtech: AdTechWorld
    toplist: List[WebsiteSpec]
    # Policies
    corpus: PolicyCorpus
    # Auditor-side knowledge
    entity_db: EntityDatabase
    whois: WhoisService
    filter_list: FilterList
    #: Seeded fault schedule shared by the router and the browsers;
    #: ``None`` means a perfectly healthy network.
    fault_plan: Optional[FaultPlan] = None

    def org_resolver(self) -> OrgResolver:
        return OrgResolver(self.entity_db, self.whois)

    def org_categories(self) -> dict:
        """Ontology categories per org (for PoliCheck endpoint analysis)."""
        return {entity.name: entity.categories for entity in ORG_ENTITIES}


def build_world(
    seed: Seed,
    catalog: SkillCatalog = None,
    faults: Optional[Union[str, FaultProfile]] = None,
    *,
    epoch_offset_days: int = 0,
    bidders_entered: int = 0,
    bidders_exited: int = 0,
    catalog_churn: tuple = (),
) -> World:
    """Stand up the whole simulated lab for one seed.

    Pass a custom ``catalog`` to audit your own skills: any
    :class:`~repro.data.skill_catalog.SkillSpec` whose endpoints exist in
    the domain catalog can be installed, exercised, captured, and checked
    against its policy exactly like the built-in 450.

    ``faults`` — a fault profile name (``"none"``/``"mild"``/``"harsh"``),
    a float-rate string, or a :class:`~repro.netsim.faults.FaultProfile` —
    installs a seeded :class:`~repro.netsim.faults.FaultPlan` on the
    router and exposes it as :attr:`World.fault_plan` for the browsers.

    The keyword-only knobs are the timeline-epoch mutations
    (:mod:`repro.core.timeline`): ``epoch_offset_days`` shifts the world
    clock's calendar epoch (the simulation still starts at elapsed 0, so
    the day-relative crawl schedule is unchanged — only the dates, and
    therefore the Table-6 holiday seasonality, move);
    ``bidders_entered``/``bidders_exited`` churn the DSP roster; and
    ``catalog_churn`` re-ranks skill categories
    (:func:`~repro.data.skill_catalog.churn_catalog`).  Use
    :func:`build_config_world` to thread them from an
    :class:`~repro.core.experiment.ExperimentConfig`.
    """
    from datetime import timedelta

    clock = SimClock(epoch=PAPER_EPOCH + timedelta(days=epoch_offset_days))
    registry = build_endpoint_registry()
    fault_plan: Optional[FaultPlan] = None
    if faults is not None:
        profile = FaultProfile.parse(faults)
        if profile.enabled:
            fault_plan = FaultPlan(seed, profile)
    router = Router(registry, clock, faults=fault_plan)
    if catalog is None:
        catalog = build_catalog(seed)
    if catalog_churn:
        catalog = churn_catalog(catalog, seed, catalog_churn)
    cloud = AlexaCloud(catalog, router, clock, seed)
    marketplace = Marketplace(catalog, cloud)
    dsar = DataRequestPortal(cloud)
    audio_server = AudioAdServer(seed.derive("audio"))
    universe = WebUniverse()
    adtech = AdTechWorld(
        seed,
        universe,
        bidders_entered=bidders_entered,
        bidders_exited=bidders_exited,
    )
    toplist = build_toplist(seed)
    corpus = build_corpus(catalog, seed)
    entity_db = build_entity_database()
    whois = WhoisService(registry, seed)
    filter_list = FilterList.from_text(PIHOLE_FILTER_TEXT)
    return World(
        seed=seed,
        clock=clock,
        registry=registry,
        router=router,
        catalog=catalog,
        cloud=cloud,
        marketplace=marketplace,
        dsar=dsar,
        audio_server=audio_server,
        universe=universe,
        adtech=adtech,
        toplist=toplist,
        corpus=corpus,
        entity_db=entity_db,
        whois=whois,
        filter_list=filter_list,
        fault_plan=fault_plan,
    )


def build_config_world(
    seed: Seed, config, catalog: Optional[SkillCatalog] = None
) -> World:
    """:func:`build_world` with every world-shaping field of an
    :class:`~repro.core.experiment.ExperimentConfig` threaded through.

    The single world-construction path for campaign engines (serial,
    parallel shards, segment batches, cache loads): going through it is
    what guarantees that two engines given the same ``(seed, config)``
    audit the same world — the root of every byte-identical-exports pin.

    ``catalog`` lets a caller that builds many worlds for one seed share
    one base catalog (``build_catalog(seed)``, unchurned: the config's
    ``catalog_churn`` is still applied per world).
    """
    return build_world(
        seed,
        catalog,
        faults=config.fault_profile,
        epoch_offset_days=config.epoch_offset_days,
        bidders_entered=config.bidders_entered,
        bidders_exited=config.bidders_exited,
        catalog_churn=config.catalog_churn,
    )
