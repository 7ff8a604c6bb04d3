"""OpenWPM-style crawler harness (§3.3).

Implements the paper's two crawler roles:

* **prebid discovery** — walk the Tranco-like toplist probing
  ``pbjs.version`` until 200 prebid-supported sites are found;
* **bid/ad collection** — visit each crawl site with a persona's
  logged-in browser profile, call ``pbjs.getBidResponses()`` (falling
  back to ``pbjs.requestBids()``), record bids, rendered ads, and the
  full request log, with bot-mitigation delays of 10–30 s between pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.adtech.ads import AdCreative
from repro.adtech.exchange import AdTechWorld
from repro.adtech.prebid import PrebidSession, register_publisher
from repro.data.websites import N_PREBID_TARGET, WebsiteSpec
from repro.netsim.faults import FaultPlan, RetryPolicy
from repro.obs import NULL_OBS
from repro.util.clock import SimClock
from repro.util.rng import Seed
from repro.web.browser import Browser, BrowserProfile, WebUniverse

__all__ = ["BidRecord", "AdRecord", "CrawlResult", "OpenWPMCrawler", "discover_prebid_sites"]


@dataclass(frozen=True, slots=True)
class BidRecord:
    """One observed header-bidding bid."""

    persona: str
    iteration: int
    site: str
    slot_id: str
    bidder: str
    cpm: float
    timestamp: float
    interacted: bool


@dataclass(frozen=True, slots=True)
class AdRecord:
    """One rendered ad creative."""

    persona: str
    iteration: int
    site: str
    slot_id: str
    creative: AdCreative


@dataclass
class CrawlResult:
    """Everything one crawl iteration produced for one persona."""

    persona: str
    iteration: int
    bids: List[BidRecord] = field(default_factory=list)
    ads: List[AdRecord] = field(default_factory=list)
    #: Slots that loaded (for common-slot filtering across personas).
    loaded_slots: List[str] = field(default_factory=list)


def discover_prebid_sites(
    toplist: Sequence[WebsiteSpec],
    universe: WebUniverse,
    adtech: AdTechWorld,
    probe_profile: BrowserProfile,
    clock: SimClock,
    target: int = N_PREBID_TARGET,
    obs=NULL_OBS,
    faults: "FaultPlan | None" = None,
) -> List[WebsiteSpec]:
    """Probe the toplist for prebid support, stopping at ``target`` sites.

    Registers every probed site's page handler in the web universe as a
    side effect (the simulation's stand-in for the site existing).

    Discovery runs once per world — every parallel shard repeats it
    identically — so its counters use the ``"first"`` merge policy, and
    the probe browser keeps ``NULL_OBS`` for its fault/retry counters
    (summing identical per-shard repeats would overcount them).  A probe
    that exhausts retries reads as "no prebid" for that site.
    """
    browser = Browser(probe_profile, universe, clock, faults=faults)
    found: List[WebsiteSpec] = []
    probed = 0
    for site in toplist:
        register_publisher(site, universe)
        session = PrebidSession(site, browser, adtech, iteration=-1)
        probed += 1
        if session.version() is not None:
            found.append(site)
        if len(found) >= target:
            break
    if len(found) < target:
        raise RuntimeError(
            f"toplist exhausted with only {len(found)} prebid sites (need {target})"
        )
    obs.inc("discovery.sites_probed", probed, merge="first")
    obs.inc("discovery.prebid_sites_found", len(found), merge="first")
    return found


class OpenWPMCrawler:
    """Bid/ad collection crawler bound to one persona's browser profile."""

    def __init__(
        self,
        profile: BrowserProfile,
        universe: WebUniverse,
        adtech: AdTechWorld,
        clock: SimClock,
        seed: Seed,
        bot_mitigation: bool = True,
        obs=NULL_OBS,
        faults: "FaultPlan | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.profile = profile
        self.browser = Browser(
            profile, universe, clock, faults=faults, retry=retry, obs=obs
        )
        self.adtech = adtech
        self.clock = clock
        self.bot_mitigation = bot_mitigation
        self.obs = obs
        self._rng = seed.rng("openwpm", profile.profile_id)
        adtech.register_profile(profile)

    def crawl_iteration(
        self, sites: Sequence[WebsiteSpec], iteration: int
    ) -> CrawlResult:
        """Visit every crawl site once; collect bids and rendered ads."""
        persona = self.profile.persona
        result = CrawlResult(persona=persona, iteration=iteration)
        interacted = self.adtech.is_interacted(self.profile.profile_id)
        slot_index = 0
        for site in sites:
            session = PrebidSession(site, self.browser, self.adtech, iteration)
            bids = session.get_bid_responses()
            if not bids:
                bids = session.request_bids()
            domain = site.domain
            now = self.clock.now
            for unit, responses in sorted(bids.items()):
                result.loaded_slots.append(unit)
                # Positional: persona, iteration, site, slot_id, bidder,
                # cpm, timestamp, interacted.
                for response in responses:
                    result.bids.append(
                        BidRecord(
                            persona, iteration, domain, unit,
                            response.bidder, response.cpm, now, interacted,
                        )
                    )
            for unit, creative in zip(
                sorted(bids), session.render_winners(slot_index, interacted)
            ):
                result.ads.append(
                    AdRecord(
                        persona=persona,
                        iteration=iteration,
                        site=domain,
                        slot_id=unit,
                        creative=creative,
                    )
                )
            slot_index += len(bids)
            self.obs.inc("openwpm.pages_visited")
            if self.bot_mitigation:
                self.clock.advance(self._rng.uniform(10, 30))
        self.obs.inc("openwpm.bids_collected", len(result.bids))
        self.obs.inc("openwpm.ads_rendered", len(result.ads))
        return result
