"""The advertising exchange world: bidders, DMP state, cookie syncing.

This module wires the server side of header bidding into the browser's
:class:`~repro.web.browser.WebUniverse`:

* **Bidder endpoints** answer bid requests.  A bid response carries
  prebid-style ``user_syncs`` pixel URLs; fetching them produces the
  cookie-sync traffic of §5.5.
* **Amazon's sync endpoint** (``s.amazon-adsystem.com``) records the
  partner-uid ↔ Amazon-session match and 302s back to the partner — the
  one-sided sync the paper observes (Amazon never pushes its own cookie
  out).
* **Downstream third parties** (247 of them) receive further syncs from
  the partners.

The DMP lets bidders resolve a uid to persona state server-side; that
resolution is what :class:`~repro.adtech.bidder.Bidder` conditions its
bid on.  None of the server-side state is visible to the auditor — only
the sync URLs in the browser's request log are, exactly as in the paper.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.adtech.ads import AdCreative, AdServer
from repro.adtech.bidder import AuctionContext, Bidder
from repro.data.calibration import (
    N_DOWNSTREAM_THIRD_PARTIES,
    N_NON_PARTNERS,
    N_PARTNERS,
)
from repro.data.domains import AMAZON_ADS_DOMAIN
from repro.netsim.endpoints import registrable_domain
from repro.netsim.http import HttpRequest, HttpResponse
from repro.obs import NULL_OBS
from repro.util.ids import stable_hash
from repro.util.rng import Seed

if TYPE_CHECKING:  # avoid a runtime cycle with repro.web
    from repro.web.browser import BrowserProfile, WebUniverse

__all__ = ["AdTechWorld", "PersonaState", "BIDDERS_PER_SLOT", "SLOT_FAILURE_RATE"]

#: Demand partners responding per ad slot.
BIDDERS_PER_SLOT = 8

#: Per-(slot, persona) probability the slot fails to load — the source of
#: the "common ad slots" filtering in §3.3.  At 5% across 13 crawling
#: personas, ~51% of slots survive the common-slot filter, giving the
#: ~40-sample Mann-Whitney tests their paper-scale p-values.
SLOT_FAILURE_RATE = 0.05

#: The web-tracking pixel host embedded on priming sites (§3.1.2).
TRACKER_DOMAIN = "px.webtrack-dmp.com"

#: Pages with tracking observed before a web persona's browsing history
#: counts as an exploitable interest profile.
WEB_EVIDENCE_THRESHOLD = 10


@dataclass
class PersonaState:
    """Server-side knowledge about one browser profile."""

    profile_id: str
    persona: str
    interacted: bool = False
    amazon_session: Optional[str] = None
    #: Web-tracking evidence: category -> pages observed (built up by the
    #: tracker pixel on priming sites, §3.1.2).
    web_evidence: Dict[str, int] = field(default_factory=dict)


class AdTechWorld:
    """All server-side ad-tech state plus endpoint handlers."""

    def __init__(
        self,
        seed: Seed,
        universe: "WebUniverse",
        *,
        bidders_entered: int = 0,
        bidders_exited: int = 0,
    ) -> None:
        self._seed = seed
        self.universe = universe
        self.ad_server = AdServer(seed.derive("ads"))
        self.bidders: List[Bidder] = self._make_bidders(
            seed, entered=bidders_entered, exited=bidders_exited
        )
        self.partner_codes: Tuple[str, ...] = tuple(
            b.code for b in self.bidders if b.is_partner
        )
        self.downstream_domains: Tuple[str, ...] = tuple(
            f"sync{i:03d}.thirdparty-dmp.net" for i in range(N_DOWNSTREAM_THIRD_PARTIES)
        )
        self._downstream_by_partner = self._assign_downstream(seed)
        #: uid cookie value -> persona state (the tracking database).
        self._uid_index: Dict[str, PersonaState] = {}
        #: (bidder code, uid) pairs already cookie-matched with Amazon.
        self._matches: Set[Tuple[str, str]] = set()
        #: (partner code, uid) pairs that have fired every downstream sync.
        self._downstream_synced: Set[Tuple[str, str]] = set()
        self._profiles: Dict[str, PersonaState] = {}
        #: slot id -> its bidders; bounded by the world's ad slots.
        self._slot_bidders: Dict[str, Tuple[Bidder, ...]] = {}
        #: (slot id, persona) -> whether the slot loads; bounded by the
        #: world's slots times its personas.
        self._slot_loads: Dict[Tuple[str, str], bool] = {}
        #: The last bid request's ``when`` string and its datetime: every
        #: bid request of one page carries the same one.
        self._when: Optional[Tuple[str, _dt.datetime]] = None
        #: The last bid request's (query pairs, persona, interacted) and
        #: its auction: every bidder of one ad unit gets the same query.
        self._auction: Optional[Tuple[tuple, AuctionContext]] = None
        #: Observability sink; the experiment runner swaps in its
        #: collector so exchange counters land in the campaign trace.
        self.obs = NULL_OBS
        self._register_endpoints()

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #

    @staticmethod
    def _make_bidders(
        seed: Seed, *, entered: int = 0, exited: int = 0
    ) -> List[Bidder]:
        """The DSP roster, optionally churned for a timeline epoch.

        ``exited`` drops the last that many original partners (the most
        recently joined leave first); ``entered`` appends fresh partner
        DSPs under the ``edsp`` code prefix.  Per-slot bidder subsets
        are sampled from the whole roster, so any churn reshapes every
        slot's demand — a global mutation by construction.
        """
        if exited >= N_PARTNERS:
            raise ValueError(
                f"bidders_exited must be < {N_PARTNERS}, got {exited}: "
                "at least one original Amazon partner must remain"
            )
        bidders = []
        for i in range(N_PARTNERS - exited):
            code = f"dsp{i:02d}"
            bidders.append(
                Bidder(code, f"ib.{code}.bid-exchange.com", is_partner=True, seed=seed)
            )
        for i in range(entered):
            code = f"edsp{i:02d}"
            bidders.append(
                Bidder(code, f"ib.{code}.bid-exchange.com", is_partner=True, seed=seed)
            )
        for i in range(N_NON_PARTNERS):
            code = f"ndsp{i:02d}"
            bidders.append(
                Bidder(code, f"ib.{code}.bid-exchange.com", is_partner=False, seed=seed)
            )
        return bidders

    def _assign_downstream(self, seed: Seed) -> Dict[str, Tuple[str, ...]]:
        """Partition + oversample the 247 downstream parties among partners
        so every downstream domain is reachable from at least one partner."""
        rng = seed.rng("adtech", "downstream")
        partners = [b for b in self.bidders if b.is_partner]
        assignment: Dict[str, List[str]] = {b.code: [] for b in partners}
        for i, domain in enumerate(self.downstream_domains):
            assignment[partners[i % len(partners)].code].append(domain)
        # A little cross-linking: some downstream parties sync with several
        # partners, as in the wild.
        for b in partners:
            extras = rng.sample(self.downstream_domains, 2)
            for domain in extras:
                if domain not in assignment[b.code]:
                    assignment[b.code].append(domain)
        return {code: tuple(domains) for code, domains in assignment.items()}

    # ------------------------------------------------------------------ #
    # Profile registration (server-side tracking database)
    # ------------------------------------------------------------------ #

    def register_profile(self, profile: "BrowserProfile") -> PersonaState:
        """Index a browser profile's deterministic uid cookies.

        The browser mints ``uid = H(profile, registrable domain)`` on first
        contact with each party; indexing the same derivation here is the
        simulation's stand-in for the tracking those parties perform.
        """
        state = self._profiles.get(profile.profile_id)
        if state is None:
            state = PersonaState(
                profile_id=profile.profile_id,
                persona=profile.persona,
                amazon_session=(
                    profile.account.session_cookie if profile.account else None
                ),
            )
            self._profiles[profile.profile_id] = state
        for bidder in self.bidders:
            uid = stable_hash("uid", profile.profile_id, registrable_domain(bidder.domain))
            self._uid_index[uid] = state
        tracker_uid = stable_hash(
            "uid", profile.profile_id, registrable_domain(TRACKER_DOMAIN)
        )
        self._uid_index[tracker_uid] = state
        return state

    def set_interacted(self, profile_id: str, interacted: bool = True) -> None:
        """Flip the smart-speaker-interaction flag (the treatment)."""
        self._profiles[profile_id].interacted = interacted

    def is_interacted(self, profile_id: str) -> bool:
        return self._profiles[profile_id].interacted

    # ------------------------------------------------------------------ #
    # Slot topology
    # ------------------------------------------------------------------ #

    def bidders_for_slot(self, slot_id: str) -> Tuple[Bidder, ...]:
        """The stable demand-partner subset for one ad slot, drawn once."""
        bidders = self._slot_bidders.get(slot_id)
        if bidders is None:
            rng = self._seed.rng("adtech", "slot-bidders", slot_id)
            bidders = tuple(rng.sample(self.bidders, BIDDERS_PER_SLOT))
            self._slot_bidders[slot_id] = bidders
        return bidders

    def slot_loads(self, slot_id: str, persona: str) -> bool:
        """Whether this slot renders for this persona (stable per pair, so
        drawn once per pair)."""
        key = (slot_id, persona)
        loads = self._slot_loads.get(key)
        if loads is None:
            rng = self._seed.rng("adtech", "slot-load", slot_id, persona)
            loads = self._slot_loads[key] = rng.random() >= SLOT_FAILURE_RATE
        return loads

    # ------------------------------------------------------------------ #
    # Endpoint handlers
    # ------------------------------------------------------------------ #

    def _register_endpoints(self) -> None:
        for bidder in self.bidders:
            self.universe.register(bidder.domain, self._make_bid_handler(bidder))
        self.universe.register(AMAZON_ADS_DOMAIN, self._handle_amazon_sync)
        self.universe.register(TRACKER_DOMAIN, self._handle_tracker_pixel)
        for domain in self.downstream_domains:
            self.universe.register(domain, _handle_downstream_sync)

    def _handle_tracker_pixel(self, request: HttpRequest) -> HttpResponse:
        """Conventional web tracking: a pixel on content pages accumulates
        per-category browsing evidence.  Once a profile's history crosses
        the threshold, its interest segment becomes available to bidders —
        how the web control personas (§3.1.2) get targeted without ever
        touching an Echo."""
        self.obs.inc("adtech.tracker_hits")
        uid = request.cookies.get("uid", "")
        state = self._uid_index.get(uid)
        category = request.query.get("cat", "")
        if state is not None and category:
            state.web_evidence[category] = state.web_evidence.get(category, 0) + 1
            if (
                state.persona == category
                and state.web_evidence[category] >= WEB_EVIDENCE_THRESHOLD
            ):
                state.interacted = True
        return HttpResponse(status=200, body={"pixel": "1x1"})

    def _make_bid_handler(self, bidder: Bidder):
        def handler(request: HttpRequest) -> HttpResponse:
            if request.path != "/bid":
                # Sync confirmations and other pixels.
                return HttpResponse(status=200, body={"ok": True})
            self.obs.inc("adtech.bid_requests")
            uid = request.cookies.get("uid", "")
            state = self._uid_index.get(uid)
            if state is None:
                return HttpResponse(status=204, body={"nobid": True})
            cpm = bidder.compute_bid(self._auction_for(request._pairs, state))
            return HttpResponse._trusted(200, {
                "bidder": bidder.code,
                "cpm": cpm,
                "currency": "USD",
                "user_syncs": self._sync_urls(bidder, uid),
            })

        return handler

    def _auction_for(self, pairs: tuple, state: PersonaState) -> AuctionContext:
        """The auction a bid query opens for ``state``, built once per ad unit."""
        key = (pairs, state.persona, state.interacted)
        last = self._auction
        if last is None or last[0] != key:
            query = dict(pairs)
            context = AuctionContext(
                persona=state.persona,
                interacted=state.interacted,
                when=self._parse_when(query["when"]),
                slot_id=query["slot"],
                iteration=int(query["iteration"]),
            )
            last = self._auction = (key, context)
        return last[1]

    def _parse_when(self, when: str) -> _dt.datetime:
        """``datetime.fromisoformat(when)``, parsed once per page."""
        last = self._when
        if last is None or last[0] != when:
            last = self._when = (when, _dt.datetime.fromisoformat(when))
        return last[1]

    def _sync_urls(self, bidder: Bidder, uid: str) -> List[str]:
        """Prebid-style userSync pixels to fire after this bid response.

        A partner syncs a uid to all its downstream parties the first
        time it bids for it, and never again.
        """
        urls: List[str] = []
        if not bidder.is_partner:
            return urls
        key = (bidder.code, uid)
        if key not in self._matches:
            urls.append(
                f"https://{AMAZON_ADS_DOMAIN}/x/cm?bidder={bidder.code}&uid={uid}"
            )
        if key not in self._downstream_synced:
            self._downstream_synced.add(key)
            downstream = self._downstream_by_partner.get(bidder.code, ())
            self.obs.inc("adtech.downstream_syncs", len(downstream))
            urls.extend(
                f"https://{domain}/setuid?partner={bidder.code}&uid={uid}"
                for domain in downstream
            )
        return urls

    def _handle_amazon_sync(self, request: HttpRequest) -> HttpResponse:
        """Amazon's cookie-match endpoint: records the match, 302s back to
        the partner, and never discloses Amazon's own identifier."""
        query = request.query
        bidder_code = query.get("bidder", "")
        uid = query.get("uid", "")
        if bidder_code and uid:
            self._matches.add((bidder_code, uid))
            self.obs.inc("adtech.cookie_syncs")
        return HttpResponse(
            status=302,
            redirect_url=(
                f"https://ib.{bidder_code}.bid-exchange.com/cm-confirm?status=ok"
            ),
        )

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def render_creative(
        self,
        persona: str,
        iteration: int,
        slot_id: str,
        slot_index: int,
        interacted: bool,
    ) -> AdCreative:
        return self.ad_server.select(persona, iteration, slot_id, slot_index, interacted)

    # Introspection used by the world-level tests (not by the auditor).
    @property
    def match_count(self) -> int:
        return len(self._matches)


def _handle_downstream_sync(request: HttpRequest) -> HttpResponse:
    return HttpResponse(status=200, body={"sync": "ok"})
