"""Client-side header bidding: publisher pages and the prebid.js runtime.

The crawler interacts with pages the way the paper's injected script does
(§3.3): probe ``pbjs.version``, read ``pbjs.getBidResponses()``, and call
``pbjs.requestBids()`` when no bids arrived yet.  A
:class:`PrebidSession` is the in-page ``pbjs`` object for one page visit;
its bid requests and user-sync pixels go through the persona's
:class:`~repro.web.browser.Browser`, so everything lands in the request
log where the auditing framework can see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional
from urllib.parse import quote_plus, urlencode

from repro.adtech.ads import AdCreative
from repro.adtech.exchange import AdTechWorld
from repro.data.websites import WebsiteSpec
from repro.netsim.http import HttpRequest, HttpResponse
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a runtime cycle with repro.web
    from repro.web.browser import Browser, WebUniverse

__all__ = ["BidResponse", "AdUnit", "PrebidSession", "register_publisher", "slot_id"]


@dataclass(frozen=True, slots=True)
class BidResponse:
    """One bid as exposed by ``pbjs.getBidResponses()``."""

    slot_id: str
    bidder: str
    cpm: float
    currency: str = "USD"


@dataclass(frozen=True)
class AdUnit:
    """A header-bidding ad slot on a page."""

    slot_id: str
    sizes: tuple = ((300, 250),)


def slot_id(domain: str, position: int) -> str:
    return f"{domain}--slot-{position}"


def register_publisher(site: WebsiteSpec, universe: "WebUniverse") -> None:
    """Serve a publisher page that declares its prebid setup."""

    def handler(request: HttpRequest) -> HttpResponse:
        return HttpResponse(
            status=200,
            body={
                "page": site.domain,
                "prebid_version": site.prebid_version or None,
                "ad_units": [slot_id(site.domain, i) for i in range(site.ad_slots)],
            },
        )

    universe.register(site.domain, handler)


class PrebidSession:
    """The ``pbjs`` object for one page visit by one browser."""

    def __init__(
        self,
        site: WebsiteSpec,
        browser: "Browser",
        adtech: AdTechWorld,
        iteration: int,
    ) -> None:
        self.site = site
        self.browser = browser
        self.adtech = adtech
        self.iteration = iteration
        self._page_body: Optional[Dict] = None
        self._bids: Dict[str, List[BidResponse]] = {}
        self._requested = False

    # -- pbjs API ------------------------------------------------------- #

    def load_page(self) -> None:
        response = self.browser.get(f"https://{self.site.domain}/")
        self._page_body = dict(response.body) if response.ok else {}

    def version(self) -> Optional[str]:
        """``pbjs.version`` — None when the page has no prebid."""
        if self._page_body is None:
            self.load_page()
        return self._page_body.get("prebid_version")

    def get_bid_responses(self) -> Dict[str, List[BidResponse]]:
        """``pbjs.getBidResponses()`` — bids collected so far."""
        return {slot: list(bids) for slot, bids in self._bids.items()}

    def request_bids(self) -> Dict[str, List[BidResponse]]:
        """``pbjs.requestBids()`` — run the header-bidding auctions."""
        if self._page_body is None:
            self.load_page()
        if self._requested:
            return self.get_bid_responses()
        self._requested = True
        adtech = self.adtech
        get = self.browser.get
        from_parts = HttpRequest.from_parts
        persona = self.browser.profile.persona
        # The page's part of every bid query, encoded once per page.
        page_pairs = (
            ("page", self.site.domain),
            ("iteration", str(self.iteration)),
            ("when", self.browser.clock.datetime().isoformat()),
        )
        page_query = urlencode(page_pairs)
        for unit in self._page_body.get("ad_units", []):
            if not adtech.slot_loads(unit, persona):
                continue
            responses: List[BidResponse] = []
            # One query per ad unit, shared by its bidders: byte for byte
            # ``urlencode`` of the whole pairs.
            pairs = (("slot", unit),) + page_pairs
            query = f"slot={quote_plus(unit)}&{page_query}"
            for bidder in adtech.bidders_for_slot(unit):
                reply = get(from_parts("GET", "https", bidder.domain, "/bid", pairs, query))
                if not reply.ok:
                    continue
                body = reply.body
                # Positional: slot_id, bidder, cpm, currency.
                responses.append(
                    BidResponse(unit, body["bidder"], body["cpm"], body.get("currency", "USD"))
                )
                for sync_url in body.get("user_syncs", ()):
                    get(sync_url)
            if responses:
                self._bids[unit] = responses
        return self.get_bid_responses()

    # -- rendering ------------------------------------------------------ #

    def render_winners(self, slot_index_offset: int, interacted: bool) -> List[AdCreative]:
        """Render the winning creative per slot, in slot order."""
        creatives: List[AdCreative] = []
        for offset, (unit, bids) in enumerate(sorted(self._bids.items())):
            if not bids:
                continue
            creatives.append(
                self.adtech.render_creative(
                    persona=self.browser.profile.persona,
                    iteration=self.iteration,
                    slot_id=unit,
                    slot_index=slot_index_offset + offset,
                    interacted=interacted,
                )
            )
        return creatives
