"""Cookie-sync detection from crawl traffic (paper §5.5).

Works purely on the browsers' request logs: a sync is a request whose URL
carries a user identifier to another party's sync endpoint.  The detector
looks for the classic patterns — ``uid=`` parameters on known sync paths
(``/cm``, ``/setuid``, ``/x/cm``, ``/match``) and redirect-chain pairs —
and classifies who is syncing with whom.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set
from urllib.parse import parse_qsl, urlparse

from repro.core.experiment import AuditDataset, PersonaArtifacts
from repro.web.browser import LoggedRequest

__all__ = [
    "SyncEvent",
    "SyncAnalysis",
    "detect_cookie_syncing",
    "persona_sync_events",
    "fold_sync_events",
    "classify_sync_event",
]

_SYNC_PATHS = re.compile(r"/(cm|setuid|match|x/cm|usersync|pixel)(/|$|\?)")
#: A necessary condition of ``_SYNC_PATHS`` on the raw URL, so most URLs
#: are never parsed.  The parsed path is a substring of the URL once
#: ``urlparse`` drops TAB/CR/LF, so those may sit between any two
#: characters; ``x/cm`` contains ``/cm``.
_GAP = r"[\t\r\n]*"
_SYNC_CANDIDATE = re.compile(
    "/" + _GAP + "(?:" + "|".join(map(_GAP.join, ("cm", "setuid", "match", "usersync", "pixel"))) + ")"
)
_ID_PARAMS = ("uid", "user_id", "puid", "external_id", "buyeruid")


@dataclass(frozen=True)
class SyncEvent:
    """One observed cookie-sync request."""

    persona: str
    source: str  # party that initiated the sync (owns the uid)
    destination_host: str
    uid: str
    url: str


@dataclass
class SyncAnalysis:
    """Aggregated view of cookie syncing across personas (§5.5)."""

    events: List[SyncEvent] = field(default_factory=list)
    #: Bidder codes observed syncing their uid TO Amazon.
    amazon_partners: Set[str] = field(default_factory=set)
    #: Parties Amazon pushed its own identifier to (expected: none).
    amazon_outbound_targets: Set[str] = field(default_factory=set)
    #: Downstream third-party hosts partners synced with.
    downstream_parties: Set[str] = field(default_factory=set)
    #: partner code -> downstream hosts.
    partner_downstream: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def partner_count(self) -> int:
        return len(self.amazon_partners)

    @property
    def downstream_count(self) -> int:
        return len(self.downstream_parties)

    def sync_graph(self) -> "nx.DiGraph":
        """Directed data-propagation graph: edge A→B when A pushed a user
        identifier to B.  Nodes carry a ``role`` attribute (``amazon`` /
        ``partner`` / ``downstream``)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_node("amazon", role="amazon")
        for partner in self.amazon_partners:
            graph.add_node(partner, role="partner")
            graph.add_edge(partner, "amazon")
        for partner, downstream in self.partner_downstream.items():
            for host in downstream:
                graph.add_node(host, role="downstream")
                graph.add_edge(partner, host)
        return graph

    def propagation_reach(self) -> Dict[str, int]:
        """How many parties each partner's data reaches (graph out-degree)."""
        graph = self.sync_graph()
        return {
            node: graph.out_degree(node)
            for node, data in graph.nodes(data=True)
            if data.get("role") == "partner"
        }


def detect_cookie_syncing(dataset: AuditDataset) -> SyncAnalysis:
    """Scan every persona's request log for cookie-sync traffic."""
    return fold_sync_events(
        event
        for artifacts in dataset.personas.values()
        for event in persona_sync_events(artifacts)
    )


def persona_sync_events(artifacts: PersonaArtifacts) -> List[SyncEvent]:
    """One persona's sync events, in request-log order.

    The per-persona unit of §5.5: extraction reads only this persona's
    request log, so segment-store workers can emit sync events at any
    batch granularity and :func:`fold_sync_events` over the roster-ordered
    stream reproduces :func:`detect_cookie_syncing` exactly.
    """
    persona = artifacts.persona.name
    candidate = _SYNC_CANDIDATE.search
    return [
        event
        for request in artifacts.request_log
        if candidate(request.url)
        for event in _parse_syncs(request, persona)
    ]


def fold_sync_events(events, keep_events: bool = True) -> SyncAnalysis:
    """Single-pass fold of an event stream into a :class:`SyncAnalysis`.

    ``events`` is any iterable of :class:`SyncEvent` in roster order —
    an in-memory dataset scan or a segment-store stream.  With
    ``keep_events=False`` the per-event list is not retained, so memory
    stays bounded by the aggregate sets however long the stream is (the
    segment-store summary path).
    """
    analysis = SyncAnalysis(partner_downstream=defaultdict(set))
    for event in events:
        classify_sync_event(analysis, event, keep_event=keep_events)
    analysis.partner_downstream = dict(analysis.partner_downstream)
    return analysis


def classify_sync_event(
    analysis: SyncAnalysis, event: SyncEvent, keep_event: bool = True
) -> None:
    """Fold one sync event into a running :class:`SyncAnalysis`.

    The step of :func:`fold_sync_events`, for folds that receive events
    one at a time; their ``partner_downstream`` must start as a
    ``defaultdict(set)``.
    """
    if keep_event:
        analysis.events.append(event)
    destination = event.destination_host
    if "amazon-adsystem" in destination:
        analysis.amazon_partners.add(event.source)
    elif _is_amazon_source(event):
        analysis.amazon_outbound_targets.add(destination)
    else:
        analysis.downstream_parties.add(destination)
        analysis.partner_downstream[event.source].add(destination)


def _parse_syncs(request: LoggedRequest, persona: str) -> List[SyncEvent]:
    """Every sync event a request carries — one per distinct ID value.

    Sync URLs can repeat an ID parameter (``uid=a&uid=b`` piggybacks two
    identifiers on one call); a plain ``dict(parse_qsl(...))`` would keep
    only the last value per key, silently missing the others.
    :func:`persona_sync_events` hands it only URLs that
    ``_SYNC_CANDIDATE`` matches, so most URLs are never parsed.
    """
    parsed = urlparse(request.url)
    if not _SYNC_PATHS.search(parsed.path):
        return []
    pairs = parse_qsl(parsed.query)
    uids: List[str] = []
    for param in _ID_PARAMS:
        for name, value in pairs:
            if name == param and value not in uids:
                uids.append(value)
    if not uids:
        return []
    params = dict(pairs)
    source = params.get("bidder") or params.get("partner") or params.get("source")
    if source is None:
        # Fall back to the redirect chain's origin host.
        source = urlparse(request.chain_root).netloc
    return [
        SyncEvent(
            persona=persona,
            source=source,
            destination_host=parsed.netloc,
            uid=uid,
            url=request.url,
        )
        for uid in uids
    ]


def _is_amazon_source(event: SyncEvent) -> bool:
    return "amazon" in event.source.lower()
