"""DNS simulation.

Devices resolve domain names through the router's :class:`DnsServer`, which
answers from the :class:`~repro.netsim.endpoints.EndpointRegistry`.  Each
resolution emits query/response packets into the capture path — this is how
the auditing framework later maps the IPs of encrypted flows back to domain
names (§3.2 "Inferring origin").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.netsim.endpoints import EndpointRegistry
from repro.netsim.packet import Packet

__all__ = ["DnsRecord", "DnsServer", "DnsTable"]

DNS_PORT = 53


@dataclass(frozen=True)
class DnsRecord:
    """An A-record answer: domain → IP at a given time."""

    domain: str
    ip: str
    ttl: int = 300


class DnsServer:
    """Authoritative resolver for the simulated Internet.

    Maintains a per-device resolution log so the router can emit DNS
    packets, and a global answer log used by captures.
    """

    def __init__(self, registry: EndpointRegistry) -> None:
        self._registry = registry
        self._cache: Dict[str, DnsRecord] = {}
        self.query_count = 0

    def resolve(self, domain: str) -> DnsRecord:
        """Resolve ``domain`` to an A record; raises KeyError if unknown."""
        self.query_count += 1
        record = self._cache.get(domain)
        if record is None:
            endpoint = self._registry.require(domain)
            record = DnsRecord(domain=domain, ip=endpoint.ip)
            self._cache[domain] = record
        return record


class DnsTable:
    """IP → domain mapping recovered from DNS packets in a capture.

    Mirrors the paper's approach: the auditor does not get to query the
    registry, only to read DNS answers that appeared on the wire.
    Capture sessions feed packets in as they are observed
    (:meth:`add_packet`), so the table is complete the moment the capture
    stops — no post-hoc re-scan of the packet list.
    """

    def __init__(self) -> None:
        self._ip_to_domain: Dict[str, str] = {}

    def add(self, record: DnsRecord) -> None:
        self._ip_to_domain[record.ip] = record.domain

    def add_packet(self, packet: Packet) -> None:
        """Ingest one packet, recording any DNS answers it carries."""
        payload = packet.payload
        if payload is None or payload.get("kind") != "dns-response":
            return
        for answer in payload.get("answers", []):
            self._ip_to_domain[answer["ip"]] = answer["domain"]

    def domain_for_ip(self, ip: str) -> Optional[str]:
        return self._ip_to_domain.get(ip)

    def __len__(self) -> int:
        return len(self._ip_to_domain)
