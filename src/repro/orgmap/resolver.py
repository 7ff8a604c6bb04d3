"""Combined IP/domain → organization resolution pipeline.

Reproduces §3.2 "Inferring origin": resolve IPs to domains using DNS
answers observed on the wire, then map domains to parent organizations
using the entity database first and WHOIS as a fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.netsim.dns import DnsTable
from repro.orgmap.entity_db import EntityDatabase, OrgEntity
from repro.orgmap.whois import WhoisService

__all__ = ["Attribution", "OrgResolver", "UNKNOWN_ORG"]

UNKNOWN_ORG = "Unknown"


@dataclass(frozen=True)
class Attribution:
    """Result of attributing a network flow to an organization.

    ``source`` records which evidence chain produced the answer —
    useful both for auditing the auditor and for the paper's observation
    that the ecosystem is opaque.
    """

    domain: Optional[str]
    organization: str
    source: str  # "entity-db" | "whois" | "unresolved"
    entity: Optional[OrgEntity] = None

    @property
    def resolved(self) -> bool:
        return self.organization != UNKNOWN_ORG


class OrgResolver:
    """Attribute flows seen in captures to parent organizations.

    Resolution is memoized per domain: the campaign re-sees the same few
    hundred domains across hundreds of thousands of flows, and both the
    entity database and WHOIS answers are immutable for a built world, so
    every repeat lookup is a dict hit.  ``cache_hits`` feeds the
    ``analysis.domain_cache_hits`` observability counter.
    """

    def __init__(
        self,
        entity_db: EntityDatabase,
        whois: Optional[WhoisService] = None,
    ) -> None:
        self._entity_db = entity_db
        self._whois = whois
        self._cache: Dict[str, Attribution] = {}
        #: Memoized lookups served without re-resolving.
        self.cache_hits = 0

    def attribute_domain(self, domain: str) -> Attribution:
        """Map a domain name to its parent organization (memoized)."""
        cached = self._cache.get(domain)
        if cached is not None:
            self.cache_hits += 1
            return cached
        attribution = self._cache[domain] = self._resolve(domain)
        return attribution

    def _resolve(self, domain: str) -> Attribution:
        """Entity database first, then unredacted WHOIS, else unresolved."""
        entity = self._entity_db.entity_for_domain(domain)
        if entity is not None:
            return Attribution(
                domain=domain,
                organization=entity.name,
                source="entity-db",
                entity=entity,
            )
        if self._whois is not None:
            record = self._whois.lookup(domain)
            if record is not None and not record.is_redacted:
                return Attribution(
                    domain=domain,
                    organization=record.registrant_org,
                    source="whois",
                )
        return Attribution(domain=domain, organization=UNKNOWN_ORG, source="unresolved")

    def attribute_ip(
        self,
        ip: str,
        dns_table: DnsTable,
        sni: Optional[str] = None,
    ) -> Attribution:
        """Map a remote IP to an organization.

        Prefers the DNS answer observed in the capture; falls back to the
        TLS SNI when the DNS exchange was missed (e.g. cached by the
        device), as the paper does.
        """
        domain = dns_table.domain_for_ip(ip) or sni
        if domain is None:
            return Attribution(domain=None, organization=UNKNOWN_ORG, source="unresolved")
        return self.attribute_domain(domain)
