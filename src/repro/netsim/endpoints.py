"""Endpoint registry: the simulated Internet's address book.

Every remote service a device can talk to is an :class:`Endpoint` with a
domain name and a deterministic IP address.  The registry doubles as the
authoritative DNS zone for :class:`~repro.netsim.dns.DnsServer`.
"""

from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.util.ids import stable_hash

__all__ = ["Endpoint", "EndpointRegistry"]


@dataclass(frozen=True)
class Endpoint:
    """A remote network service.

    Attributes
    ----------
    domain:
        Fully qualified domain name, e.g. ``device-metrics-us-2.amazon.com``.
    ip:
        Deterministically assigned IPv4 address.
    organization:
        Owning organization name (ground truth; auditors must *infer* this
        via :mod:`repro.orgmap`, they never read it from here).
    category:
        Functional category: ``functional``, ``advertising``, ``tracking``,
        ``cdn``, ``content`` — ground truth used to seed the world, again
        inferred independently by the auditor via filter lists.
    port:
        Default TCP port.
    """

    domain: str
    ip: str
    organization: str
    category: str = "functional"
    port: int = 443

    def __post_init__(self) -> None:
        if not self.domain or "." not in self.domain:
            raise ValueError(f"invalid domain: {self.domain!r}")
        ipaddress.ip_address(self.ip)  # raises on malformed input
        # Packet's port range, checked here because packets are built
        # only inside capture windows.
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    @property
    def base_domain(self) -> str:
        """Registrable domain (eTLD+1), approximated as the last two labels.

        The simulation's domains all use two-label registrable suffixes
        except a small set of known multi-label suffixes handled here.
        """
        return registrable_domain(self.domain)


_MULTI_LABEL_SUFFIXES = {
    "co.uk",
    "com.au",
    "a2z.com",  # alexa.a2z.com-style Amazon internal zone, per Table 1
}


@functools.lru_cache(maxsize=4096)
def registrable_domain(domain: str) -> str:
    """Best-effort eTLD+1 for the simulation's domain universe.

    Memoised, with a bound well above a campaign's distinct hosts: the
    browser's cookie jar asks for every hop.
    """
    labels = domain.lower().rstrip(".").split(".")
    if len(labels) <= 2:
        return ".".join(labels)
    last_two = ".".join(labels[-2:])
    if last_two in _MULTI_LABEL_SUFFIXES and len(labels) >= 3:
        return ".".join(labels[-3:])
    return last_two


@dataclass
class EndpointRegistry:
    """Registry of all endpoints in the simulated Internet."""

    _by_domain: Dict[str, Endpoint] = field(default_factory=dict)
    _by_ip: Dict[str, Endpoint] = field(default_factory=dict)

    def register(
        self,
        domain: str,
        organization: str,
        category: str = "functional",
        port: int = 443,
    ) -> Endpoint:
        """Create (or return the existing) endpoint for ``domain``.

        IPs are content-addressed from the domain name so the same world is
        rebuilt identically regardless of registration order.
        """
        existing = self._by_domain.get(domain)
        if existing is not None:
            if existing.organization != organization:
                raise ValueError(
                    f"domain {domain} already registered to {existing.organization}, "
                    f"cannot re-register to {organization}"
                )
            return existing
        endpoint = Endpoint(
            domain=domain,
            ip=self._derive_ip(domain),
            organization=organization,
            category=category,
            port=port,
        )
        self._by_domain[domain] = endpoint
        self._by_ip[endpoint.ip] = endpoint
        return endpoint

    def _derive_ip(self, domain: str) -> str:
        """Deterministic public IPv4 for a domain, collision-checked."""
        for salt in range(256):
            token = stable_hash("endpoint-ip", domain, salt, length=8)
            raw = int(token, 16)
            # Map into 100.64.0.0/10-adjacent public-looking space, avoiding
            # the router's own 192.168.7.0/24 LAN.
            octets = (
                52 + (raw >> 24) % 150,
                (raw >> 16) % 256,
                (raw >> 8) % 256,
                1 + raw % 254,
            )
            candidate = ".".join(str(o) for o in octets)
            if candidate not in self._by_ip:
                return candidate
        raise RuntimeError(f"could not derive unique IP for {domain}")

    def lookup_domain(self, domain: str) -> Optional[Endpoint]:
        return self._by_domain.get(domain)

    def lookup_ip(self, ip: str) -> Optional[Endpoint]:
        return self._by_ip.get(ip)

    def require(self, domain: str) -> Endpoint:
        """Like :meth:`lookup_domain` but raises when absent."""
        endpoint = self._by_domain.get(domain)
        if endpoint is None:
            raise KeyError(f"no such endpoint: {domain}")
        return endpoint

    def __iter__(self) -> Iterator[Endpoint]:
        return iter(self._by_domain.values())

    def __len__(self) -> int:
        return len(self._by_domain)

    def __contains__(self, domain: object) -> bool:
        return domain in self._by_domain
