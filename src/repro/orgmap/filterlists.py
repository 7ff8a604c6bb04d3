"""Adblock-style filter-list engine.

The paper detects advertising and tracking endpoints with Pi-hole filter
lists plus manual investigation (§4.2).  This module implements the subset
of Adblock Plus syntax those lists use for host blocking:

* ``||example.com^``   — block the domain and all subdomains;
* ``|https://host/…``  — treated as a host anchor on ``host``;
* plain ``host.name``  — exact host match;
* ``@@||example.com^`` — exception (never block);
* ``! comment`` / blank lines — ignored.

Path-based rules are out of scope: the auditing pipeline classifies
*endpoints*, not URLs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["FilterRule", "FilterList", "parse_rules"]


@dataclass(frozen=True)
class FilterRule:
    """One parsed host rule."""

    host: str
    match_subdomains: bool
    is_exception: bool

    def matches(self, domain: str) -> bool:
        domain = domain.lower().rstrip(".")
        if domain == self.host:
            return True
        return self.match_subdomains and domain.endswith("." + self.host)


def parse_rules(lines: Iterable[str]) -> List[FilterRule]:
    """Parse filter-list text into rules, skipping comments and unknowns."""
    rules: List[FilterRule] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith(("!", "#", "[")):
            continue
        is_exception = line.startswith("@@")
        if is_exception:
            line = line[2:]
        if line.startswith("||"):
            host = line[2:].split("^")[0].split("/")[0].lower()
            subdomains = True
        elif line.startswith("|"):
            stripped = line.lstrip("|")
            for scheme in ("https://", "http://"):
                if stripped.startswith(scheme):
                    stripped = stripped[len(scheme):]
                    break
            host = stripped.split("/")[0].split("^")[0].lower()
            subdomains = False
        else:
            host = line.split("^")[0].split("/")[0].lower()
            subdomains = False
        if not host or "." not in host:
            continue  # unsupported rule flavor; real parsers skip these too
        rules.append(
            FilterRule(host=host, match_subdomains=subdomains, is_exception=is_exception)
        )
    return rules


class FilterList:
    """Compiled filter list with exception handling.

    A domain is *blocked* (classified as advertising/tracking) when it
    matches at least one block rule and no exception rule — the same
    precedence Adblock Plus uses.

    Verdicts are memoized per input string: rule matching is O(rules)
    per query, the rule set is frozen after construction, and the
    campaign asks about the same domains millions of times (every flow
    classification, every blocked-router decision).  ``cache_hits``
    feeds the ``analysis.domain_cache_hits`` observability counter.
    """

    def __init__(self, rules: Iterable[FilterRule]) -> None:
        self._block: List[FilterRule] = []
        self._allow: List[FilterRule] = []
        for rule in rules:
            (self._allow if rule.is_exception else self._block).append(rule)
        # Fast path for exact (non-subdomain) hosts.
        self._exact_block: Set[str] = {
            r.host for r in self._block if not r.match_subdomains
        }
        self._verdicts: Dict[str, bool] = {}
        #: Memoized verdicts served without re-matching the rule set.
        self.cache_hits = 0

    @classmethod
    def from_text(cls, text: str) -> "FilterList":
        return cls(parse_rules(text.splitlines()))

    @classmethod
    def from_hosts(
        cls, hosts: Iterable[str], match_subdomains: bool = True
    ) -> "FilterList":
        """Build a list that blocks the given hosts (and their subdomains)."""
        return cls(
            FilterRule(host=h.lower(), match_subdomains=match_subdomains, is_exception=False)
            for h in hosts
        )

    def is_blocked(self, domain: str) -> bool:
        """Whether ``domain`` is classified as advertising/tracking."""
        verdict = self._verdicts.get(domain)
        if verdict is not None:
            self.cache_hits += 1
            return verdict
        verdict = self._verdicts[domain] = self._match(domain)
        return verdict

    def _match(self, domain: str) -> bool:
        """Match ``domain`` against the rule set (exceptions first)."""
        domain = domain.lower().rstrip(".")
        for rule in self._allow:
            if rule.matches(domain):
                return False
        if domain in self._exact_block:
            return True
        return any(rule.matches(domain) for rule in self._block)

    def classify(self, domains: Iterable[str]) -> Tuple[List[str], List[str]]:
        """Partition domains into (advertising_tracking, functional)."""
        ad_tracking: List[str] = []
        functional: List[str] = []
        for domain in domains:
            (ad_tracking if self.is_blocked(domain) else functional).append(domain)
        return ad_tracking, functional

    def __len__(self) -> int:
        return len(self._block) + len(self._allow)
