"""Network-traffic analysis (paper §4: Tables 1–4, Figure 2).

Consumes only auditor-observable artifacts: per-skill encrypted captures
(router vantage), DNS answers seen on the wire, the entity database,
WHOIS, and filter lists.  Ground truth from :mod:`repro.data` is never
read here.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from repro.core.experiment import AuditDataset, PersonaArtifacts
from repro.netsim.pcap import CaptureSession
from repro.obs.collector import NULL_OBS
from repro.orgmap.filterlists import FilterList
from repro.orgmap.resolver import OrgResolver

__all__ = [
    "SkillTraffic",
    "TrafficAnalysis",
    "OrgClass",
    "analyze_traffic",
    "analyze_traffic_stream",
]

AMAZON = "Amazon Technologies, Inc."

#: Domains owned by a skill's own vendor (first party).  The auditor
#: derives this from the store listing's vendor name vs the domain's
#: resolved organization.
OrgClass = str  # "amazon" | "skill vendor" | "third party"


@dataclass
class SkillTraffic:
    """Per-skill view of contacted domains."""

    skill_id: str
    persona: str
    #: domain -> (organization, request count)
    domains: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    def organizations(self) -> Set[str]:
        return {org for org, _ in self.domains.values()}


@dataclass
class TrafficAnalysis:
    """All §4 aggregates, ready for table rendering."""

    per_skill: List[SkillTraffic]
    #: domain -> set of skill ids contacting it (Table 1 counts).
    skills_by_domain: Dict[str, Set[str]]
    #: domain -> organization.
    domain_org: Dict[str, str]
    #: domain -> "amazon" | "skill vendor" | "third party".
    domain_class: Dict[str, OrgClass]
    #: domain -> True when the filter list flags it (Table 2 shading).
    domain_is_ad_tracking: Dict[str, bool]
    #: request counts per (org class, ad/tracking flag) for Table 2.
    traffic_matrix: Dict[Tuple[OrgClass, bool], int]
    #: persona -> (ad/tracking third-party domains, functional ones) — Table 3.
    persona_third_party: Dict[str, Tuple[Set[str], Set[str]]]
    #: skill id -> set of ad/tracking domains it contacts — Table 4.
    skill_ad_tracking: Dict[str, Set[str]]
    #: skill id -> org classes its traffic reaches ("amazon" / "skill
    #: vendor" / "third party"), classified with that skill's own vendor.
    skill_classes: Dict[str, Set[OrgClass]]
    failed_skills: List[str]

    # -- headline counts (§4.1) ----------------------------------------- #

    def skills_contacting(self, org_class: OrgClass) -> Set[str]:
        return {
            skill_id
            for skill_id, classes in self.skill_classes.items()
            if org_class in classes
        }

    def top_ad_tracking_skills(self, count: int = 5) -> List[Tuple[str, Set[str]]]:
        """Table 4: skills ranked by distinct A&T third-party domains."""
        ranked = sorted(
            (
                (skill_id, domains)
                for skill_id, domains in self.skill_ad_tracking.items()
                if domains
            ),
            key=lambda item: (-len(item[1]), item[0]),
        )
        return ranked[:count]

    def ad_tracking_traffic_share(self) -> Dict[Tuple[OrgClass, bool], float]:
        """Table 2: share of request volume per (org class, A&T flag)."""
        total = sum(self.traffic_matrix.values())
        if total == 0:
            return {}
        return {key: count / total for key, count in self.traffic_matrix.items()}


def analyze_traffic(
    dataset: AuditDataset,
    resolver: OrgResolver,
    filter_list: FilterList,
    vendor_by_skill: Mapping[str, str],
) -> TrafficAnalysis:
    """Run the §4 pipeline over all per-skill captures.

    ``vendor_by_skill`` comes from store listings (skill id → vendor
    name), which the auditor scrapes from the marketplace — it is used
    only to tell first-party (vendor-owned) endpoints from third parties,
    exactly as the paper does.

    Every flow of every capture is resolved to a domain and organization
    per persona, then aggregated in roster order.  Domain classification
    is a single memoized pass: each distinct ``(org, vendor)`` pair and
    each distinct domain is classified once, however many skills contact
    it.  Repeat lookups avoided by the resolver/filter-list/classification
    caches are counted on ``dataset.obs`` as ``analysis.domain_cache_hits``.
    """
    obs = dataset.obs if dataset.obs is not None else NULL_OBS
    hits_start = resolver.cache_hits + filter_list.cache_hits

    per_skill: List[SkillTraffic] = []
    skills_by_domain: Dict[str, Set[str]] = defaultdict(set)
    domain_org: Dict[str, str] = {}
    traffic_matrix: Counter = Counter()
    persona_third_party: Dict[str, Tuple[Set[str], Set[str]]] = {}
    skill_ad_tracking: Dict[str, Set[str]] = defaultdict(set)
    skill_classes: Dict[str, Set[OrgClass]] = defaultdict(set)
    failed: List[str] = []

    # Single classification pass: every (org, vendor) pair and every
    # domain verdict is computed at most once for the whole dataset (the
    # filter list memoizes its verdicts per domain itself).
    class_memo: Dict[Tuple[str, str], OrgClass] = {}
    local_hits = 0

    def classify(org: str, vendor: str) -> OrgClass:
        nonlocal local_hits
        key = (org, vendor)
        org_class = class_memo.get(key)
        if org_class is None:
            class_memo[key] = org_class = _classify_org(org, vendor)
        else:
            local_hits += 1
        return org_class

    for artifacts in dataset.interest_personas:
        persona = artifacts.persona.name
        at_set, fn_set = persona_third_party.setdefault(persona, (set(), set()))
        failed.extend(artifacts.install_failures)
        for traffic in _persona_traffic(artifacts, resolver):
            skill_id = traffic.skill_id
            per_skill.append(traffic)
            vendor = vendor_by_skill.get(skill_id, "")
            for domain, (org, requests) in traffic.domains.items():
                skills_by_domain[domain].add(skill_id)
                domain_org[domain] = org
                org_class = classify(org, vendor)
                skill_classes[skill_id].add(org_class)
                is_ad = filter_list.is_blocked(domain)
                traffic_matrix[(org_class, is_ad)] += requests
                if org_class == "third party":
                    (at_set if is_ad else fn_set).add(domain)
                    if is_ad:
                        skill_ad_tracking[skill_id].add(domain)

    domain_class: Dict[str, OrgClass] = {}
    domain_is_ad: Dict[str, bool] = {}
    for domain, org in domain_org.items():
        vendors = {
            vendor_by_skill.get(s, "") for s in skills_by_domain[domain]
        }
        domain_class[domain] = classify(
            org, next(iter(vendors)) if len(vendors) == 1 else ""
        )
        domain_is_ad[domain] = filter_list.is_blocked(domain)

    obs.inc(
        "analysis.domain_cache_hits",
        (resolver.cache_hits + filter_list.cache_hits - hits_start) + local_hits,
    )

    return TrafficAnalysis(
        per_skill=per_skill,
        skills_by_domain=dict(skills_by_domain),
        domain_org=domain_org,
        domain_class=domain_class,
        domain_is_ad_tracking=domain_is_ad,
        traffic_matrix=dict(traffic_matrix),
        persona_third_party=persona_third_party,
        skill_ad_tracking=dict(skill_ad_tracking),
        skill_classes=dict(skill_classes),
        failed_skills=sorted(set(failed)),
    )


def analyze_traffic_stream(
    flow_rows,
    resolver: OrgResolver,
    filter_list: FilterList,
    vendor_by_skill: Mapping[str, str],
    *,
    install_failures=(),
) -> TrafficAnalysis:
    """Run the §4 pipeline as a single-pass fold over flow records.

    ``flow_rows`` is any iterable of mappings with ``persona``,
    ``skill``, ``domain``, and ``packets`` fields in roster order — the
    segment store's ``flows`` stream, or rows re-read from an exported
    ``skill_flows.csv``.  Rows with an empty domain (no DNS answer, no
    SNI) are unattributable and skipped, exactly like the capture path.
    The result is identical to :func:`analyze_traffic` on the dataset
    the rows were extracted from: the stream already carries the
    DNS-or-SNI domain per flow, and domain→organization resolution is
    deterministic per domain.  ``install_failures`` supplies the failed
    skill ids (the stream's ``personas`` records), since flow rows only
    exist for captures that succeeded.

    Memory is bounded by the number of distinct (skill, domain) pairs —
    the analysis aggregates — never by the number of flows.
    """
    per_skill_by_key: Dict[Tuple[str, str], SkillTraffic] = {}
    skills_by_domain: Dict[str, Set[str]] = defaultdict(set)
    domain_org: Dict[str, str] = {}
    traffic_matrix: Counter = Counter()
    persona_third_party: Dict[str, Tuple[Set[str], Set[str]]] = {}
    skill_ad_tracking: Dict[str, Set[str]] = defaultdict(set)
    skill_classes: Dict[str, Set[OrgClass]] = defaultdict(set)

    class_memo: Dict[Tuple[str, str], OrgClass] = {}

    def classify(org: str, vendor: str) -> OrgClass:
        key = (org, vendor)
        org_class = class_memo.get(key)
        if org_class is None:
            class_memo[key] = org_class = _classify_org(org, vendor)
        return org_class

    for row in flow_rows:
        persona = row["persona"]
        skill_id = row["skill"]
        at_set, fn_set = persona_third_party.setdefault(persona, (set(), set()))
        traffic = per_skill_by_key.get((persona, skill_id))
        if traffic is None:
            traffic = SkillTraffic(skill_id=skill_id, persona=persona)
            per_skill_by_key[(persona, skill_id)] = traffic
        domain = row["domain"]
        if not domain:
            continue
        attribution = resolver.attribute_domain(domain)
        org, count = traffic.domains.get(
            domain, (attribution.organization, 0)
        )
        requests = row["packets"]
        traffic.domains[domain] = (org, count + requests)

        vendor = vendor_by_skill.get(skill_id, "")
        skills_by_domain[domain].add(skill_id)
        domain_org[domain] = org
        org_class = classify(org, vendor)
        skill_classes[skill_id].add(org_class)
        is_ad = filter_list.is_blocked(domain)
        traffic_matrix[(org_class, is_ad)] += requests
        if org_class == "third party":
            (at_set if is_ad else fn_set).add(domain)
            if is_ad:
                skill_ad_tracking[skill_id].add(domain)

    domain_class: Dict[str, OrgClass] = {}
    domain_is_ad: Dict[str, bool] = {}
    for domain, org in domain_org.items():
        vendors = {
            vendor_by_skill.get(s, "") for s in skills_by_domain[domain]
        }
        domain_class[domain] = classify(
            org, next(iter(vendors)) if len(vendors) == 1 else ""
        )
        domain_is_ad[domain] = filter_list.is_blocked(domain)

    return TrafficAnalysis(
        per_skill=list(per_skill_by_key.values()),
        skills_by_domain=dict(skills_by_domain),
        domain_org=domain_org,
        domain_class=domain_class,
        domain_is_ad_tracking=domain_is_ad,
        traffic_matrix=dict(traffic_matrix),
        persona_third_party=persona_third_party,
        skill_ad_tracking=dict(skill_ad_tracking),
        skill_classes=dict(skill_classes),
        failed_skills=sorted(set(install_failures)),
    )


def _persona_traffic(
    artifacts: PersonaArtifacts, resolver: OrgResolver
) -> List[SkillTraffic]:
    """Resolve one persona's captures."""
    persona = artifacts.persona.name
    return [
        _skill_traffic(skill_id, persona, capture, resolver)
        for skill_id, capture in artifacts.skill_captures.items()
    ]


def _skill_traffic(
    skill_id: str,
    persona: str,
    capture: CaptureSession,
    resolver: OrgResolver,
) -> SkillTraffic:
    """Resolve one capture's flows to domains and organizations."""
    dns_table = capture.dns_table()
    traffic = SkillTraffic(skill_id=skill_id, persona=persona)
    for flow in capture.flows():
        if flow.key[3] == "dns":
            continue
        attribution = resolver.attribute_ip(flow.remote_ip, dns_table, sni=flow.sni)
        domain = attribution.domain
        if domain is None:
            continue
        org, count = traffic.domains.get(domain, (attribution.organization, 0))
        traffic.domains[domain] = (org, count + len(flow.packets))
    return traffic


def _classify_org(org: str, vendor: str) -> OrgClass:
    if org == AMAZON:
        return "amazon"
    if vendor and _vendor_matches(org, vendor):
        return "skill vendor"
    return "third party"


def _vendor_matches(org: str, vendor: str) -> bool:
    """Fuzzy vendor/organization match on significant name tokens."""
    stop = {"inc", "inc.", "llc", "ltd", "international", "the", "b.v.", "co"}
    org_tokens = {t.strip(",.").lower() for t in org.split()} - stop
    vendor_tokens = {t.strip(",.").lower() for t in vendor.split()} - stop
    return bool(org_tokens & vendor_tokens)
