"""Optimized-pipeline equivalence across all four campaign modes.

The sealed-flow capture path, the memoized analysis caches, and the
copy-on-read dataset cache are pure performance work: they must not
move a single exported byte.  This test pins that down across four
modes — serial and 4-worker parallel, each under a healthy network and
under mild fault injection — by checking that every export file is
byte-identical between serial and parallel for both fault profiles.
It also pins the fast paths' counters exactly, and checks the §4
traffic matrix against a naive reference that re-derives everything
from the raw packets.
"""

import hashlib
from collections import Counter

import pytest

from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES, export_dataset
from repro.core.traffic import _classify_org, analyze_traffic
from repro.data.domains import PIHOLE_FILTER_TEXT
from repro.netsim.dns import DnsTable
from repro.netsim.packet import Flow, flow_key
from repro.orgmap.filterlists import FilterList, parse_rules
from repro.orgmap.resolver import OrgResolver
from repro.util.rng import Seed

SEED_ROOT = 42


def _config(fault_profile, skills_per_persona=2):
    return ExperimentConfig(
        skills_per_persona=skills_per_persona,
        pre_iterations=1,
        post_iterations=1,
        crawl_sites=2,
        prebid_discovery_target=5,
        audio_hours=0.5,
        fault_profile=fault_profile,
    )


def _export_digests(dataset, out_dir):
    export_dataset(dataset, out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


class TestFourModeEquivalence:
    @pytest.mark.parametrize("fault_profile", ["none", "mild"])
    def test_serial_and_parallel_exports_identical(self, tmp_path, fault_profile):
        config = _config(fault_profile)
        serial = run_campaign(config, Seed(SEED_ROOT))
        parallel = run_campaign(config, Seed(SEED_ROOT), parallel=True, workers=4)
        serial_digests = _export_digests(serial, tmp_path / "serial")
        parallel_digests = _export_digests(parallel, tmp_path / "parallel")
        mismatched = [
            name
            for name in EXPORT_FILES
            if serial_digests[name] != parallel_digests[name]
        ]
        assert not mismatched, (
            f"[faults={fault_profile}] parallel exports diverged: {mismatched}"
        )

    def test_obs_counters_present(self, monkeypatch):
        """The fast paths' counters, exact for this config and seed."""
        dataset = run_campaign(_config("none"), Seed(SEED_ROOT))
        assert dataset.obs is not None
        # One sealed flow per (device, remote endpoint, port, protocol)
        # of each capture, sealed once when the capture stops.
        assert dataset.obs.metrics.value("flows.sealed") == 108

        world = dataset.world
        vendor_by_skill = {s.skill_id: s.vendor for s in world.catalog}
        resolver = world.org_resolver()
        lookups = Counter()
        entity_for_domain = world.entity_db.entity_for_domain

        def counted(domain):
            lookups[domain] += 1
            return entity_for_domain(domain)

        monkeypatch.setattr(world.entity_db, "entity_for_domain", counted)

        # Analysis reads the sealed flows and DNS tables the captures
        # built; it never regroups packets or rebuilds a DNS table.
        def regrouped(*args, **kwargs):
            raise AssertionError("analysis re-scanned a capture's packets")

        monkeypatch.setattr(Flow, "_observe", regrouped)
        monkeypatch.setattr(DnsTable, "add_packet", regrouped)
        analyze_traffic(dataset, resolver, world.filter_list, vendor_by_skill)

        # The resolver resolves each of the 15 distinct domains once and
        # serves the 75 repeat lookups from its memo.
        assert len(lookups) == 15
        assert set(lookups.values()) == {1}
        assert resolver.cache_hits == 75
        assert dataset.obs.metrics.value("analysis.domain_cache_hits") == 252

    def test_traffic_matrix_matches_reference_scan(self):
        """Table 2's traffic matrix equals a naive re-derivation.

        The reference regroups every capture's packets by ``flow_key``,
        rebuilds each capture's DNS table from its packets, and resolves
        and classifies every (skill, domain) with a fresh resolver and
        filter list, so no cache or incremental aggregate is shared with
        the pipeline under test.  Fifty skills per persona under mild
        faults reach every organization class.
        """
        dataset = run_campaign(
            _config("mild", skills_per_persona=50), Seed(SEED_ROOT), obs=False
        )
        world = dataset.world
        vendor_by_skill = {s.skill_id: s.vendor for s in world.catalog}
        analysis = analyze_traffic(
            dataset, world.org_resolver(), world.filter_list, vendor_by_skill
        )
        reference = _reference_traffic_matrix(dataset, vendor_by_skill)
        assert {org_class for org_class, _ in reference} == {
            "amazon",
            "skill vendor",
            "third party",
        }
        assert analysis.traffic_matrix == reference


def _reference_traffic_matrix(dataset, vendor_by_skill):
    """The §4 traffic matrix, re-derived from raw packets without caches."""
    world = dataset.world
    rules = parse_rules(PIHOLE_FILTER_TEXT.splitlines())
    matrix = Counter()
    for artifacts in dataset.interest_personas:
        for skill_id, capture in artifacts.skill_captures.items():
            dns_table = DnsTable()
            groups = {}
            for packet in capture.packets:
                dns_table.add_packet(packet)
                groups.setdefault(flow_key(packet), []).append(packet)
            domains = {}
            for key, packets in groups.items():
                if key[3] == "dns":
                    continue
                sni = next((p.sni for p in packets if p.sni is not None), None)
                resolver = OrgResolver(world.entity_db, world.whois)
                attribution = resolver.attribute_ip(key[1], dns_table, sni=sni)
                if attribution.domain is None:
                    continue
                org, count = domains.get(
                    attribution.domain, (attribution.organization, 0)
                )
                domains[attribution.domain] = (org, count + len(packets))
            vendor = vendor_by_skill.get(skill_id, "")
            for domain, (org, requests) in domains.items():
                is_ad = FilterList(rules).is_blocked(domain)
                matrix[(_classify_org(org, vendor), is_ad)] += requests
    return dict(matrix)
