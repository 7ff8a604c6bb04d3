"""Property-based tests (hypothesis) over core data structures and math."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.core.stats import mann_whitney_u, rank_biserial
from repro.data.calibration import BidParams
from repro.netsim.endpoints import registrable_domain
from repro.netsim.http import estimate_size
from repro.netsim.packet import Direction, FlowTable, Packet, Protocol
from repro.orgmap.filterlists import FilterList
from repro.util.rng import Seed, derive_seed_int

finite_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSeedProperties:
    @given(st.integers(), st.lists(st.text(max_size=8), max_size=4))
    def test_derivation_deterministic(self, root, parts):
        assert derive_seed_int(root, parts) == derive_seed_int(root, parts)

    @given(st.integers(), st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
    def test_distinct_single_parts_distinct_streams(self, root, a, b):
        if a == b:
            return
        assert Seed(root).rng(a).random() != Seed(root).rng(b).random()

    @given(st.integers())
    def test_seed_in_64_bit_range(self, root):
        assert 0 <= derive_seed_int(root, ["x"]) < 2**64


class TestMannWhitneyProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(finite_floats, min_size=10, max_size=40),
        st.lists(finite_floats, min_size=10, max_size=40),
    )
    def test_matches_scipy(self, x, y):
        ours = mann_whitney_u(x, y, alternative="greater")
        theirs = scipy_stats.mannwhitneyu(x, y, alternative="greater")
        assert math.isclose(ours.p_value, theirs.pvalue, rel_tol=1e-6, abs_tol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(finite_floats, min_size=5, max_size=30),
        st.lists(finite_floats, min_size=5, max_size=30),
    )
    def test_effect_size_bounds(self, x, y):
        result = mann_whitney_u(x, y, alternative="two-sided")
        assert -1.0 <= result.effect_size <= 1.0
        assert 0.0 <= result.p_value <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(finite_floats, min_size=8, max_size=30))
    def test_antisymmetry(self, x):
        shifted = [v * 3.0 for v in x]
        forward = mann_whitney_u(shifted, x, alternative="greater")
        backward = mann_whitney_u(x, shifted, alternative="greater")
        assert math.isclose(
            forward.effect_size, -backward.effect_size, abs_tol=1e-12
        )

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_rank_biserial_extremes(self, n1, n2):
        assert rank_biserial(0, n1, n2) == -1.0
        assert rank_biserial(n1 * n2, n1, n2) == 1.0


class TestBidParamsProperties:
    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.001, max_value=10.0),
        st.floats(min_value=1.0, max_value=20.0),
    )
    def test_roundtrip(self, median, ratio):
        mean = median * ratio
        params = BidParams.from_median_mean(median, mean)
        assert math.isclose(params.median, median, rel_tol=1e-9)
        assert math.isclose(params.mean, mean, rel_tol=1e-9)


class TestFlowGroupingProperties:
    packets = st.lists(
        st.builds(
            Packet,
            timestamp=st.floats(min_value=0, max_value=100, allow_nan=False),
            src_ip=st.just("192.168.7.10"),
            dst_ip=st.sampled_from(["54.0.0.1", "54.0.0.2", "54.0.0.3"]),
            src_port=st.integers(1024, 65535),
            dst_port=st.sampled_from([80, 443]),
            protocol=st.sampled_from([Protocol.TLS, Protocol.HTTP]),
            size=st.integers(0, 4096),
            direction=st.just(Direction.OUTBOUND),
            device_id=st.sampled_from(["echo-1", "echo-2"]),
        ),
        max_size=40,
    )

    @settings(max_examples=50)
    @given(packets)
    def test_grouping_partitions_packets(self, pkts):
        table = FlowTable()
        for packet in pkts:
            table.add(packet)
        flows = table.seal()
        assert sum(len(f.packets) for f in flows) == len(pkts)
        keys = [f.key for f in flows]
        assert len(keys) == len(set(keys))

    @settings(max_examples=50)
    @given(packets)
    def test_total_bytes_conserved(self, pkts):
        table = FlowTable()
        for packet in pkts:
            table.add(packet)
        flows = table.seal()
        assert sum(f.total_bytes for f in flows) == sum(p.size for p in pkts)


class TestFilterListProperties:
    hosts = st.lists(
        st.from_regex(r"[a-z]{1,8}\.[a-z]{2,5}", fullmatch=True),
        min_size=1,
        max_size=10,
        unique=True,
    )

    @settings(max_examples=50)
    @given(hosts)
    def test_blocked_hosts_and_subdomains(self, hosts):
        fl = FilterList.from_hosts(hosts)
        for host in hosts:
            assert fl.is_blocked(host)
            assert fl.is_blocked(f"cdn.{host}")

    @settings(max_examples=50)
    @given(hosts)
    def test_classify_is_a_partition(self, hosts):
        fl = FilterList.from_hosts(hosts[:1])
        ad, functional = fl.classify(hosts)
        assert sorted(ad + functional) == sorted(hosts)


class TestRegistrableDomainProperties:
    @given(st.from_regex(r"([a-z]{1,6}\.){1,4}[a-z]{2,4}", fullmatch=True))
    def test_registrable_is_suffix(self, domain):
        base = registrable_domain(domain)
        assert domain.endswith(base)
        assert 1 <= base.count(".") <= 2


class TestEstimateSizeProperties:
    payloads = st.dictionaries(
        st.text(max_size=8),
        st.one_of(st.integers(), st.text(max_size=16), st.lists(st.integers(), max_size=4)),
        max_size=6,
    )

    @settings(max_examples=50)
    @given(payloads)
    def test_size_positive_and_monotone(self, payload):
        base = estimate_size(payload)
        assert base >= 64
        bigger = dict(payload)
        bigger["extra-key"] = "x" * 50
        assert estimate_size(bigger) > base
