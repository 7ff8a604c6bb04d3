"""Property tests: incremental FlowTable grouping vs a naive reference.

The sealed-flow pipeline claims that building flows *as packets arrive*
(``FlowTable.add`` + ``seal``) is observationally identical to a
post-hoc re-scan of the packet list: same flow keys, same key order
(first-packet insertion order), same per-flow packet sequences, and
same aggregates.  These tests check that claim against an
independent naive grouping on randomized seeded streams — including
streams salted with the fault shapes the campaign injects (NXDOMAIN
answers, HTTP 5xx bodies) — and against the captures of a real
mild-faulted campaign.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.netsim.packet import Direction, FlowTable, Packet, Protocol, flow_key

LAN_IP = "192.168.7.10"
REMOTES = ("54.1.2.3", "54.9.9.9", "13.33.0.1")
DEVICES = ("echo-1", "echo-2")
SNIS = (None, "api.amazon.com", "ads.tracker.example")
#: Payload shapes seen on the wire, including the injected-fault ones:
#: an empty DNS answer set (NXDOMAIN) and an injected HTTP 5xx body.
PAYLOADS = (
    None,
    {"kind": "http-response", "status": 503, "error": "service unavailable"},
    {"kind": "dns-response", "answers": []},
    {
        "kind": "dns-response",
        "answers": [{"domain": "api.amazon.com", "ip": "54.1.2.3", "ttl": 60}],
    },
)


@st.composite
def packets(draw):
    protocol = draw(st.sampled_from((Protocol.TLS, Protocol.HTTP, Protocol.DNS)))
    remote = draw(st.sampled_from(REMOTES))
    remote_port = draw(st.sampled_from((443, 80, 53)))
    outbound = draw(st.booleans())
    if outbound:
        src_ip, dst_ip = LAN_IP, remote
        src_port, dst_port = 50000, remote_port
    else:
        src_ip, dst_ip = remote, LAN_IP
        src_port, dst_port = remote_port, 50000
    return Packet(
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        size=draw(st.integers(min_value=0, max_value=4096)),
        direction=Direction.OUTBOUND if outbound else Direction.INBOUND,
        device_id=draw(st.sampled_from(DEVICES)),
        sni=draw(st.sampled_from(SNIS)),
        payload=draw(st.sampled_from(PAYLOADS)),
    )


def reference_groups(stream):
    """Independent naive grouping: dict keyed in first-packet order."""
    groups = {}
    for packet in stream:
        groups.setdefault(flow_key(packet), []).append(packet)
    return groups


def assert_flows_match_reference(flows, stream):
    groups = reference_groups(stream)
    assert [flow.key for flow in flows] == list(groups)
    for flow in flows:
        expected = groups[flow.key]
        assert flow.packets == expected
        assert flow.total_bytes == sum(p.size for p in expected)
        assert flow.first_timestamp == min(p.timestamp for p in expected)
        expected_sni = next((p.sni for p in expected if p.sni is not None), None)
        assert flow.sni == expected_sni


class TestFlowTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(packets(), max_size=120))
    def test_incremental_equals_reference(self, stream):
        table = FlowTable()
        for packet in stream:
            table.add(packet)
        assert_flows_match_reference(table.seal(), stream)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(packets(), min_size=1, max_size=120))
    def test_sealed_flows_are_never_empty(self, stream):
        table = FlowTable()
        for packet in stream:
            table.add(packet)
        for flow in table.seal():
            assert flow.packets  # invariant: a flow exists only with ≥1 packet
            flow.first_timestamp  # must never raise on a sealed flow


class TestFaultedCampaignCaptures:
    def test_mild_faulted_captures_match_reference(self):
        """Real injected 5xx/NXDOMAIN packets group identically."""
        config = ExperimentConfig(
            skills_per_persona=2,
            pre_iterations=1,
            post_iterations=1,
            crawl_sites=2,
            prebid_discovery_target=5,
            audio_hours=0.5,
            fault_profile="mild",
        )
        dataset = run_campaign(config, 42, obs=False)
        captures = [
            capture
            for artifacts in dataset.interest_personas
            for capture in artifacts.skill_captures.values()
        ]
        assert captures
        for capture in captures:
            assert_flows_match_reference(capture.flows(), capture.packets)
