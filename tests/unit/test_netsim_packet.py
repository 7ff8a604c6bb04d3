"""Tests for packet/flow primitives."""

import pickle

import pytest

from repro.netsim.packet import (
    Direction,
    Flow,
    FlowTable,
    Packet,
    Protocol,
    flow_key,
)


def make_packet(**overrides):
    defaults = dict(
        timestamp=1.0,
        src_ip="192.168.7.10",
        dst_ip="54.1.2.3",
        src_port=50000,
        dst_port=443,
        protocol=Protocol.TLS,
        size=512,
        direction=Direction.OUTBOUND,
        device_id="echo-1",
        sni="api.amazon.com",
    )
    defaults.update(overrides)
    return Packet(**defaults)


def group(packets):
    """Group ``packets`` the way a capture does: through a sealed FlowTable."""
    table = FlowTable()
    for packet in packets:
        table.add(packet)
    return table.seal()


class TestPacket:
    def test_encrypted_when_payload_none(self):
        assert make_packet(payload=None).is_encrypted

    def test_not_encrypted_with_payload(self):
        assert not make_packet(payload={"kind": "http-request"}).is_encrypted

    def test_remote_ip_outbound(self):
        assert make_packet().remote_ip == "54.1.2.3"

    def test_remote_ip_inbound(self):
        pkt = make_packet(
            direction=Direction.INBOUND, src_ip="54.1.2.3", dst_ip="192.168.7.10"
        )
        assert pkt.remote_ip == "54.1.2.3"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_packet(size=-1)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            make_packet(dst_port=70000)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_packet().size = 5  # type: ignore[misc]


class TestGroupFlows:
    def test_bidirectional_packets_share_flow(self):
        out = make_packet()
        back = make_packet(
            direction=Direction.INBOUND,
            src_ip="54.1.2.3",
            dst_ip="192.168.7.10",
            src_port=443,
            dst_port=50000,
        )
        flows = group([out, back])
        assert len(flows) == 1
        assert flows[0].total_bytes == 1024

    def test_different_remotes_different_flows(self):
        flows = group([make_packet(), make_packet(dst_ip="54.9.9.9")])
        assert len(flows) == 2

    def test_different_devices_different_flows(self):
        flows = group([make_packet(), make_packet(device_id="echo-2")])
        assert len(flows) == 2

    def test_flow_sni_first_non_null(self):
        flows = group([make_packet(sni=None), make_packet(sni="x.amazon.com")])
        assert flows[0].sni == "x.amazon.com"

    def test_flow_properties(self):
        flow = group([make_packet(timestamp=5.0), make_packet(timestamp=2.0)])[0]
        assert flow.device_id == "echo-1"
        assert flow.remote_ip == "54.1.2.3"
        assert flow.remote_port == 443
        assert flow.first_timestamp == 2.0

    def test_empty_input(self):
        assert group([]) == []


class TestFlowSealing:
    def test_seal_freezes_aggregates(self):
        flow = Flow(key=flow_key(make_packet()))
        flow._observe(make_packet(timestamp=5.0, sni=None, size=100))
        flow._observe(make_packet(timestamp=2.0, size=400))
        assert not flow.sealed
        flow.seal()
        assert flow.sealed
        assert flow.total_bytes == 500
        assert flow.first_timestamp == 2.0
        assert flow.sni == "api.amazon.com"

    def test_seal_empty_flow_raises(self):
        with pytest.raises(ValueError, match="empty flow"):
            Flow(key=("d", "ip", 443, "tls")).seal()

    def test_sealed_flow_rejects_new_packets(self):
        flow = Flow(key=flow_key(make_packet()))
        flow._observe(make_packet())
        flow.seal()
        with pytest.raises(ValueError, match="sealed"):
            flow._observe(make_packet())


class TestFlowTable:
    def test_flows_created_only_on_first_packet(self):
        """The invariant that makes sealed flows non-empty by construction."""
        table = FlowTable()
        assert len(table) == 0
        table.add(make_packet())
        assert len(table) == 1
        for flow in table.seal():
            assert flow.packets

    def test_seal_is_idempotent_and_freezes_table(self):
        table = FlowTable()
        table.add(make_packet())
        first = table.seal()
        assert table.seal() == first
        assert all(flow.sealed for flow in first)
        with pytest.raises(ValueError, match="sealed"):
            table.add(make_packet())

    def test_get_and_iteration(self):
        packet = make_packet()
        table = FlowTable()
        table.add(packet)
        assert table.get(flow_key(packet)) is not None
        assert table.get(("missing", "ip", 1, "tls")) is None
        assert [f.key for f in table] == [flow_key(packet)]

    def test_pickle_round_trip_preserves_sealed_aggregates(self):
        table = FlowTable()
        table.add(make_packet(size=100))
        table.add(make_packet(size=200))
        sealed = table.seal()
        restored = pickle.loads(pickle.dumps(table))
        assert [f.key for f in restored.seal()] == [f.key for f in sealed]
        assert restored.seal()[0].total_bytes == 300
        assert restored.seal()[0].sealed
