"""The device hop's shortcuts against the work they replace.

A TLS packet is sized from its message's fields instead of from the
payload a passive observer never sees; DNS sizes are memoised per host
and answer; Echo devices build their requests from parts; flows are
keyed from the packet fields directly.  Each shortcut is checked here
against the code path it replaced: they may only save work, never
change a byte.
"""

import pickle
from enum import Enum
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netsim.faults as faults_module
import repro.netsim.http as http_module
import repro.netsim.router as router_module
from repro.alexa.device import EchoDevice
from repro.core.world import build_world
from repro.netsim.endpoints import EndpointRegistry
from repro.netsim.faults import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.netsim.http import HttpRequest, HttpResponse, estimate_size
from repro.netsim.packet import Direction, Packet, Protocol, flow_key
from repro.netsim.router import NetworkError, Router
from repro.obs.collector import ObsCollector
from repro.util.clock import SimClock
from repro.util.rng import Seed, StreamFamily

TLS_URL = "https://svc.example.com/v1/ping?id=7"
PLAIN_URL = "http://plain.example.com/x?y=1&y=2"


class Color(str, Enum):
    """A ``str`` enum: sized by its ``str()``, not its value."""

    RED = "r"
    GREEN = "green"


class Level(Enum):
    LOW = 1
    HIGH = 2


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.sampled_from(Color),
    st.sampled_from(Level),
)
keys = st.one_of(
    st.text(max_size=8), st.integers(), st.booleans(), st.sampled_from(Color), st.sampled_from(Level)
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=20,
)
# Field mappings: plain dicts, and a read-only view the payload copies.
mappings = st.one_of(
    st.dictionaries(keys, values, max_size=4),
    st.dictionaries(keys, values, max_size=4).map(MappingProxyType),
)
hosts = st.sampled_from(["a.example.com", "ads.bid-exchange.com", "x.co"])
paths = st.sampled_from(["", "/", "/v1/events", "/p/q;params"])
query_keys = st.sampled_from(["uid", "id", "x", "cb"])
# Repeated keys are the point: the payload's query keeps the last value.
query_pairs = st.lists(st.tuples(query_keys, st.text(min_size=1, max_size=6)), max_size=5)
query_strings = st.lists(
    st.tuples(query_keys, st.sampled_from(["1", "a", "b%20c", ""])), max_size=5
).map(lambda pairs: "&".join(f"{k}={v}" for k, v in pairs))


@st.composite
def url_requests(draw):
    query = draw(query_strings)
    url = f"{draw(st.sampled_from(['http', 'https']))}://{draw(hosts)}{draw(paths)}"
    return HttpRequest(
        draw(st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD"])),
        url + (f"?{query}" if query else ""),
        headers=draw(mappings),
        cookies=draw(mappings),
        body=draw(mappings),
    )


@st.composite
def part_requests(draw):
    return HttpRequest.from_parts(
        draw(st.sampled_from(["GET", "POST"])),
        draw(st.sampled_from(["http", "https"])),
        draw(hosts),
        draw(paths),
        query_pairs=tuple(draw(query_pairs)),
        headers=draw(mappings),
        cookies=draw(mappings),
        body=draw(mappings),
    )


@st.composite
def responses(draw):
    status = draw(st.integers(100, 599))
    redirect = draw(st.none() | st.just(PLAIN_URL)) if 300 <= status <= 399 else None
    return HttpResponse(
        status=status,
        headers=draw(mappings),
        set_cookies=draw(mappings),
        body=draw(mappings),
        redirect_url=redirect,
    )


class TestWireSize:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(url_requests(), part_requests()))
    def test_request_equals_payload_size(self, request):
        assert request.wire_size() == estimate_size(request.to_payload())

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(url_requests(), part_requests()), mappings)
    def test_with_cookies_copy_equals_payload_size(self, request, cookies):
        copy = request.with_cookies(cookies)
        assert copy.wire_size() == estimate_size(copy.to_payload())
        assert request.wire_size() == estimate_size(request.to_payload())

    @settings(max_examples=300, deadline=None)
    @given(responses())
    def test_response_equals_payload_size(self, response):
        assert response.wire_size() == estimate_size(response.to_payload())

    def test_duplicate_query_keys_size_the_last_value(self):
        request = HttpRequest("GET", "https://a.example.com/s?uid=aaaa&uid=b")
        assert request.query == {"uid": "b"}
        assert request.wire_size() == estimate_size(request.to_payload())

    def test_builds_no_payload(self, monkeypatch):
        def refuse(self):
            raise AssertionError("to_payload called")

        request = HttpRequest("POST", TLS_URL, headers={"a": "b"}, body={"x": [1, None]})
        response = HttpResponse(status=302, set_cookies={"c": "d"}, redirect_url=PLAIN_URL)
        expected = [estimate_size(m.to_payload()) for m in (request, response)]
        monkeypatch.setattr(HttpRequest, "to_payload", refuse)
        monkeypatch.setattr(HttpResponse, "to_payload", refuse)
        assert [request.wire_size(), response.wire_size()] == expected


def build_router():
    registry = EndpointRegistry()
    registry.register("svc.example.com", organization="Example")
    registry.register("plain.example.com", organization="Example", port=80)
    router = Router(registry, SimClock())
    router.register_service(
        "svc.example.com",
        lambda req: HttpResponse(status=200, headers={"h": "v"}, body={"ok": 1, "q": req.query}),
    )
    router.register_service(
        "plain.example.com",
        lambda req: HttpResponse(status=200, set_cookies={"uid": "u1"}, body={"items": [1, 2.5, None]}),
    )
    router.attach_device("echo-1")
    return router


def send_captured(router, *requests):
    session = router.start_capture("s")
    responses = [router.send("echo-1", request) for request in requests]
    router.stop_capture(session)
    return session, responses


class TestRouterPackets:
    def test_tls_packet_hides_payload_at_the_old_size(self):
        request = HttpRequest("POST", TLS_URL, cookies={"c": "1"}, body={"x": [1, {"y": None}]})
        session, (response,) = send_captured(build_router(), request)
        outbound, inbound = [p for p in session if p.protocol is Protocol.TLS]
        assert outbound.payload is None and inbound.payload is None
        assert outbound.size == estimate_size(request.to_payload())
        assert inbound.size == estimate_size(response.to_payload())

    def test_plaintext_packet_keeps_its_payload(self):
        request = HttpRequest("GET", PLAIN_URL, headers={"a": "b"})
        session, (response,) = send_captured(build_router(), request)
        outbound, inbound = [p for p in session if p.protocol is Protocol.HTTP]
        assert outbound.payload == request.to_payload()
        assert inbound.payload == response.to_payload()
        assert outbound.size == estimate_size(request.to_payload())
        assert inbound.size == estimate_size(response.to_payload())

    def test_dns_sizes_equal_cold_and_warm(self):
        router = build_router()
        request = HttpRequest("GET", TLS_URL)
        session, _ = send_captured(router, request, request)
        dns = [p for p in session if p.protocol is Protocol.DNS]
        assert len(dns) == 4
        cold, warm = dns[:2], dns[2:]
        assert [p.size for p in cold] == [p.size for p in warm]
        assert [p.payload for p in cold] == [p.payload for p in warm]
        assert [p.size for p in dns] == [estimate_size(p.payload) for p in dns]

    def test_nxdomain_and_blackhole_dns_sizes(self):
        router = build_router()
        session = router.start_capture("s")
        for _ in range(2):
            with pytest.raises(NetworkError):
                router.send("echo-1", HttpRequest("GET", "https://missing.example.com/"))
            router.dns_blackhole("echo-1", "ads.example.com")
        router.stop_capture(session)
        assert len(session) == 8
        assert [p.size for p in session] == [estimate_size(p.payload) for p in session]
        assert session.packets[1].payload["answers"] == []
        assert session.packets[3].payload["answers"] == [
            {"domain": "ads.example.com", "ip": router_module.BLACKHOLE_IP, "ttl": 2}
        ]

    def test_ports_advance_per_request(self):
        session, _ = send_captured(build_router(), *[HttpRequest("GET", TLS_URL)] * 3)
        ports = [p.src_port for p in session if p.direction is Direction.OUTBOUND and p.dst_port == 443]
        assert ports == [49152, 49153, 49154]


class TestStopCapture:
    def test_stopping_twice_counts_flows_once(self):
        router = build_router()
        router.obs = ObsCollector()
        session = router.start_capture("s")
        router.send("echo-1", HttpRequest("GET", TLS_URL))
        router.stop_capture(session)
        assert router.obs.metrics.value("flows.sealed") == 2  # DNS and TLS
        router.stop_capture(session)
        assert router.obs.metrics.value("flows.sealed") == 2

    def test_stopping_one_session_leaves_an_equal_one_live(self):
        router = build_router()
        first, second = router.start_capture("s"), router.start_capture("s")
        router.stop_capture(first)
        router.stop_capture(first)
        router.send("echo-1", HttpRequest("GET", TLS_URL))
        assert len(first) == 0 and len(second) == 4


def property_flow_key(packet):
    """The property-based ``flow_key`` the direct one replaced: the oracle."""
    return (packet.device_id, packet.remote_ip, packet.remote_port, packet.protocol.value)


class TestFlowKey:
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_equals_property_key(self, direction, protocol):
        packet = Packet(
            timestamp=1.0, src_ip="192.168.7.10", dst_ip="52.1.2.3", src_port=49152,
            dst_port=443, protocol=protocol, size=10, direction=direction, device_id="echo-1",
        )
        assert flow_key(packet) == property_flow_key(packet)

    @pytest.mark.parametrize("field", ["src_port", "dst_port"])
    @pytest.mark.parametrize("port", [-1, 65536])
    def test_either_port_out_of_range_rejected(self, field, port):
        fields = dict(
            timestamp=0.0, src_ip="a", dst_ip="b", src_port=1, dst_port=2,
            protocol=Protocol.TLS, size=0, direction=Direction.OUTBOUND, device_id="d",
        )
        with pytest.raises(ValueError, match=f"port out of range: {port}"):
            Packet(**{**fields, field: port})


class TestDeviceRequests:
    def test_from_parts_equals_the_parsed_url_for_every_endpoint(self):
        world = build_world(Seed(42))
        body = {"event": "device-sync", "batch": 0}
        for endpoint in world.router.registry:
            host = endpoint.domain
            built = HttpRequest.from_parts("POST", "https", host, "/v1/events", body=body)
            parsed = HttpRequest("POST", f"https://{host}/v1/events", body=body)
            assert built == parsed
            assert built.to_payload() == parsed.to_payload()
            assert built.wire_size() == parsed.wire_size()

    def test_send_builds_from_parts_without_parsing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("URL parsed or encoded")

        sent = []

        class StubRouter:
            clock = SimClock()

            def send(self, device_id, request):
                sent.append(request)
                return HttpResponse(status=200)

        device = object.__new__(EchoDevice)
        device.device_id, device.router = "echo-1", StubRouter()
        device.retry, device.obs = DEFAULT_RETRY_POLICY, None
        monkeypatch.setattr(http_module, "urlparse", refuse)
        monkeypatch.setattr(http_module, "urlencode", refuse)
        device._send("api.amazonalexa.com", {"event": "skill-data"})
        monkeypatch.undo()
        assert sent == [
            HttpRequest("POST", "https://api.amazonalexa.com/v1/events", body={"event": "skill-data"})
        ]


class TestRetryPolicy:
    def test_retries_the_routers_network_error(self):
        calls = []

        def attempt():
            calls.append(1)
            raise NetworkError("down")

        with pytest.raises(NetworkError):
            RetryPolicy(max_attempts=3).call(SimClock(), attempt)
        assert len(calls) == 3

    def test_network_error_is_one_class_and_pickles(self):
        assert NetworkError is faults_module.NetworkError
        error = pickle.loads(pickle.dumps(NetworkError("NXDOMAIN: x")))
        assert type(error) is NetworkError and str(error) == "NXDOMAIN: x"


class TestStreamFamily:
    def test_keys_are_stringified(self):
        family = StreamFamily(Seed(1), "ns")
        assert family.stream(1) is family.stream("1")
        assert family.stream("a", 2) is family.stream("a", "2")
        assert family.stream(1).random() == Seed(1).rng("ns", "1").random()


def test_smallest_messages():
    """Empty fields add nothing to the payload skeletons' sizes."""
    request = HttpRequest.from_parts("GET", "http", "h", "")
    response = HttpResponse(status=200)
    assert request.wire_size() == estimate_size(request.to_payload())
    assert response.wire_size() == estimate_size(response.to_payload())
