"""Capture-gated packets: the router builds a packet only for a session that records it.

Like tcpdump on the paper's RPi router, a capture sees only the traffic
inside its window.  Outside one, everything else about a request must be
unchanged: DNS resolution, fault decisions, ephemeral ports, simulated
time, raised errors, responses and the ``packets_forwarded`` wire count.
"""

from collections.abc import Mapping
from enum import Enum
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netsim.router as router_module
from repro.defenses.blocking import BlockingRouter
from repro.netsim.endpoints import EndpointRegistry
from repro.netsim.faults import FaultPlan, FaultProfile
from repro.netsim.http import HttpRequest, HttpResponse, estimate_size
from repro.netsim.router import NetworkError, Router
from repro.orgmap.filterlists import FilterList
from repro.util.clock import SimClock
from repro.util.rng import Seed

TLS_URL = "https://svc.example.com/v1/ping?id=7"
PLAIN_URL = "http://plain.example.com/x?y=1"


def build_router(fault_kind=None):
    registry = EndpointRegistry()
    registry.register("svc.example.com", organization="Example")
    registry.register("plain.example.com", organization="Example", port=80)
    registry.register("orphan.example.com", organization="Orphan")
    faults = None
    if fault_kind is not None:
        profile = FaultProfile(name=f"always-{fault_kind}", **{f"{fault_kind}_rate": 1.0})
        faults = FaultPlan(Seed(3), profile)
    router = Router(registry, SimClock(), faults=faults)
    router.register_service(
        "svc.example.com", lambda req: HttpResponse(status=200, body={"ok": 1, "q": req.query})
    )
    router.register_service(
        "plain.example.com",
        lambda req: HttpResponse(status=200, set_cookies={"uid": "u1"}, body={"items": [1, 2.5, None]}),
    )
    router.attach_device("echo-1")
    router.attach_device("echo-2")
    return router


def drive(router, calls):
    """Run ``calls`` and return everything observable apart from packets."""
    inner = getattr(router, "_inner", router)  # a BlockingRouter wraps one
    trace = []
    for call in calls:
        try:
            outcome = call(router)
        except NetworkError as exc:
            outcome = f"error: {exc}"
        trace.append(
            (
                outcome,
                router.clock.now,
                router.packets_forwarded,
                inner._ports_drawn,
            )
        )
    return trace


def send(device, url):
    return lambda router: router.send(device, HttpRequest("GET", url))


HEALTHY_CALLS = [
    send("echo-1", TLS_URL),
    send("echo-1", PLAIN_URL),
    send("echo-2", TLS_URL),
    send("echo-1", "https://missing.example.com/"),  # NXDOMAIN
    send("echo-1", "https://orphan.example.com/"),  # connection refused
    lambda router: router.dns_blackhole("echo-1", "ads.example.com"),
    send("echo-1", TLS_URL),
]


@pytest.fixture
def built(monkeypatch):
    """Count every ``Packet`` the router builds and every size it computes.

    A size is an ``estimate_size`` call in the router or a ``wire_size``
    call on either message type.
    """
    counts = {"packets": 0, "sizes": 0}
    packet_cls, size_fn = router_module.Packet, router_module.estimate_size

    def packet(*args, **kwargs):
        counts["packets"] += 1
        return packet_cls(*args, **kwargs)

    def counted(fn):
        def sized(*args):
            counts["sizes"] += 1
            return fn(*args)

        return sized

    monkeypatch.setattr(router_module, "Packet", packet)
    monkeypatch.setattr(router_module, "estimate_size", counted(size_fn))
    for message_cls in (HttpRequest, HttpResponse):
        monkeypatch.setattr(message_cls, "wire_size", counted(message_cls.wire_size))
    return counts


def run_captured(calls, fault_kind=None, device_filter=None):
    router = build_router(fault_kind)
    session = router.start_capture("all", device_filter=device_filter)
    trace = drive(router, calls)
    router.stop_capture(session)
    return trace, session


class TestNoCaptureOpen:
    def test_builds_and_sizes_nothing(self, built):
        drive(build_router(), HEALTHY_CALLS)
        assert built == {"packets": 0, "sizes": 0}

    def test_everything_else_matches_a_captured_run(self):
        uncaptured = drive(build_router(), HEALTHY_CALLS)
        captured, session = run_captured(HEALTHY_CALLS)
        assert uncaptured == captured
        # Every packet put on the wire was recorded by the open capture.
        assert captured[-1][2] == len(session) == 4 * 4 + 2 + 2 + 2

    def test_ports_advance_without_a_capture(self):
        # The first send's port is drawn although nobody records it.
        router = build_router()
        router.send("echo-1", HttpRequest("GET", TLS_URL))
        session = router.start_capture("late")
        router.send("echo-1", HttpRequest("GET", TLS_URL))
        assert {p.src_port for p in session if p.dst_port == 443} == {49153}

    def test_stopped_capture_gates_like_none(self, built):
        router = build_router()
        router.stop_capture(router.start_capture("closed"))
        drive(router, HEALTHY_CALLS)
        assert built == {"packets": 0, "sizes": 0}

    def test_packets_built_equal_packets_captured(self, built):
        _, session = run_captured(HEALTHY_CALLS)
        assert built["packets"] == len(session)
        # One size per HTTP packet (8) and per DNS packet of a cold
        # ``(host, answer)`` pair: svc, plain, missing, orphan and the
        # blackholed host, 2 each (10).  The repeated svc lookups are warm.
        assert built["sizes"] == 8 + 10 == 18


class TestDeviceFilter:
    CALLS = [send("echo-1", TLS_URL)]

    def test_other_device_records_nothing(self, built):
        _, session = run_captured(self.CALLS, device_filter="echo-2")
        assert len(session) == 0
        assert built == {"packets": 0, "sizes": 0}

    def test_filtered_equals_unfiltered(self):
        _, filtered = run_captured(self.CALLS, device_filter="echo-1")
        _, unfiltered = run_captured(self.CALLS)
        assert len(filtered) == 4
        assert filtered.packets == unfiltered.packets
        assert [p.size for p in filtered] == [p.size for p in unfiltered]

    def test_sessions_get_only_their_devices_packets(self):
        router = build_router()
        one = router.start_capture("one", device_filter="echo-1")
        two = router.start_capture("two", device_filter="echo-2")
        both = router.start_capture("both")
        drive(router, [send("echo-1", TLS_URL), send("echo-2", PLAIN_URL)])
        assert {p.device_id for p in one} == {"echo-1"}
        assert {p.device_id for p in two} == {"echo-2"}
        assert both.packets == one.packets + two.packets

    def test_accepts(self):
        session = Router(EndpointRegistry(), SimClock()).start_capture("s", "echo-1")
        assert session.accepts("echo-1") and not session.accepts("echo-2")
        session.stop()
        assert not session.accepts("echo-1")


class TestFaultPaths:
    CALLS = [send("echo-1", TLS_URL), send("echo-1", PLAIN_URL)]

    @pytest.mark.parametrize(
        "fault_kind, packets_per_send",
        [("nxdomain", 2), ("timeout", 3), ("http_5xx", 4), ("slow", 4)],
    )
    def test_injected_faults_match_under_both_states(self, fault_kind, packets_per_send):
        uncaptured = drive(build_router(fault_kind), self.CALLS)
        captured, session = run_captured(self.CALLS, fault_kind)
        assert uncaptured == captured
        assert len(session) == captured[-1][2] == 2 * packets_per_send

    def test_blocked_request_matches_under_both_states(self, built):
        def blocking_calls(router):
            blocking = BlockingRouter(router, FilterList.from_hosts(["svc.example.com"]))
            return drive(blocking, [send("echo-1", TLS_URL), send("echo-1", PLAIN_URL)])

        uncaptured = blocking_calls(build_router())
        assert built["packets"] == 0
        router = build_router()
        session = router.start_capture("blocked")
        captured = blocking_calls(router)
        assert uncaptured == captured
        assert uncaptured[0][0].startswith("error: blocked by policy")
        assert uncaptured[0][2] == 2  # the blackholed DNS pair is on the wire
        assert [p.payload["kind"] for p in session][:2] == ["dns-query", "dns-response"]
        assert len(session) == captured[-1][2] == 2 + 4


class TestEndpointPorts:
    @pytest.mark.parametrize("port", [-1, 65536, 100_000])
    def test_out_of_range_port_rejected_at_registration(self, port):
        with pytest.raises(ValueError, match="port out of range"):
            EndpointRegistry().register("bad.example.com", organization="X", port=port)

    @pytest.mark.parametrize("port", [0, 80, 65535])
    def test_packet_range_accepted(self, port):
        assert EndpointRegistry().register("ok.example.com", organization="X", port=port).port == port


def recursive_estimate_size(payload):
    """The recursive ``estimate_size`` the iterative one replaced: the oracle."""

    def measure(value):
        kind = type(value)
        if kind is str:
            return len(value)
        if kind is dict or isinstance(value, Mapping):
            return sum(len(str(k)) + measure(v) + 4 for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return sum(measure(v) + 2 for v in value)
        return len(str(value))

    return 64 + measure(payload)


class Tag(str):
    """A ``str`` subclass whose ``str()`` differs from its value."""

    def __str__(self):
        return f"<tag {super().__str__()}>"


class Color(str, Enum):
    RED = "r"
    GREEN = "green"


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.text(max_size=6).map(Tag),
    st.sampled_from(Color),
)
keys = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.booleans(),
    st.text(max_size=4).map(Tag),
    st.sampled_from(Color),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(MappingProxyType),
    ),
    max_leaves=25,
)


class TestEstimateSize:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.dictionaries(keys, values, max_size=5), values))
    def test_iterative_equals_recursive(self, payload):
        assert estimate_size(payload) == recursive_estimate_size(payload)

    def test_str_subclasses_size_by_their_str(self):
        payload = {Color.RED: Color.GREEN, "tag": Tag("ab"), 7: [Color.RED, (None, 1.5)]}
        assert estimate_size(payload) == recursive_estimate_size(payload)
        assert estimate_size({"k": Color.GREEN}) == 64 + 1 + 4 + len(str(Color.GREEN))

    def test_real_messages(self):
        request = HttpRequest(
            "POST", TLS_URL, headers={"a": "b"}, cookies={"c": "d"}, body={"x": [1, {"y": None}]}
        )
        response = HttpResponse(status=302, body={"ok": True}, redirect_url=PLAIN_URL)
        for payload in (request.to_payload(), response.to_payload(), {}):
            assert estimate_size(payload) == recursive_estimate_size(payload)
