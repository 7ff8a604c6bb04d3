"""Tests for the router, DNS, endpoint registry, and capture sessions."""

import pytest

from repro.netsim.endpoints import EndpointRegistry, registrable_domain
from repro.netsim.http import HttpRequest, HttpResponse
from repro.netsim.packet import Protocol
from repro.netsim.router import NetworkError, Router
from repro.util.clock import SimClock


@pytest.fixture
def registry():
    reg = EndpointRegistry()
    reg.register("api.amazon.com", organization="Amazon", category="functional")
    reg.register("plain.example.com", organization="Example", category="functional", port=80)
    return reg


@pytest.fixture
def router(registry):
    r = Router(registry, SimClock())
    r.register_service(
        "api.amazon.com", lambda req: HttpResponse(status=200, body={"ok": True})
    )
    r.register_service(
        "plain.example.com", lambda req: HttpResponse(status=200, body={"plain": True})
    )
    return r


class TestEndpointRegistry:
    def test_register_and_lookup(self, registry):
        ep = registry.require("api.amazon.com")
        assert registry.lookup_ip(ep.ip) is ep

    def test_idempotent_registration(self, registry):
        again = registry.register("api.amazon.com", organization="Amazon")
        assert again is registry.require("api.amazon.com")

    def test_conflicting_org_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register("api.amazon.com", organization="NotAmazon")

    def test_deterministic_ips(self):
        a = EndpointRegistry().register("x.test.com", organization="X")
        b = EndpointRegistry().register("x.test.com", organization="X")
        assert a.ip == b.ip

    def test_unknown_require_raises(self, registry):
        with pytest.raises(KeyError):
            registry.require("nope.example.org")

    def test_invalid_domain_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register("nodots", organization="X")

    def test_len_and_contains(self, registry):
        assert len(registry) == 2
        assert "api.amazon.com" in registry


class TestRegistrableDomain:
    def test_two_labels(self):
        assert registrable_domain("amazon.com") == "amazon.com"

    def test_subdomain_collapsed(self):
        assert registrable_domain("device-metrics-us-2.amazon.com") == "amazon.com"

    def test_multi_label_suffix(self):
        assert (
            registrable_domain("ingestion.us-east-1.prod.arteries.alexa.a2z.com")
            == "alexa.a2z.com"
        )


class TestRouter:
    def test_attach_assigns_unique_ips(self, router):
        ips = {router.attach_device(f"echo-{i}") for i in range(5)}
        assert len(ips) == 5

    def test_attach_idempotent(self, router):
        assert router.attach_device("echo-1") == router.attach_device("echo-1")

    def test_send_requires_attachment(self, router):
        with pytest.raises(NetworkError):
            router.send("ghost", HttpRequest("GET", "https://api.amazon.com/x"))

    def test_https_payload_hidden_sni_visible(self, router):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/v1/ping"))
        router.stop_capture(cap)
        tls = [p for p in cap if p.protocol is Protocol.TLS]
        assert len(tls) == 2
        assert all(p.payload is None for p in tls)
        assert all(p.sni == "api.amazon.com" for p in tls)

    def test_http_payload_visible(self, router):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "http://plain.example.com/x"))
        router.stop_capture(cap)
        http = [p for p in cap if p.protocol is Protocol.HTTP]
        assert http[0].payload["kind"] == "http-request"
        assert http[1].payload["kind"] == "http-response"

    def test_dns_packets_emitted_and_recoverable(self, router, registry):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/v1/ping"))
        table = cap.dns_table()
        ep = registry.require("api.amazon.com")
        assert table.domain_for_ip(ep.ip) == "api.amazon.com"

    def test_nxdomain(self, router, registry):
        router.attach_device("echo-1")
        registry.register("orphan.example.net", organization="Orphan")
        with pytest.raises(NetworkError, match="NXDOMAIN"):
            router.send("echo-1", HttpRequest("GET", "https://missing.example.net/"))

    def test_connection_refused_without_service(self, router, registry):
        router.attach_device("echo-1")
        registry.register("orphan.example.net", organization="Orphan")
        with pytest.raises(NetworkError, match="refused"):
            router.send("echo-1", HttpRequest("GET", "https://orphan.example.net/"))

    def test_capture_stop_freezes(self, router):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        n = len(cap)
        router.stop_capture(cap)
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/b"))
        assert len(cap) == n

    def test_capture_device_filter(self, router):
        router.attach_device("echo-1")
        router.attach_device("echo-2")
        cap = router.start_capture("only-echo-2", device_filter="echo-2")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        router.send("echo-2", HttpRequest("GET", "https://api.amazon.com/b"))
        router.stop_capture(cap)
        assert cap.packets
        assert all(p.device_id == "echo-2" for p in cap)

    def test_concurrent_captures_both_observe(self, router):
        router.attach_device("echo-1")
        cap1 = router.start_capture("one")
        cap2 = router.start_capture("two")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        assert len(cap1) == len(cap2) > 0

    def test_clock_advances_on_send(self, router):
        router.attach_device("echo-1")
        before = router.clock.now
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        assert router.clock.now > before

    def test_register_service_unknown_endpoint(self, router):
        with pytest.raises(NetworkError):
            router.register_service("ghost.example.com", lambda req: HttpResponse(200))


class TestHttpModels:
    def test_request_host_path_query(self):
        req = HttpRequest("GET", "https://a.example.com/p/q?x=1&y=2")
        assert req.host == "a.example.com"
        assert req.path == "/p/q"
        assert req.query == {"x": "1", "y": "2"}

    def test_with_query_merges(self):
        req = HttpRequest("GET", "https://a.example.com/p?x=1").with_query(y="2")
        assert req.query == {"x": "1", "y": "2"}

    def test_query_repeated_keys_last_wins(self):
        # The dict accessor keeps its historical last-wins shape...
        req = HttpRequest("GET", "https://a.example.com/s?uid=alpha&uid=beta")
        assert req.query == {"uid": "beta"}

    def test_query_pairs_preserves_duplicates(self):
        # ...while the pair accessors expose every value, in URL order.
        req = HttpRequest(
            "GET", "https://a.example.com/s?uid=alpha&x=1&uid=beta"
        )
        assert req.query_pairs == [("uid", "alpha"), ("x", "1"), ("uid", "beta")]
        assert req.query_values("uid") == ["alpha", "beta"]
        assert req.query_values("missing") == []

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest("FETCH", "https://a.example.com/")

    def test_bad_url_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest("GET", "not-a-url")

    def test_response_redirect_requires_3xx(self):
        with pytest.raises(ValueError):
            HttpResponse(status=200, redirect_url="https://b.example.com/")

    def test_response_ok(self):
        assert HttpResponse(status=204).ok
        assert not HttpResponse(status=404).ok
