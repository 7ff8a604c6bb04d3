"""The RPi bridged-access-point router.

All device traffic transits the router, which is where the auditor's
vantage point sits.  The router:

* assigns each attached device a unique LAN IP (one persona per IP, §3.1);
* answers DNS from the endpoint registry, emitting cleartext DNS packets;
* forwards HTTP(S) requests to registered service handlers and emits
  request/response packets into every active capture session — with the
  payload stripped when the transport is TLS, since the router cannot
  decrypt it.

Services (the Alexa cloud, skill backends, ad servers, websites) register a
handler per domain.  This keeps the "Internet" a single dispatch table
while letting every subsystem implement arbitrarily rich behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.netsim.dns import DNS_PORT, DnsServer
from repro.netsim.endpoints import Endpoint, EndpointRegistry
from repro.netsim.faults import DNS_FAILURE_SECONDS, FaultPlan
from repro.netsim.http import HttpRequest, HttpResponse, estimate_size
from repro.netsim.packet import Direction, Packet, Protocol
from repro.netsim.pcap import CaptureSession
from repro.obs.collector import NULL_OBS
from repro.util.clock import SimClock
from repro.util.ids import IdFactory

__all__ = ["Router", "ServiceHandler", "NetworkError"]

ServiceHandler = Callable[[HttpRequest], HttpResponse]

#: Sim seconds of network + service latency on a healthy request.
BASE_LATENCY_SECONDS = 0.05
#: Sim seconds a client burns discovering a connection is refused.
CONNECT_FAILURE_SECONDS = 0.25
#: The DNS blackhole address a PiHole-style blocker answers with.
BLACKHOLE_IP = "0.0.0.0"


class NetworkError(Exception):
    """Raised when a request cannot be delivered (no DNS, no service)."""


class Router:
    """Simulated RPi router + the Internet behind it."""

    LAN_PREFIX = "192.168.7."

    def __init__(
        self,
        registry: EndpointRegistry,
        clock: SimClock,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.dns = DnsServer(registry)
        #: Seeded fault schedule; ``None`` means a perfectly healthy network.
        self.faults = faults
        #: Observability sink for fault counters; rebindable by the runner.
        self.obs = NULL_OBS
        self._ids = IdFactory()
        self._device_ips: Dict[str, str] = {}
        self._services: Dict[str, ServiceHandler] = {}
        self._captures: List[CaptureSession] = []
        self.packets_forwarded = 0

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def attach_device(self, device_id: str) -> str:
        """Attach a device and return its unique LAN IP."""
        if device_id in self._device_ips:
            return self._device_ips[device_id]
        host = len(self._device_ips) + 10
        if host > 250:
            raise NetworkError("LAN address pool exhausted")
        ip = f"{self.LAN_PREFIX}{host}"
        self._device_ips[device_id] = ip
        return ip

    def device_ip(self, device_id: str) -> str:
        ip = self._device_ips.get(device_id)
        if ip is None:
            raise NetworkError(f"device not attached: {device_id}")
        return ip

    def register_service(self, domain: str, handler: ServiceHandler) -> None:
        """Install the handler that answers requests for ``domain``."""
        if domain not in self.registry:
            raise NetworkError(
                f"cannot register service for unknown endpoint {domain}; "
                "register it in the EndpointRegistry first"
            )
        self._services[domain] = handler

    # ------------------------------------------------------------------ #
    # Capture
    # ------------------------------------------------------------------ #

    def start_capture(
        self, label: str, device_filter: Optional[str] = None
    ) -> CaptureSession:
        """Begin a tcpdump-style capture; returns the live session."""
        session = CaptureSession(label=label, device_filter=device_filter)
        self._captures.append(session)
        return session

    def stop_capture(self, session: CaptureSession) -> CaptureSession:
        """Stop and detach a capture session.

        Stopping seals the session's incrementally-built flow table —
        downstream analyses receive pre-grouped flows with frozen
        aggregates; ``flows.sealed`` counts them.
        """
        session.stop()
        if session in self._captures:
            self._captures.remove(session)
        self.obs.inc("flows.sealed", len(session.flows()))
        return session

    def _emit(self, packet: Packet) -> None:
        self.packets_forwarded += 1
        for session in self._captures:
            session.observe(packet)

    # ------------------------------------------------------------------ #
    # Forwarding
    # ------------------------------------------------------------------ #

    def send(self, device_id: str, request: HttpRequest) -> HttpResponse:
        """Deliver ``request`` on behalf of ``device_id``.

        Emits DNS packets (cleartext), then the request/response pair —
        with payloads visible only when the transport is plain HTTP.
        Raises :class:`NetworkError` for unknown hosts or unhandled
        services, mirroring NXDOMAIN / connection-refused.  Every failure
        path consumes simulated time — a failed request is never free —
        and leaves the packets a passive vantage point would really see.

        When a :class:`~repro.netsim.faults.FaultPlan` is installed, the
        plan may additionally fail or slow the request; injected faults
        are counted under ``net.faults.*`` on :attr:`obs`.
        """
        device_ip = self.device_ip(device_id)
        host = request.host
        decision = self.faults.decide(device_id, host) if self.faults else None

        if decision is not None and decision.kind == "nxdomain":
            self.obs.inc("net.faults.nxdomain")
            self._emit_dns_exchange(device_id, device_ip, host, answers=[])
            self.clock.advance(decision.seconds)
            raise NetworkError(f"NXDOMAIN: {host} [injected fault]")

        endpoint = self._resolve(device_id, device_ip, host)
        handler = self._services.get(host)
        if handler is None:
            # The resolver answered, so the connect attempt really goes
            # out on the wire and burns time before it is refused.
            self.clock.advance(CONNECT_FAILURE_SECONDS)
            raise NetworkError(f"connection refused: no service at {host}")

        encrypted = request.is_https
        src_port = 49152 + self._ids.count("ephemeral-port") % 16000
        self._ids.next("ephemeral-port")
        request_payload = request.to_payload()
        self._emit(
            Packet(
                timestamp=self.clock.now,
                src_ip=device_ip,
                dst_ip=endpoint.ip,
                src_port=src_port,
                dst_port=endpoint.port,
                protocol=Protocol.TLS if encrypted else Protocol.HTTP,
                size=estimate_size(request_payload),
                direction=Direction.OUTBOUND,
                device_id=device_id,
                sni=host if encrypted else None,
                payload=None if encrypted else request_payload,
            )
        )

        if decision is not None and decision.kind == "timeout":
            # The request left the device (the packet above is on the
            # wire) but no answer ever comes back.
            self.obs.inc("net.faults.timeout")
            self.clock.advance(decision.seconds)
            raise NetworkError(f"connection timed out: {host}")

        latency = BASE_LATENCY_SECONDS  # network + service latency
        if decision is not None and decision.kind == "slow":
            self.obs.inc("net.faults.slow")
            latency += decision.seconds
        self.clock.advance(latency)

        if decision is not None and decision.kind == "http_5xx":
            self.obs.inc("net.faults.http_5xx")
            response = HttpResponse(
                status=503,
                headers={"x-injected-fault": "http-5xx"},
                body={"error": f"service unavailable: {host}"},
            )
        else:
            response = handler(request)

        response_payload = response.to_payload()
        self._emit(
            Packet(
                timestamp=self.clock.now,
                src_ip=endpoint.ip,
                dst_ip=device_ip,
                src_port=endpoint.port,
                dst_port=src_port,
                protocol=Protocol.TLS if encrypted else Protocol.HTTP,
                size=estimate_size(response_payload),
                direction=Direction.INBOUND,
                device_id=device_id,
                sni=host if encrypted else None,
                payload=None if encrypted else response_payload,
            )
        )
        return response

    def dns_blackhole(self, device_id: str, host: str) -> None:
        """Emit the DNS exchange a PiHole-style blocker produces.

        The query still reaches the resolver — a passive vantage point
        sees it — but the answer points at :data:`BLACKHOLE_IP`, so the
        follow-up connection dies.  Consumes the failed-resolution round
        trip of simulated time.  Used by
        :class:`repro.defenses.blocking.BlockingRouter` before it raises.
        """
        device_ip = self.device_ip(device_id)
        self._emit_dns_exchange(
            device_id,
            device_ip,
            host,
            answers=[{"domain": host, "ip": BLACKHOLE_IP, "ttl": 2}],
        )
        self.clock.advance(DNS_FAILURE_SECONDS)

    def _resolve(self, device_id: str, device_ip: str, host: str) -> Endpoint:
        """Resolve ``host``, emitting the DNS query/response packets.

        An unknown host still produces an observable DNS exchange (query
        plus empty NXDOMAIN answer) and burns the failed round trip
        before :class:`NetworkError` is raised.
        """
        endpoint = self.registry.lookup_domain(host)
        if endpoint is None:
            self._emit_dns_exchange(device_id, device_ip, host, answers=[])
            self.clock.advance(DNS_FAILURE_SECONDS)
            raise NetworkError(f"NXDOMAIN: {host}")
        record = self.dns.resolve(host)
        self._emit_dns_exchange(
            device_id,
            device_ip,
            host,
            answers=[{"domain": record.domain, "ip": record.ip, "ttl": record.ttl}],
        )
        return endpoint

    def _emit_dns_exchange(
        self, device_id: str, device_ip: str, host: str, answers: List[dict]
    ) -> None:
        """Emit one DNS query/response packet pair (empty answers ≈ NXDOMAIN)."""
        dns_server_ip = f"{self.LAN_PREFIX}1"
        query_payload = {"kind": "dns-query", "domain": host}
        response_payload = {"kind": "dns-response", "answers": answers}
        common = dict(
            timestamp=self.clock.now,
            protocol=Protocol.DNS,
            device_id=device_id,
        )
        self._emit(
            Packet(
                src_ip=device_ip,
                dst_ip=dns_server_ip,
                src_port=5353,
                dst_port=DNS_PORT,
                size=estimate_size(query_payload),
                direction=Direction.OUTBOUND,
                payload=query_payload,
                **common,
            )
        )
        self._emit(
            Packet(
                src_ip=dns_server_ip,
                dst_ip=device_ip,
                src_port=DNS_PORT,
                dst_port=5353,
                size=estimate_size(response_payload),
                direction=Direction.INBOUND,
                payload=response_payload,
                **common,
            )
        )
