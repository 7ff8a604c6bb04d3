"""The RPi bridged-access-point router.

All device traffic transits the router, which is where the auditor's
vantage point sits.  The router:

* assigns each attached device a unique LAN IP (one persona per IP, §3.1);
* answers DNS from the endpoint registry, emitting cleartext DNS packets;
* forwards HTTP(S) requests to registered service handlers and emits
  request/response packets — with the payload stripped when the
  transport is TLS, since the router cannot decrypt it.

Like tcpdump on the paper's RPi, the router records only inside capture
windows: a packet is built, sized and handed to exactly the sessions
that :meth:`~repro.netsim.pcap.CaptureSession.accepts` its device, and
is never built when none does.  :attr:`Router.packets_forwarded` still
counts every packet put on the wire.  A TLS packet is sized by the
message's ``wire_size()`` and never serialized; only plaintext HTTP
packets carry ``to_payload()``.  DNS packet sizes are memoised per
host and answer.

Services (the Alexa cloud, skill backends, ad servers, websites) register a
handler per domain.  This keeps the "Internet" a single dispatch table
while letting every subsystem implement arbitrarily rich behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.netsim.dns import DNS_PORT, DnsServer
from repro.netsim.endpoints import Endpoint, EndpointRegistry
from repro.netsim.faults import DNS_FAILURE_SECONDS, FaultPlan, NetworkError
from repro.netsim.http import HttpRequest, HttpResponse, estimate_size
from repro.netsim.packet import Direction, Packet, Protocol
from repro.netsim.pcap import CaptureSession
from repro.obs.collector import NULL_OBS
from repro.util.clock import SimClock

__all__ = ["Router", "ServiceHandler", "NetworkError"]

ServiceHandler = Callable[[HttpRequest], HttpResponse]

#: Sim seconds of network + service latency on a healthy request.
BASE_LATENCY_SECONDS = 0.05
#: Sim seconds a client burns discovering a connection is refused.
CONNECT_FAILURE_SECONDS = 0.25
#: The DNS blackhole address a PiHole-style blocker answers with.
BLACKHOLE_IP = "0.0.0.0"

#: One DNS answer as ``(domain, ip, ttl)``; ``None`` is an empty (NXDOMAIN) answer.
DnsAnswer = Optional[Tuple[str, str, int]]


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
        #: Ephemeral source ports drawn so far, one per delivered request.
        self._ports_drawn = 0
        #: ``(host, answer)`` → sizes of the DNS query and response packets.
        self._dns_sizes: Dict[Tuple[str, DnsAnswer], Tuple[int, int]] = {}
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
        aggregates; ``flows.sealed`` counts them.  Stopping a session
        that is no longer live is a no-op, so its flows count once.
        """
        session.stop()
        if session in self._captures:
            self._captures.remove(session)
            self.obs.inc("flows.sealed", len(session.flows()))
        return session

    def _recorders(self, device_id: str, packets: int) -> List[CaptureSession]:
        """Put ``packets`` on the wire; return the sessions that record them.

        Callers build the packets only when the list is non-empty.
        """
        self.packets_forwarded += packets
        return [s for s in self._captures if s.accepts(device_id)]

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
            self._emit_dns_exchange(device_id, device_ip, host, None)
            self.clock.advance(decision.seconds)
            raise NetworkError(f"NXDOMAIN: {host} [injected fault]")

        endpoint = self._resolve(device_id, device_ip, host)
        handler = self._services.get(host)
        if handler is None:
            # The resolver answered, so the connect attempt really goes
            # out on the wire and burns time before it is refused.
            self.clock.advance(CONNECT_FAILURE_SECONDS)
            raise NetworkError(f"connection refused: no service at {host}")

        sni = host if request.is_https else None
        src_port = 49152 + self._ports_drawn % 16000
        self._ports_drawn += 1
        device_end, remote_end = (device_ip, src_port), (endpoint.ip, endpoint.port)
        self._emit_http(device_id, request, sni, device_end, remote_end, Direction.OUTBOUND)

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

        self._emit_http(device_id, response, sni, remote_end, device_end, Direction.INBOUND)
        return response

    def _emit_http(
        self, device_id: str, message: Union[HttpRequest, HttpResponse], sni: Optional[str],
        src: Tuple[str, int], dst: Tuple[str, int], direction: Direction,
    ) -> None:
        """Emit one HTTP packet, or a TLS one (payload hidden) when ``sni`` is set.

        A TLS packet is sized from the message's fields; only a plaintext
        packet builds the payload it carries.
        """
        sessions = self._recorders(device_id, 1)
        if not sessions:
            return
        if sni is None:
            payload = message.to_payload()
            size = estimate_size(payload)
        else:
            payload = None
            size = message.wire_size()
        packet = Packet(
            timestamp=self.clock.now,
            src_ip=src[0],
            dst_ip=dst[0],
            src_port=src[1],
            dst_port=dst[1],
            protocol=Protocol.HTTP if sni is None else Protocol.TLS,
            size=size,
            direction=direction,
            device_id=device_id,
            sni=sni,
            payload=payload,
        )
        for session in sessions:
            session.observe(packet)

    def dns_blackhole(self, device_id: str, host: str) -> None:
        """Emit the DNS exchange a PiHole-style blocker produces.

        The query still reaches the resolver — a passive vantage point
        sees it — but the answer points at :data:`BLACKHOLE_IP`, so the
        follow-up connection dies.  Consumes the failed-resolution round
        trip of simulated time.  Used by
        :class:`repro.defenses.blocking.BlockingRouter` before it raises.
        """
        device_ip = self.device_ip(device_id)
        self._emit_dns_exchange(device_id, device_ip, host, (host, BLACKHOLE_IP, 2))
        self.clock.advance(DNS_FAILURE_SECONDS)

    def _resolve(self, device_id: str, device_ip: str, host: str) -> Endpoint:
        """Resolve ``host``, emitting the DNS query/response packets.

        An unknown host still produces an observable DNS exchange (query
        plus empty NXDOMAIN answer) and burns the failed round trip
        before :class:`NetworkError` is raised.
        """
        endpoint = self.registry.lookup_domain(host)
        if endpoint is None:
            self._emit_dns_exchange(device_id, device_ip, host, None)
            self.clock.advance(DNS_FAILURE_SECONDS)
            raise NetworkError(f"NXDOMAIN: {host}")
        record = self.dns.resolve(host)
        self._emit_dns_exchange(device_id, device_ip, host, (record.domain, record.ip, record.ttl))
        return endpoint

    def _emit_dns_exchange(
        self, device_id: str, device_ip: str, host: str, answer: DnsAnswer
    ) -> None:
        """Emit one DNS query/response packet pair (no answer ≈ NXDOMAIN).

        Both payloads are built, since a capture's DNS table reads them;
        their sizes are computed once per ``(host, answer)``.
        """
        sessions = self._recorders(device_id, 2)
        if not sessions:
            return
        dns_server_ip = f"{self.LAN_PREFIX}1"
        answers = []
        if answer is not None:
            domain, ip, ttl = answer
            answers.append({"domain": domain, "ip": ip, "ttl": ttl})
        query_payload = {"kind": "dns-query", "domain": host}
        response_payload = {"kind": "dns-response", "answers": answers}
        sizes = self._dns_sizes.get((host, answer))
        if sizes is None:
            sizes = (estimate_size(query_payload), estimate_size(response_payload))
            self._dns_sizes[(host, answer)] = sizes
        common = dict(
            timestamp=self.clock.now,
            protocol=Protocol.DNS,
            device_id=device_id,
        )
        query = Packet(
            src_ip=device_ip,
            dst_ip=dns_server_ip,
            src_port=5353,
            dst_port=DNS_PORT,
            size=sizes[0],
            direction=Direction.OUTBOUND,
            payload=query_payload,
            **common,
        )
        answer = Packet(
            src_ip=dns_server_ip,
            dst_ip=device_ip,
            src_port=DNS_PORT,
            dst_port=5353,
            size=sizes[1],
            direction=Direction.INBOUND,
            payload=response_payload,
            **common,
        )
        for session in sessions:
            session.observe(query)
            session.observe(answer)
