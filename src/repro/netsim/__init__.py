"""Network simulation substrate.

Models the slice of the Internet an auditor can observe from a home
router: packets with TLS-opaque payloads, cleartext DNS, HTTP messages,
and tcpdump-style capture sessions.
"""

from repro.netsim.dns import DnsRecord, DnsServer, DnsTable
from repro.netsim.endpoints import Endpoint, EndpointRegistry, registrable_domain
from repro.netsim.faults import (
    DEFAULT_RETRY_POLICY,
    FAULT_PROFILES,
    FaultDecision,
    FaultPlan,
    FaultProfile,
    RetryPolicy,
)
from repro.netsim.http import HttpRequest, HttpResponse, estimate_size
from repro.netsim.packet import (
    Direction,
    Flow,
    FlowTable,
    Packet,
    Protocol,
    flow_key,
)
from repro.netsim.pcap import CaptureSession
from repro.netsim.router import NetworkError, Router, ServiceHandler

__all__ = [
    "CaptureSession",
    "DEFAULT_RETRY_POLICY",
    "Direction",
    "DnsRecord",
    "DnsServer",
    "DnsTable",
    "Endpoint",
    "EndpointRegistry",
    "FAULT_PROFILES",
    "FaultDecision",
    "FaultPlan",
    "FaultProfile",
    "Flow",
    "FlowTable",
    "HttpRequest",
    "HttpResponse",
    "NetworkError",
    "Packet",
    "Protocol",
    "RetryPolicy",
    "Router",
    "ServiceHandler",
    "estimate_size",
    "flow_key",
    "registrable_domain",
]
