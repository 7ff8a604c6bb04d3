"""Network simulation substrate.

Models the slice of the Internet an auditor can observe from a home
router: packets with TLS-opaque payloads, cleartext DNS, HTTP messages,
and tcpdump-style capture sessions.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "CaptureSession": "pcap",
        "DEFAULT_RETRY_POLICY": "faults",
        "Direction": "packet",
        "DnsRecord": "dns",
        "DnsServer": "dns",
        "DnsTable": "dns",
        "Endpoint": "endpoints",
        "EndpointRegistry": "endpoints",
        "FAULT_PROFILES": "faults",
        "FaultDecision": "faults",
        "FaultPlan": "faults",
        "FaultProfile": "faults",
        "Flow": "packet",
        "FlowTable": "packet",
        "HttpRequest": "http",
        "HttpResponse": "http",
        "NetworkError": "router",
        "Packet": "packet",
        "Protocol": "packet",
        "RetryPolicy": "faults",
        "Router": "router",
        "ServiceHandler": "router",
        "estimate_size": "http",
        "flow_key": "packet",
        "registrable_domain": "endpoints",
    },
)
