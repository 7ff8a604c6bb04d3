"""tcpdump-style capture sessions.

The paper's methodology brackets each skill's lifecycle with
``tcpdump`` enable/disable on the RPi router so traffic can be attributed
cleanly per skill (§3.2).  :class:`CaptureSession` reproduces that: while a
session is active on the router, every packet of a device it
:meth:`~CaptureSession.accepts` is appended to it.  A packet exists only
inside such a window — the router builds none that no session records.

Capture is the hot path of the whole pipeline, so a session does its
grouping *as packets arrive*: every observed packet is routed into an
incremental :class:`~repro.netsim.packet.FlowTable` and its DNS answers
into a :class:`~repro.netsim.dns.DnsTable`.  When the session stops, the
flows are sealed once and every downstream analysis reads pre-grouped
flows and a pre-built DNS table in O(1); nothing re-scans ``packets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.netsim.dns import DnsTable
from repro.netsim.packet import Flow, FlowTable, Packet

__all__ = ["CaptureSession"]


@dataclass
class CaptureSession:
    """A bounded window of captured packets, labelled for attribution.

    Attributes
    ----------
    label:
        Attribution label, e.g. the skill id being exercised.
    device_filter:
        When set, only packets from/to this device are recorded (the paper
        gives each persona's Echo a unique IP for the same reason).
    """

    label: str
    device_filter: Optional[str] = None
    packets: List[Packet] = field(default_factory=list)
    active: bool = True
    _table: FlowTable = field(
        default_factory=FlowTable, repr=False, compare=False
    )
    _dns: DnsTable = field(default_factory=DnsTable, repr=False, compare=False)
    _sealed_flows: Optional[List[Flow]] = field(
        default=None, repr=False, compare=False
    )

    def accepts(self, device_id: str) -> bool:
        """Whether the session records ``device_id``'s traffic: active, filter matches."""
        return self.active and (self.device_filter is None or self.device_filter == device_id)

    def observe(self, packet: Packet) -> None:
        """Record a packet if the session :meth:`accepts` its device."""
        if not self.accepts(packet.device_id):
            return
        self.packets.append(packet)
        self._table.add(packet)
        self._dns.add_packet(packet)

    def stop(self) -> "CaptureSession":
        """Freeze the session; further packets are ignored."""
        self.active = False
        return self

    def flows(self) -> List[Flow]:
        """The captured packets grouped into flows.

        On a stopped session this seals the incremental flow table once
        and returns the cached sealed flows on every subsequent call.  A
        still-active session returns a snapshot list of its table's
        (unsealed, still growing) flows; their aggregates are exact.
        """
        if self.active:
            return self._table.flows()
        if self._sealed_flows is None:
            self._sealed_flows = self._table.seal()
        return self._sealed_flows

    def dns_table(self) -> DnsTable:
        """IP→domain mapping recovered from this capture's DNS answers.

        Built incrementally during :meth:`observe` — reading it is free.
        """
        return self._dns

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __len__(self) -> int:
        return len(self.packets)
