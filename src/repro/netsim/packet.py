"""Packet and flow primitives.

A :class:`Packet` models what a passive observer at a given vantage point
can see.  The crucial distinction for the auditing framework is between

* packets captured on the router from a real Echo: TLS-encrypted, so only
  the 5-tuple, SNI, and sizes are visible (``payload is None``); and
* packets tapped pre-encryption on the instrumented AVS Echo: the full
  application payload is visible.

Payloads are plain dictionaries (parsed application messages) rather than
byte strings — the paper's analysis operates on parsed fields, and keeping
them structured avoids a redundant serialize/parse round trip while still
modelling visibility correctly via the ``payload``/``None`` distinction.

Hot-path design
---------------

A production-scale campaign emits millions of packets, and the analysis
layer reads every one of them through a flow.  Three choices keep this
layer cheap:

* ``slots=True`` dataclasses — no per-instance ``__dict__``, which cuts
  both memory and attribute-access cost on the two most-allocated types
  in the simulator;
* pooled identity strings — ``device_id``/``src_ip``/``dst_ip``/``sni``
  repeat across millions of packets, so a module-level pool dedups them
  and makes the flow-key dict lookups pointer-compare fast.  A private
  pool rather than :func:`sys.intern`: resizing it costs kilobytes
  (proportional to the few thousand distinct identities), whereas
  pushing the process-wide intern table past a threshold forces a
  multi-megabyte rehash into whatever campaign happens to be running —
  visible as a spurious peak-memory spike in flat-memory monitoring;
* **sealed flows** — only a :class:`FlowTable` creates a :class:`Flow`;
  the flow maintains its aggregates (``total_bytes``, ``sni``,
  ``first_timestamp``) incrementally as packets arrive and
  :meth:`Flow.seal` freezes them, so property access is O(1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Direction",
    "Protocol",
    "Packet",
    "Flow",
    "FlowKey",
    "FlowTable",
    "flow_key",
]


#: Dedup pool for packet identity strings (IPs, device ids, SNIs).
#: Grows with the number of *distinct* identities — a few thousand for
#: any roster — and never touches the global intern table.
_STRING_POOL: Dict[str, str] = {}


def _pooled(value: str) -> str:
    return _STRING_POOL.setdefault(value, value)


class Direction(enum.Enum):
    """Direction of a packet relative to the monitored device."""

    OUTBOUND = "outbound"
    INBOUND = "inbound"


class Protocol(enum.Enum):
    """Application protocol carried by a packet."""

    TLS = "tls"
    HTTP = "http"
    DNS = "dns"


@dataclass(frozen=True, slots=True)
class Packet:
    """A single captured datagram/record.

    Attributes
    ----------
    timestamp:
        Simulated seconds since the experiment epoch.
    src_ip, dst_ip, src_port, dst_port:
        The 5-tuple (protocol being the fifth element).
    protocol:
        Application protocol.
    size:
        Payload size in bytes (modelled, not serialized).
    direction:
        Relative to the monitored device.
    sni:
        TLS Server Name Indication, when the packet opens a TLS session.
        Visible even for encrypted traffic — this is how the paper maps
        encrypted flows to domains when no DNS answer was seen.
    payload:
        Parsed application message.  ``None`` for traffic observed only in
        encrypted form.
    device_id:
        The monitored device that sent/received this packet.
    """

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: Protocol
    size: int
    direction: Direction
    device_id: str
    sni: Optional[str] = None
    payload: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"packet size must be non-negative, got {self.size}")
        if not 0 <= self.src_port <= 65535:
            raise ValueError(f"port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= 65535:
            raise ValueError(f"port out of range: {self.dst_port}")
        # Identity strings repeat across millions of packets; pooling
        # dedups the storage and turns downstream dict-key comparisons
        # into pointer checks.
        object.__setattr__(self, "src_ip", _pooled(self.src_ip))
        object.__setattr__(self, "dst_ip", _pooled(self.dst_ip))
        object.__setattr__(self, "device_id", _pooled(self.device_id))
        if self.sni is not None:
            object.__setattr__(self, "sni", _pooled(self.sni))

    def __reduce__(self):
        # Frozen slotted dataclasses have no __dict__ for the default
        # pickle path (and Python 3.10 generates no slots-aware
        # __getstate__), so rebuild through __init__ — which also
        # re-pools the identity strings on load.
        return (
            self.__class__,
            (
                self.timestamp,
                self.src_ip,
                self.dst_ip,
                self.src_port,
                self.dst_port,
                self.protocol,
                self.size,
                self.direction,
                self.device_id,
                self.sni,
                self.payload,
            ),
        )

    @property
    def is_encrypted(self) -> bool:
        """True when the application payload is not observable."""
        return self.payload is None

    @property
    def remote_ip(self) -> str:
        """IP of the non-device end of the packet."""
        return self.dst_ip if self.direction is Direction.OUTBOUND else self.src_ip

    @property
    def remote_port(self) -> int:
        """Port of the non-device end of the packet."""
        return (
            self.dst_port if self.direction is Direction.OUTBOUND else self.src_port
        )


FlowKey = Tuple[str, str, int, str]
"""(device_id, remote_ip, remote_port, protocol value)"""


_OUTBOUND = Direction.OUTBOUND


def flow_key(packet: Packet) -> FlowKey:
    """The flow a packet belongs to: (device, remote ip/port, protocol).

    Reads the fields directly (and the protocol's ``_value_``, past the
    ``Enum.value`` descriptor): every captured packet is keyed once.
    """
    if packet.direction is _OUTBOUND:
        return (packet.device_id, packet.dst_ip, packet.dst_port, packet.protocol._value_)
    return (packet.device_id, packet.src_ip, packet.src_port, packet.protocol._value_)


@dataclass(slots=True)
class Flow:
    """All packets between one device and one remote endpoint/port.

    Only a :class:`FlowTable` creates flows, and only when a flow's first
    packet arrives, so every flow is non-empty and its running aggregates
    cover exactly the packets in ``packets`` (which is therefore not a
    constructor argument).  :meth:`seal` freezes the flow once its
    capture stops.
    """

    key: FlowKey
    packets: List[Packet] = field(default_factory=list, init=False)
    # Running aggregates, maintained by _observe.  Excluded from
    # equality: flows with the same key and packets are the same flow.
    _total_bytes: int = field(default=0, init=False, repr=False, compare=False)
    _sni: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _first_timestamp: float = field(
        default=0.0, init=False, repr=False, compare=False
    )
    _sealed: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def device_id(self) -> str:
        return self.key[0]

    @property
    def remote_ip(self) -> str:
        return self.key[1]

    @property
    def remote_port(self) -> int:
        return self.key[2]

    @property
    def sealed(self) -> bool:
        """Whether the flow is frozen against further packets."""
        return self._sealed

    def _observe(self, packet: Packet) -> None:
        """Append ``packet``, maintaining the running aggregates."""
        if self._sealed:
            raise ValueError(f"cannot add packets to sealed flow {self.key}")
        if not self.packets or packet.timestamp < self._first_timestamp:
            self._first_timestamp = packet.timestamp
        self.packets.append(packet)
        self._total_bytes += packet.size
        if self._sni is None:
            self._sni = packet.sni

    def seal(self) -> "Flow":
        """Freeze the flow against further packets; it must be non-empty.

        A :class:`FlowTable` never holds an empty flow, so sealing one is
        a caller bug, reported eagerly.
        """
        if not self.packets:
            raise ValueError(f"cannot seal empty flow {self.key}")
        self._sealed = True
        return self

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    @property
    def sni(self) -> Optional[str]:
        """First SNI observed on the flow, if any."""
        return self._sni

    @property
    def first_timestamp(self) -> float:
        return self._first_timestamp


class FlowTable:
    """Incremental flow aggregation over a packet stream.

    Packets are grouped as they arrive — the capture path feeds every
    observed packet straight in — so downstream analyses get pre-grouped,
    sealed flows and never re-scan a capture's packet list.

    Invariant: a flow exists in the table only once its first packet has
    been added, so every flow holds ≥ 1 packet and its
    ``first_timestamp`` is defined.  Flow order is first-packet arrival
    order.
    """

    __slots__ = ("_flows", "_sealed")

    def __init__(self) -> None:
        self._flows: Dict[FlowKey, Flow] = {}
        self._sealed = False

    def add(self, packet: Packet) -> Flow:
        """Route ``packet`` into its flow (creating it on first sight)."""
        if self._sealed:
            raise ValueError("cannot add packets to a sealed FlowTable")
        key = flow_key(packet)
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(key=key)
            self._flows[key] = flow
        flow._observe(packet)
        return flow

    def seal(self) -> List[Flow]:
        """Freeze every flow's aggregates and return them in order."""
        if not self._sealed:
            for flow in self._flows.values():
                flow.seal()
            self._sealed = True
        return list(self._flows.values())

    @property
    def sealed(self) -> bool:
        return self._sealed

    def flows(self) -> List[Flow]:
        """Current flows in first-packet order (sealed only after seal())."""
        return list(self._flows.values())

    def get(self, key: FlowKey) -> Optional[Flow]:
        return self._flows.get(key)

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows.values())

    # Plain-slots pickling (no __dict__) works by default on every
    # supported Python; nothing extra needed here.
