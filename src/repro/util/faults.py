"""One seeded fault kernel for the network, storage and worker domains.

Each domain (:mod:`repro.netsim.faults`, :mod:`repro.core.iosim`,
:class:`~repro.core.parallel.WorkerFaultPlan`) is a table over this
kernel — an ordered kind tuple with one ``<kind>_rate`` field per kind —
plus what each kind does at the domain's seam.  A decision is the first
kind whose cumulative rate edge exceeds the key's next ``random()``, so
the kind order and each plan's substream key are part of the
deterministic contract: changing either reshuffles every seeded
schedule (``tests/unit/test_fault_schedules.py`` pins each domain's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import ClassVar, Dict, Mapping, Optional, Tuple

from repro.util.rng import Seed, StreamFamily

__all__ = ["Backoff", "FaultDecision", "FaultDraw", "FaultTable"]

#: Every kind some table declares.
_KNOWN_KINDS = set()


def _check_bounds(name: str, value, *, upper: float = math.inf, positive=False):
    """Reject a duration or ``(lo, hi)`` range outside ``[0, upper]``.

    Both ends must be finite and ordered, and above 0 when ``positive``.
    """
    lo, hi = value if isinstance(value, tuple) else (value, value)
    ok = math.isfinite(lo) and math.isfinite(hi) and 0 <= lo <= hi <= upper
    if not ok or (positive and lo <= 0):
        low = "> 0" if positive else ">= 0"
        raise ValueError(
            f"{name} must be finite, {low}, <= {upper} and ordered, got {value!r}"
        )


@dataclass(frozen=True)
class FaultDecision:
    """One injected fault: its kind and its parameters.

    ``seconds`` is the time the fault burns; ``fraction`` is where in a
    payload it lands (torn writes, corrupt reads).
    """

    kind: str
    seconds: float = 0.0
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KNOWN_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        _check_bounds("fault seconds", self.seconds)
        _check_bounds("fault fraction", self.fraction, upper=1.0)


class FaultTable:
    """Base of a domain's frozen dataclass of ``<kind>_rate`` fields.

    Construction checks each rate is in [0, 1] and their sum ≤ 1, and
    computes the cumulative draw ``edges`` once, in ``KINDS`` order.  A
    ``*_seconds`` float must be > 0; a ``*_seconds`` or ``*_fraction``
    ``(lo, hi)`` must be an ordered range, fractions inside [0, 1].
    Named profiles add a ``name`` field, ``LABEL``, ``REGISTRY`` and
    ``SPLIT`` (each kind's share of a :meth:`from_rate` rate).
    """

    KINDS: ClassVar[Tuple[str, ...]] = ()
    LABEL: ClassVar[str] = "fault profile"
    REGISTRY: ClassVar[Mapping[str, "FaultTable"]] = {}
    SPLIT: ClassVar[Tuple[float, ...]] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _KNOWN_KINDS.update(cls.KINDS)

    def __post_init__(self) -> None:
        rates = [getattr(self, f"{kind}_rate") for kind in self.KINDS]
        for kind, rate in zip(self.KINDS, rates):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
        edges = tuple(accumulate(rates))
        if edges[-1] > 1.0:
            raise ValueError(f"fault rates must sum to <= 1, got {edges[-1]}")
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name.endswith("_seconds"):
                _check_bounds(field.name, value, positive=not isinstance(value, tuple))
            elif field.name.endswith("_fraction"):
                _check_bounds(field.name, value, upper=1.0)
        object.__setattr__(self, "edges", edges)

    @property
    def total_rate(self) -> float:
        return self.edges[-1]

    @property
    def enabled(self) -> bool:
        """Whether this table can ever inject a fault."""
        return self.edges[-1] > 0.0

    def parameters(self) -> Dict[str, Tuple[str, object]]:
        """``kind -> (decision field, value)``: a float is fixed, a
        ``(lo, hi)`` is drawn uniformly right after the kind draw."""
        return {}

    @classmethod
    def from_rate(cls, rate: float):
        """A profile named ``rate:<rate>``, the rate split by ``SPLIT``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        shares = zip(cls.KINDS, cls.SPLIT)
        return cls(
            name=f"rate:{rate:g}",
            **{f"{kind}_rate": rate * share for kind, share in shares},
        )

    @classmethod
    def parse(cls, text):
        """A profile itself, a ``REGISTRY`` name, a float rate, or the
        ``rate:<x>`` name :meth:`from_rate` gives."""
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower()
        if key in cls.REGISTRY:
            return cls.REGISTRY[key]
        try:
            rate = float(key.removeprefix("rate:"))
        except ValueError:
            raise ValueError(
                f"unknown {cls.LABEL} {text!r}: expected one of "
                f"{sorted(cls.REGISTRY)} or a float rate in [0, 1]"
            ) from None
        return cls.from_rate(rate)


class FaultDraw:
    """Seeded decisions over one table, one substream per key.

    A key's stream is ``seed.derive(tag)`` under ``namespace`` and the
    key, so its Nth decision is the same in every run of the seed,
    whatever other keys draw; the seed is derived only for a table that
    can fault.  Each decision consumes one ``random()``, plus one
    parameter draw for a kind with a range.  Overrides are checked
    first and consume no draw.
    """

    def __init__(
        self, table: FaultTable, seed: Optional[Seed], tag: str, namespace: str
    ) -> None:
        self._streams: Optional[StreamFamily] = None
        if table.enabled:
            if seed is None:
                raise ValueError("rate-based faults require a seed")
            self._streams = StreamFamily(seed.derive(tag), namespace)
        self._kinds = table.KINDS
        self._total = table.total_rate
        parameters = table.parameters()
        self._rows = [
            (edge, kind, *parameters.get(kind, ("seconds", 0.0)))
            for kind, edge in zip(table.KINDS, table.edges)
        ]
        self._overrides: Dict[tuple, Tuple[int, FaultDecision]] = {}
        self._calls: Dict[tuple, int] = {}

    @property
    def overridden(self) -> bool:
        return bool(self._overrides)

    @property
    def enabled(self) -> bool:
        """Whether this plan can ever return a fault."""
        return self._streams is not None or self.overridden

    def override(self, key: tuple, kind: str, *, after: int = 0) -> None:
        """Decisions for ``key`` beyond its first ``after`` are ``kind``.

        A ``None`` last element matches every key with that prefix.
        Decisions are counted from the first override on.
        """
        if kind not in self._kinds:
            raise ValueError(f"unknown fault kind {kind!r}, not in {self._kinds}")
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        self._overrides[key] = (after, FaultDecision(kind))

    def decide(self, *key) -> Optional[FaultDecision]:
        """The fault (if any) for ``key``'s next operation."""
        if self._overrides:
            calls = self._calls[key] = self._calls.get(key, 0) + 1
            hit = self._overrides.get(key) or self._overrides.get(
                key[:-1] + (None,)
            )
            if hit is not None and calls > hit[0]:
                return hit[1]
        if self._streams is None:
            return None
        draw = self._streams.random(*key)
        if draw >= self._total:
            return None
        for edge, kind, field, value in self._rows:
            if draw < edge:
                if isinstance(value, tuple):
                    lo, hi = value  # what ``Random.uniform(lo, hi)`` computes
                    value = lo + (hi - lo) * self._streams.random(*key)
                return FaultDecision(kind, **{field: value})
        return None


@dataclass(frozen=True)
class Backoff:
    """Capped exponential backoff, deterministic (no jitter).

    ``max_attempts`` counts the initial try; the wait before retry *n*
    is ``min(base_backoff * multiplier**(n-1), max_backoff)`` seconds on
    whichever clock the caller waits on.
    """

    max_attempts: int = 3
    base_backoff: float = 0.5
    multiplier: float = 2.0
    max_backoff: float = 4.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        _check_bounds("base_backoff", self.base_backoff)
        _check_bounds("max_backoff", self.max_backoff)
        if not (math.isfinite(self.multiplier) and self.multiplier >= 1.0):
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def backoff(self, retry_number: int) -> float:
        """Seconds to wait before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            raise ValueError(f"retry_number is 1-based, got {retry_number}")
        return min(
            self.base_backoff * self.multiplier ** (retry_number - 1),
            self.max_backoff,
        )
