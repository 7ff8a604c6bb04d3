"""Typed counters and gauges with deterministic cross-shard merging.

Two metric kinds, deliberately minimal:

* :class:`Counter` — monotonically increasing integers (requests
  emitted, bids collected, DSAR files missing, cookies synced);
* :class:`Gauge` — a float observation (queue depth, speedup factor).

Every metric declares a **merge policy** at creation, so combining the
per-shard registries of a parallel run is deterministic and
self-describing:

``sum``
    add shard values — the right policy for per-persona work, where the
    shard totals partition the serial total;
``first``
    all shards must agree (work duplicated per shard, e.g. the prebid
    discovery probe); disagreement raises;
``max`` / ``min``
    extreme across shards (high-water marks).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "MetricsRegistry", "MERGE_POLICIES"]

MERGE_POLICIES = ("sum", "first", "max", "min")

#: Gauges are point-in-time observations; summing them is almost always
#: a bug, so the policy is rejected at creation.
_GAUGE_POLICIES = ("first", "max", "min")


class Counter:
    """A monotonically increasing integer metric."""

    kind = "counter"

    def __init__(self, name: str, merge: str = "sum") -> None:
        if merge not in MERGE_POLICIES:
            raise ValueError(
                f"merge policy must be one of {MERGE_POLICIES}, got {merge!r}"
            )
        self.name = name
        self.merge = merge
        self.value = 0

    def inc(self, n: int = 1) -> int:
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"counter {self.name!r} increments must be int, got {n!r}")
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc by {n})")
        self.value += n
        return self.value


class Gauge:
    """A float observation; ``set`` overwrites."""

    kind = "gauge"

    def __init__(self, name: str, merge: str = "max") -> None:
        if merge not in _GAUGE_POLICIES:
            raise ValueError(
                f"gauge merge policy must be one of {_GAUGE_POLICIES}, got {merge!r}"
            )
        self.name = name
        self.merge = merge
        self.value: float = 0.0
        self.observed = False

    def set(self, value: float) -> float:
        self.value = float(value)
        self.observed = True
        return self.value


Metric = Union[Counter, Gauge]


def _apply_policy(name: str, policy: str, values: List[Union[int, float]]):
    if policy == "sum":
        return sum(values)
    if policy == "first":
        for value in values[1:]:
            if value != values[0]:
                raise ValueError(
                    f"metric {name!r} declared merge='first' but shards "
                    f"disagree: {values!r}"
                )
        return values[0]
    if policy == "max":
        return max(values)
    return min(values)


class MetricsRegistry:
    """Name-keyed metric store with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------ #

    def counter(self, name: str, merge: str = "sum") -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name, merge)
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a counter")
        elif metric.merge != merge:
            raise ValueError(
                f"counter {name!r} registered with merge={metric.merge!r}, "
                f"re-requested with merge={merge!r}"
            )
        return metric

    def gauge(self, name: str, merge: str = "max") -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(name, merge)
            self._metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a gauge")
        elif metric.merge != merge:
            raise ValueError(
                f"gauge {name!r} registered with merge={metric.merge!r}, "
                f"re-requested with merge={merge!r}"
            )
        return metric

    def inc(self, name: str, n: int = 1, merge: str = "sum") -> int:
        """Increment (creating on first use) the counter ``name``."""
        metric = self._metrics.get(name)
        if type(metric) is Counter and metric.merge == merge and type(n) is int and n >= 0:
            # The common case, already checked: an existing counter.
            metric.value += n
            return metric.value
        return self.counter(name, merge).inc(n)

    def set_gauge(self, name: str, value: float, merge: str = "max") -> float:
        return self.gauge(name, merge).set(value)

    def value(self, name: str) -> Union[int, float]:
        return self._metrics[name].value

    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------ #

    def as_dict(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """``{"counters": {...}, "gauges": {...}}``, names sorted."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif metric.observed:
                gauges[name] = metric.value
        return {"counters": counters, "gauges": gauges}

    # ------------------------------------------------------------------ #

    @staticmethod
    def merge(registries: Sequence["MetricsRegistry"]) -> "MetricsRegistry":
        """Combine shard registries under each metric's declared policy.

        Shards are processed in the given order (callers pass them sorted
        by shard index), so the result is deterministic.  A metric
        appearing in several shards with different kinds or policies is
        an error.
        """
        # name -> (kind, policy, values in shard order)
        seen: Dict[str, Tuple[str, str, List[Union[int, float]]]] = {}
        for registry in registries:
            for name in registry._metrics:
                metric = registry._metrics[name]
                if isinstance(metric, Gauge) and not metric.observed:
                    continue
                entry = seen.get(name)
                if entry is None:
                    seen[name] = (metric.kind, metric.merge, [metric.value])
                    continue
                kind, policy, values = entry
                if kind != metric.kind:
                    raise TypeError(
                        f"metric {name!r} is a {metric.kind} in one shard "
                        f"and a {kind} in another"
                    )
                if policy != metric.merge:
                    raise ValueError(
                        f"metric {name!r} has conflicting merge policies: "
                        f"{policy!r} vs {metric.merge!r}"
                    )
                values.append(metric.value)

        merged = MetricsRegistry()
        for name in sorted(seen):
            kind, policy, values = seen[name]
            result = _apply_policy(name, policy, values)
            if kind == "counter":
                merged.counter(name, policy).value = int(result)
            else:
                merged.gauge(name, policy).set(result)
        return merged
