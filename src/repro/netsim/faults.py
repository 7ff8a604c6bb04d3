"""Deterministic network fault injection and client retry policy.

Real Echo traffic is dominated by retries, keepalives, and failure
recovery (Janak et al., "An Analysis of Amazon Echo's Network
Behavior"), and the paper's blocking evaluation (§7) is ultimately a
question of how skills degrade when requests fail.  The closed-world
``netsim`` originally had a binary success/:class:`NetworkError` model;
this module adds the missing failure modes without giving up the
simulation's reproducibility contract:

* a :class:`FaultProfile` names the failure mix (DNS NXDOMAIN,
  connection timeouts, 5xx responses, slow responses) as per-request
  rates — a table over the fault kernel (:mod:`repro.util.faults`);
* a :class:`FaultPlan` turns the profile into concrete per-request
  :class:`FaultDecision`\\ s.  Decisions are drawn from
  :class:`~repro.util.rng.StreamFamily` substreams keyed by
  ``(actor, domain)`` and derived from the world
  :class:`~repro.util.rng.Seed` — so an actor's fault schedule depends
  only on its own request sequence, never on which other actors share
  the world or on shard order.  That is the property that keeps
  serial and persona-sharded parallel campaigns byte-identical under
  every fault profile;
* a :class:`RetryPolicy` gives clients capped exponential backoff
  driven entirely by the :class:`~repro.util.clock.SimClock` — library
  code never sleeps on the host clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.netsim.http import HttpResponse
from repro.util.clock import SimClock
from repro.util.faults import Backoff, FaultDecision, FaultDraw, FaultTable
from repro.util.rng import Seed

__all__ = [
    "FAULT_KINDS",
    "FAULT_PROFILES",
    "DEFAULT_RETRY_POLICY",
    "FaultDecision",
    "FaultPlan",
    "FaultProfile",
    "RetryPolicy",
]

#: The injectable failure modes, in the order the decision draw checks
#: them (the order is part of the deterministic contract — reordering
#: would reshuffle every seeded fault schedule).
FAULT_KINDS = ("nxdomain", "timeout", "http_5xx", "slow")

#: Sim seconds a failed DNS resolution costs the client.
DNS_FAILURE_SECONDS = 0.05


@dataclass(frozen=True)
class FaultProfile(FaultTable):
    """A named mix of per-request fault rates.

    Rates are independent probabilities partitioning each request draw:
    their sum must stay ≤ 1 and the remainder is a healthy request.
    ``timeout_seconds`` is the connect timeout a client burns before a
    timed-out request fails; slow responses inflate service latency by
    an extra delay drawn uniformly from ``slow_extra_seconds``.

    :meth:`from_rate` splits one overall rate 1:2:3:4 (nxdomain :
    timeout : 5xx : slow) — rarest first, mirroring how the named
    profiles weight hard failures below soft ones.  :meth:`parse`
    resolves a ``--faults`` value: a name from :data:`FAULT_PROFILES`,
    a float rate, or the ``rate:<x>`` name :meth:`from_rate` gives.
    """

    KINDS = FAULT_KINDS
    SPLIT = (0.1, 0.2, 0.3, 0.4)

    name: str
    nxdomain_rate: float = 0.0
    timeout_rate: float = 0.0
    http_5xx_rate: float = 0.0
    slow_rate: float = 0.0
    timeout_seconds: float = 2.0
    slow_extra_seconds: Tuple[float, float] = (0.2, 2.0)

    def parameters(self) -> Dict[str, Tuple[str, object]]:
        # Sim seconds each fault burns: the failed-resolution round trip,
        # the connect timeout, the extra service latency of a slow reply.
        return {
            "nxdomain": ("seconds", DNS_FAILURE_SECONDS),
            "timeout": ("seconds", self.timeout_seconds),
            "slow": ("seconds", self.slow_extra_seconds),
        }


#: The named profiles the CLI exposes.  ``mild`` keeps a small campaign
#: comfortably completable (soft faults dominate); ``harsh`` is the
#: stress setting later scale-out work benchmarks against.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "mild": FaultProfile(
        name="mild",
        nxdomain_rate=0.002,
        timeout_rate=0.008,
        http_5xx_rate=0.02,
        slow_rate=0.04,
    ),
    "harsh": FaultProfile(
        name="harsh",
        nxdomain_rate=0.01,
        timeout_rate=0.04,
        http_5xx_rate=0.08,
        slow_rate=0.12,
    ),
}
FaultProfile.REGISTRY = FAULT_PROFILES


class FaultPlan(FaultDraw):
    """Seeded per-``(actor, domain)`` fault schedule for one world.

    Every request attempt calls :meth:`decide` once with the requesting
    actor (device id or browser profile id) and the target domain, and
    gets ``None`` for a healthy request.  Because each ``(actor,
    domain)`` pair owns an independent substream of
    ``seed.derive("faults")``, an actor's Nth request to a domain gets
    the same decision in every run of the same seed — regardless of what
    other actors are doing, which is what keeps fault schedules
    invariant across persona shards.
    """

    def __init__(self, seed: Seed, profile: FaultProfile) -> None:
        self.profile = profile
        super().__init__(profile, seed, "faults", profile.name)


@dataclass(frozen=True)
class RetryPolicy(Backoff):
    """Capped exponential backoff over the simulated clock.

    A :class:`~repro.util.faults.Backoff` whose :meth:`call` advances the
    :class:`~repro.util.clock.SimClock` by each wait — library code never
    sleeps on the host clock.
    """

    #: Response statuses treated as transient failures worth retrying.
    retry_statuses: Tuple[int, ...] = (500, 502, 503, 504)

    def call(
        self,
        clock: SimClock,
        attempt: Callable[[], HttpResponse],
        obs=None,
        scope: str = "net",
    ) -> HttpResponse:
        """Run ``attempt`` under this policy, backing off on sim time.

        Retries on :class:`~repro.netsim.router.NetworkError` and on
        retryable statuses.  Returns the first healthy response, or the
        last retryable-status response once attempts are exhausted
        (callers check ``response.ok`` and degrade); re-raises the last
        :class:`~repro.netsim.router.NetworkError` once exhausted.
        Retry counts land in ``<scope>.retries`` /
        ``<scope>.retry_exhausted`` on ``obs`` when given.
        """
        from repro.netsim.router import NetworkError  # avoid import cycle

        last_error: Optional[NetworkError] = None
        last_response: Optional[HttpResponse] = None
        for attempt_number in range(1, self.max_attempts + 1):
            if attempt_number > 1:
                clock.advance(self.backoff(attempt_number - 1))
                if obs is not None:
                    obs.inc(f"{scope}.retries")
            try:
                response = attempt()
            except NetworkError as exc:
                last_error = exc
                last_response = None
                continue
            if response.status not in self.retry_statuses:
                return response
            last_error = None
            last_response = response
        if obs is not None:
            obs.inc(f"{scope}.retry_exhausted")
        if last_error is not None:
            raise last_error
        assert last_response is not None
        return last_response


#: The shared client policy: Echo devices, the AVS Echo, and the
#: OpenWPM-style crawler all retry with this unless configured otherwise.
DEFAULT_RETRY_POLICY = RetryPolicy()
