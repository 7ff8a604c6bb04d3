"""Tests for seeded fault injection and the client retry policy."""

import dataclasses
import math

import pytest

from repro.core.campaign import CampaignSpec
from repro.core.experiment import ExperimentConfig
from repro.core.world import build_config_world
from repro.netsim.endpoints import EndpointRegistry
from repro.netsim.faults import (
    DEFAULT_RETRY_POLICY,
    DNS_FAILURE_SECONDS,
    FAULT_KINDS,
    FAULT_PROFILES,
    FaultDecision,
    FaultPlan,
    FaultProfile,
    RetryPolicy,
)
from repro.netsim.http import HttpRequest, HttpResponse
from repro.netsim.packet import Protocol
from repro.netsim.router import (
    BASE_LATENCY_SECONDS,
    NetworkError,
    Router,
)
from repro.obs import ObsCollector
from repro.util.clock import SimClock
from repro.util.rng import Seed


def _single_kind_profile(kind: str, **extra) -> FaultProfile:
    """A profile that injects ``kind`` on every request."""
    return FaultProfile(name=f"always-{kind}", **{f"{kind}_rate": 1.0}, **extra)


class TestFaultProfile:
    def test_named_profiles_parse(self):
        for name in ("none", "mild", "harsh"):
            assert FaultProfile.parse(name) is FAULT_PROFILES[name]

    def test_parse_is_case_insensitive(self):
        assert FaultProfile.parse(" MILD ") is FAULT_PROFILES["mild"]

    def test_parse_float_rate(self):
        profile = FaultProfile.parse("0.1")
        assert profile.name == "rate:0.1"
        assert profile.total_rate == pytest.approx(0.1)

    def test_parse_profile_passthrough(self):
        profile = FAULT_PROFILES["harsh"]
        assert FaultProfile.parse(profile) is profile

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultProfile.parse("catastrophic")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="slow_rate"):
            FaultProfile(name="bad", slow_rate=1.5)
        with pytest.raises(ValueError, match="fault rate must be in"):
            FaultProfile.parse("1.5")

    def test_rates_must_sum_below_one(self):
        with pytest.raises(ValueError, match="sum to <= 1"):
            FaultProfile(name="bad", timeout_rate=0.6, slow_rate=0.6)

    def test_enabled(self):
        assert not FAULT_PROFILES["none"].enabled
        assert FAULT_PROFILES["mild"].enabled

    def test_from_rate_split_preserves_total(self):
        profile = FaultProfile.from_rate(0.2)
        assert profile.total_rate == pytest.approx(0.2)

    def test_decision_validates_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultDecision("meltdown")
        for kind in FAULT_KINDS:
            assert FaultDecision(kind).kind == kind


class TestFaultPlan:
    def _sequence(self, seed, actor, domain, n=64):
        plan = FaultPlan(Seed(seed), FAULT_PROFILES["harsh"])
        return [plan.decide(actor, domain) for _ in range(n)]

    def test_same_seed_same_schedule(self):
        assert self._sequence(7, "echo-a", "x.com") == self._sequence(
            7, "echo-a", "x.com"
        )

    def test_different_seed_different_schedule(self):
        assert self._sequence(7, "echo-a", "x.com") != self._sequence(
            8, "echo-a", "x.com"
        )

    def test_schedule_invariant_to_other_actors(self):
        # The property the parallel-equivalence contract rests on: an
        # actor's draws are untouched by interleaved draws from others.
        alone = self._sequence(7, "echo-a", "x.com", n=16)
        plan = FaultPlan(Seed(7), FAULT_PROFILES["harsh"])
        interleaved = []
        for _ in range(16):
            plan.decide("echo-b", "x.com")
            plan.decide("echo-a", "y.com")
            interleaved.append(plan.decide("echo-a", "x.com"))
        assert interleaved == alone

    def test_disabled_profile_never_decides(self):
        plan = FaultPlan(Seed(7), FAULT_PROFILES["none"])
        assert all(
            plan.decide("echo-a", "x.com") is None for _ in range(100)
        )

    def test_rates_roughly_respected(self):
        plan = FaultPlan(Seed(7), FAULT_PROFILES["harsh"])
        draws = [plan.decide("echo-a", "x.com") for _ in range(2000)]
        faulted = sum(1 for d in draws if d is not None)
        # harsh totals 0.25; allow generous sampling slack.
        assert 0.15 < faulted / len(draws) < 0.35
        kinds = {d.kind for d in draws if d is not None}
        assert kinds == set(FAULT_KINDS)


class TestRetryPolicy:
    def test_backoff_caps(self):
        policy = RetryPolicy(base_backoff=0.5, multiplier=2.0, max_backoff=4.0)
        assert [policy.backoff(n) for n in (1, 2, 3, 4, 5)] == [
            0.5,
            1.0,
            2.0,
            4.0,
            4.0,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            DEFAULT_RETRY_POLICY.backoff(0)

    def test_retries_network_error_then_succeeds(self):
        clock = SimClock()
        calls = []

        def attempt():
            calls.append(1)
            if len(calls) < 3:
                raise NetworkError("flaky")
            return HttpResponse(status=200)

        obs = ObsCollector()
        response = RetryPolicy().call(clock, attempt, obs=obs, scope="t")
        assert response.ok and len(calls) == 3
        # Two retries back off 0.5s then 1.0s of simulated time.
        assert clock.now == pytest.approx(1.5)
        assert obs.metrics.as_dict()["counters"]["t.retries"] == 2

    def test_exhausted_network_error_reraises(self):
        obs = ObsCollector()

        def attempt():
            raise NetworkError("down")

        with pytest.raises(NetworkError, match="down"):
            RetryPolicy(max_attempts=2).call(SimClock(), attempt, obs=obs)
        counters = obs.metrics.as_dict()["counters"]
        assert counters["net.retry_exhausted"] == 1

    def test_exhausted_5xx_returns_last_response(self):
        response = RetryPolicy(max_attempts=2).call(
            SimClock(), lambda: HttpResponse(status=503)
        )
        assert response.status == 503 and not response.ok

    def test_non_retryable_status_returned_immediately(self):
        calls = []

        def attempt():
            calls.append(1)
            return HttpResponse(status=404)

        assert RetryPolicy().call(SimClock(), attempt).status == 404
        assert len(calls) == 1

    def test_never_sleeps_on_wall_clock(self, monkeypatch):
        import time as time_module

        def forbidden(_seconds):  # pragma: no cover - fails the test
            raise AssertionError("RetryPolicy must not wall-clock sleep")

        monkeypatch.setattr(time_module, "sleep", forbidden)
        clock = SimClock()
        attempts = iter([NetworkError("x"), HttpResponse(status=200)])

        def attempt():
            item = next(attempts)
            if isinstance(item, Exception):
                raise item
            return item

        assert RetryPolicy().call(clock, attempt).ok


@pytest.fixture
def faulty_rig():
    def build(profile):
        registry = EndpointRegistry()
        registry.register("svc.example.com", organization="Example")
        clock = SimClock()
        router = Router(registry, clock, faults=FaultPlan(Seed(3), profile))
        router.register_service(
            "svc.example.com", lambda req: HttpResponse(status=200, body={"ok": 1})
        )
        router.attach_device("echo-1")
        return router, clock

    return build


class TestRouterFaultInjection:
    REQUEST = HttpRequest("GET", "https://svc.example.com/ping")

    def test_nxdomain_emits_dns_and_burns_time(self, faulty_rig):
        router, clock = faulty_rig(_single_kind_profile("nxdomain"))
        obs = ObsCollector()
        router.obs = obs
        cap = router.start_capture("f")
        with pytest.raises(NetworkError, match=r"NXDOMAIN.*injected fault"):
            router.send("echo-1", self.REQUEST)
        dns = [p for p in cap if p.protocol is Protocol.DNS]
        assert len(dns) == 2  # query + empty answer, even on failure
        assert dns[1].payload["answers"] == []
        assert clock.now == pytest.approx(DNS_FAILURE_SECONDS)
        assert obs.metrics.as_dict()["counters"]["net.faults.nxdomain"] == 1

    def test_timeout_request_packet_still_on_wire(self, faulty_rig):
        profile = _single_kind_profile("timeout", timeout_seconds=2.0)
        router, clock = faulty_rig(profile)
        cap = router.start_capture("f")
        with pytest.raises(NetworkError, match="timed out"):
            router.send("echo-1", self.REQUEST)
        tls = [p for p in cap if p.protocol is Protocol.TLS]
        assert len(tls) == 1  # the request left; no response ever came
        assert clock.now >= 2.0

    def test_http_5xx_synthesised_without_handler(self, faulty_rig):
        calls = []
        router, clock = faulty_rig(_single_kind_profile("http_5xx"))
        router.register_service(
            "svc.example.com",
            lambda req: calls.append(1) or HttpResponse(status=200),
        )
        response = router.send("echo-1", self.REQUEST)
        assert response.status == 503
        assert response.headers["x-injected-fault"] == "http-5xx"
        assert calls == []  # the origin never saw the request

    def test_slow_inflates_latency_only(self, faulty_rig):
        profile = _single_kind_profile("slow", slow_extra_seconds=(1.0, 1.0))
        router, clock = faulty_rig(profile)
        response = router.send("echo-1", self.REQUEST)
        assert response.ok  # slow is degradation, not failure
        # DNS round trip + base latency + the injected 1s delay.
        assert clock.now == pytest.approx(BASE_LATENCY_SECONDS + 1.0)

    def test_no_plan_means_no_faults(self):
        registry = EndpointRegistry()
        registry.register("svc.example.com", organization="Example")
        router = Router(registry, SimClock())
        router.register_service(
            "svc.example.com", lambda req: HttpResponse(status=200)
        )
        router.attach_device("echo-1")
        assert all(
            router.send("echo-1", self.REQUEST).ok for _ in range(50)
        )


class TestFailureObservability:
    """Failed sends are never free and never invisible (bugfix tests)."""

    def _router(self):
        registry = EndpointRegistry()
        registry.register("known.example.com", organization="Example")
        clock = SimClock()
        router = Router(registry, clock)
        router.attach_device("echo-1")
        return router, clock

    def test_unknown_host_emits_dns_exchange(self):
        router, clock = self._router()
        cap = router.start_capture("f")
        before = router.packets_forwarded
        with pytest.raises(NetworkError, match="NXDOMAIN"):
            router.send(
                "echo-1", HttpRequest("GET", "https://missing.example.net/")
            )
        assert router.packets_forwarded == before + 2
        dns = [p for p in cap if p.protocol is Protocol.DNS]
        assert [p.payload["kind"] for p in dns] == ["dns-query", "dns-response"]
        assert clock.now > 0.0

    def test_connection_refused_burns_time(self):
        router, clock = self._router()
        with pytest.raises(NetworkError, match="refused"):
            router.send(
                "echo-1", HttpRequest("GET", "https://known.example.com/")
            )
        assert clock.now > DNS_FAILURE_SECONDS


class TestRateProfileName:
    """A float ``--faults`` value is normalised to ``rate:<x>``; that
    name must resolve everywhere the config carries it."""

    def test_rate_name_survives_replace_spec_round_trip_and_world(self):
        config = ExperimentConfig(fault_profile="0.05")
        assert config.fault_profile == "rate:0.05"
        config = dataclasses.replace(config, skills_per_persona=2)
        spec = CampaignSpec(config=config, seed=7)
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec
        world = build_config_world(Seed(7), restored.config)
        assert world.fault_plan.profile == FaultProfile.from_rate(0.05)

    def test_rate_name_parses_to_from_rate(self):
        assert FaultProfile.parse("rate:0.05") == FaultProfile.from_rate(0.05)
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultProfile.parse("rate:lots")


class TestDurationValidation:
    """Bad durations fail at construction, not at draw time."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_timeout_seconds(self, bad):
        with pytest.raises(ValueError, match="timeout_seconds"):
            FaultProfile(name="bad", timeout_seconds=bad)

    @pytest.mark.parametrize(
        "bad", [(math.nan, 1.0), (0.1, math.inf), (-0.1, 1.0), (2.0, 1.0)]
    )
    def test_slow_extra_seconds(self, bad):
        with pytest.raises(ValueError, match="slow_extra_seconds"):
            FaultProfile(name="bad", slow_extra_seconds=bad)

    @pytest.mark.parametrize("field", ["base_backoff", "max_backoff"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_retry_backoff(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: bad})

    def test_retry_multiplier_must_be_finite(self):
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=math.inf)
