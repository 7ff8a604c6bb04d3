"""Unit tests for the storage fault injector (repro.core.iosim) and the
hardened atomic-write seam it drives (repro.core.checkpoint)."""

import errno
import json
import math
import os

import pytest

from repro.core.checkpoint import atomic_write_bytes, quarantine_path
from repro.core.iosim import (
    DEFAULT_STORAGE_RETRY,
    STORAGE_FAULT_KINDS,
    STORAGE_FAULT_PROFILES,
    StorageFaultPlan,
    StorageFaultProfile,
    current_storage_faults,
    install_storage_faults,
    is_enospc,
    is_enospc_text,
    read_bytes,
    storage_faults,
    transient_storage_error,
    uninstall_storage_faults,
)
from repro.util.faults import Backoff, FaultDecision
from repro.util.rng import Seed


class TestProfiles:
    def test_registry_shapes(self):
        assert set(STORAGE_FAULT_PROFILES) == {"none", "mild", "harsh"}
        assert not STORAGE_FAULT_PROFILES["none"].enabled
        for name in ("mild", "harsh"):
            profile = STORAGE_FAULT_PROFILES[name]
            assert profile.enabled
            assert profile.total_rate <= 1.0
            # Disk exhaustion is a scenario (exhaust()), never a rate.
            assert profile.enospc_rate == 0.0

    def test_parse_names_rates_and_passthrough(self):
        assert StorageFaultProfile.parse("mild") is STORAGE_FAULT_PROFILES["mild"]
        assert StorageFaultProfile.parse(" HARSH ").name == "harsh"
        custom = StorageFaultProfile.parse("0.2")
        assert custom.name == "rate:0.2"
        assert custom.total_rate == pytest.approx(0.2)
        assert StorageFaultProfile.parse("rate:0.1").total_rate == pytest.approx(0.1)
        direct = StorageFaultProfile(name="x", eio_rate=0.5)
        assert StorageFaultProfile.parse(direct) is direct

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown storage fault profile"):
            StorageFaultProfile.parse("chaotic")

    def test_validation(self):
        with pytest.raises(ValueError, match="eio_rate"):
            StorageFaultProfile(name="bad", eio_rate=1.5)
        with pytest.raises(ValueError, match="sum to <= 1"):
            StorageFaultProfile(name="bad", eio_rate=0.6, slow_rate=0.6)
        with pytest.raises(ValueError, match="torn_fraction"):
            StorageFaultProfile(name="bad", torn_fraction=(0.9, 0.1))
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultDecision("gremlin")

    def test_from_rate_splits_across_transient_kinds_only(self):
        profile = StorageFaultProfile.from_rate(0.5)
        assert profile.enospc_rate == 0.0
        assert profile.total_rate == pytest.approx(0.5)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = Backoff(
            max_attempts=5, base_backoff=0.002, multiplier=2.0, max_backoff=0.005
        )
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == [
            0.002,
            0.004,
            0.005,
            0.005,
        ]
        with pytest.raises(ValueError, match="1-based"):
            policy.backoff(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Backoff(max_attempts=0)
        with pytest.raises(ValueError):
            Backoff(multiplier=0.5)


class TestPlanDecisions:
    def test_same_seed_same_schedule(self):
        draws = []
        for _ in range(2):
            plan = StorageFaultPlan.from_profile("harsh", 9)
            draws.append(
                [plan.decide("segments", "segment") for _ in range(200)]
            )
        assert draws[0] == draws[1]
        assert any(d is not None for d in draws[0])

    def test_streams_are_independent_per_component_op(self):
        # Interleaving other components' draws must not shift a
        # component's own schedule — each (component, op) pair owns an
        # independent substream.
        alone = StorageFaultPlan.from_profile("harsh", 9)
        noisy = StorageFaultPlan.from_profile("harsh", 9)
        expected = [alone.decide("checkpoint", "shard") for _ in range(100)]
        observed = []
        for _ in range(100):
            noisy.decide("segments", "segment")
            observed.append(noisy.decide("checkpoint", "shard"))
            noisy.decide("cache", "dataset")
        assert observed == expected

    def test_decision_mix_covers_every_kind(self):
        plan = StorageFaultPlan.from_profile("harsh", 7)
        kinds = {
            d.kind
            for _ in range(4000)
            for d in [plan.decide("segments", "segment")]
            if d is not None
        }
        assert kinds == set(STORAGE_FAULT_KINDS) - {"enospc"}

    def test_none_profile_never_faults(self):
        plan = StorageFaultPlan.from_profile("none", 3)
        assert all(
            plan.decide("segments", "segment") is None for _ in range(100)
        )

    def test_exhaust_turns_persistent_enospc(self):
        plan = StorageFaultPlan.from_profile("none", 3).exhaust(
            "segments", "segment", after=2
        )
        decisions = [plan.decide("segments", "segment") for _ in range(4)]
        assert decisions[0] is None and decisions[1] is None
        assert decisions[2].kind == "enospc"
        assert decisions[3].kind == "enospc"  # a full disk stays full
        assert plan.decide("segments", "marker") is None  # other ops fine

    def test_exhaust_component_wide(self):
        plan = StorageFaultPlan.from_profile("none", 3).exhaust("jobs")
        assert plan.decide("jobs", "state").kind == "enospc"
        assert plan.decide("jobs", "spec").kind == "enospc"

    def test_counters(self):
        plan = StorageFaultPlan.from_profile("none", 3)
        plan.record("storage.retries")
        plan.record("storage.retries", 2)
        plan.record("storage.zero", 0)
        assert plan.snapshot() == {"storage.retries": 3}
        assert plan.summary() == {
            "profile": "none",
            "counters": {"storage.retries": 3},
        }


class TestErrorClassification:
    def test_transient(self):
        assert transient_storage_error(OSError(errno.EIO, "io"))
        assert not transient_storage_error(OSError(errno.ENOSPC, "full"))
        assert not transient_storage_error(ValueError("nope"))

    def test_is_enospc_direct_wrapped_and_textual(self):
        assert is_enospc(OSError(errno.ENOSPC, "no space"))
        try:
            try:
                raise OSError(errno.ENOSPC, "no space")
            except OSError as inner:
                raise RuntimeError("campaign failed") from inner
        except RuntimeError as wrapped:
            assert is_enospc(wrapped)
        assert is_enospc(RuntimeError("worker: [Errno 28] write failed"))
        assert not is_enospc(OSError(errno.EIO, "io"))
        assert is_enospc_text("No space left on device")
        assert not is_enospc_text("connection reset")


class TestInstallation:
    def test_context_manager_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE_FAULTS", raising=False)
        uninstall_storage_faults()
        assert current_storage_faults() is None
        with storage_faults("mild", seed=7, propagate=True) as plan:
            assert current_storage_faults() is plan
            assert plan.profile.name == "mild"
            assert plan.seed.root == 7
            import os

            assert os.environ["REPRO_STORAGE_FAULTS"] == "mild:7"
            with storage_faults("harsh", seed=8) as inner:
                assert current_storage_faults() is inner
            assert current_storage_faults() is plan
        assert current_storage_faults() is None
        import os

        assert "REPRO_STORAGE_FAULTS" not in os.environ

    def test_env_bootstrap_for_spawned_workers(self, monkeypatch):
        uninstall_storage_faults()
        monkeypatch.setenv("REPRO_STORAGE_FAULTS", "rate:0.1:99")
        try:
            plan = current_storage_faults()
            assert plan is not None
            assert plan.profile.total_rate == pytest.approx(0.1)
        finally:
            uninstall_storage_faults()

    def test_install_accepts_plan_profile_and_name(self):
        try:
            ready = StorageFaultPlan.from_profile("harsh", 1)
            assert install_storage_faults(ready) is ready
            installed = install_storage_faults(
                STORAGE_FAULT_PROFILES["mild"], seed=2
            )
            assert installed.profile.name == "mild"
        finally:
            uninstall_storage_faults()


class TestAtomicWriteSeam:
    def test_faulted_writes_converge_to_exact_bytes(self, tmp_path):
        with storage_faults("harsh", seed=7) as plan:
            for index in range(150):
                payload = json.dumps({"k": index}).encode()
                atomic_write_bytes(
                    tmp_path / "data.json",
                    payload,
                    component="segments",
                    op="segment",
                )
                assert (tmp_path / "data.json").read_bytes() == payload
            counters = plan.snapshot()
        assert counters["storage.retries"] > 0
        # No torn bytes ever reach the live name, and no temp litter.
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]

    def test_enospc_propagates_immediately(self, tmp_path):
        plan = StorageFaultPlan.from_profile("none", 3).exhaust("jobs", "state")
        with storage_faults(plan):
            with pytest.raises(OSError) as excinfo:
                atomic_write_bytes(
                    tmp_path / "state.json", b"{}", component="jobs", op="state"
                )
        assert is_enospc(excinfo.value)
        assert plan.snapshot()["storage.enospc"] == 1
        assert "storage.retries" not in plan.snapshot()  # no retry burn
        assert not (tmp_path / "state.json").exists()
        assert list(tmp_path.iterdir()) == []  # temp cleaned up

    def test_permanent_transient_fault_exhausts_retry_budget(self, tmp_path):
        profile = StorageFaultProfile(name="always-torn", torn_rate=1.0)
        with storage_faults(StorageFaultPlan(Seed(3), profile)) as plan:
            with pytest.raises(OSError):
                atomic_write_bytes(
                    tmp_path / "x.bin", b"payload", component="segments", op="segment"
                )
        counters = plan.snapshot()
        assert counters["storage.retry_exhausted"] == 1
        assert (
            counters["storage.retries"]
            == DEFAULT_STORAGE_RETRY.max_attempts - 1
        )
        # The torn temp file never reached the live name.
        assert not (tmp_path / "x.bin").exists()
        assert list(tmp_path.iterdir()) == []

    def test_write_without_plan_is_plain_atomic_write(self, tmp_path):
        uninstall_storage_faults()
        atomic_write_bytes(tmp_path / "plain.txt", b"ok", component="cache")
        assert (tmp_path / "plain.txt").read_bytes() == b"ok"


class TestReadSeam:
    def test_corruptible_read_flips_one_early_bit(self, tmp_path):
        path = tmp_path / "cache.json"
        payload = b'{"schema": 1, "files": {}}'
        path.write_bytes(payload)
        profile = StorageFaultProfile(name="rot", corrupt_read_rate=1.0)
        with storage_faults(StorageFaultPlan(Seed(5), profile)) as plan:
            corrupted = read_bytes(
                path, component="segments", op="digest-cache", corruptible=True
            )
            assert corrupted != payload
            assert len(corrupted) == len(payload)
            diff = [i for i, (a, b) in enumerate(zip(payload, corrupted)) if a != b]
            assert len(diff) == 1 and diff[0] < 16
            # Non-corruptible sites consume the draw but return honest
            # bytes — corruption only lands where consumers re-validate.
            assert (
                read_bytes(path, component="segments", op="marker") == payload
            )
            assert plan.snapshot()["storage.faults.injected.corrupt_read"] == 1

    def test_transient_read_error_is_retried(self, tmp_path):
        path = tmp_path / "shard.pkl"
        path.write_bytes(b"data")
        profile = StorageFaultProfile(name="flaky", eio_rate=0.2)
        with storage_faults(StorageFaultPlan(Seed(11), profile)) as plan:
            for _ in range(40):
                assert (
                    read_bytes(path, component="checkpoint", op="shard") == b"data"
                )
            assert plan.snapshot()["storage.retries"] > 0

    def test_absence_is_semantic_not_a_fault(self, tmp_path):
        with storage_faults("harsh", seed=2):
            with pytest.raises(FileNotFoundError):
                read_bytes(tmp_path / "missing", component="cache")


class TestQuarantine:
    def test_quarantine_moves_and_counts(self, tmp_path):
        victim = tmp_path / "bad.json"
        victim.write_text("{corrupt")
        with storage_faults("none", seed=1) as plan:
            moved = quarantine_path(victim)
        assert moved == tmp_path / "bad.json.corrupt"
        assert moved.exists() and not victim.exists()
        assert plan.snapshot()["storage.quarantined"] == 1

    def test_quarantine_missing_file_returns_none(self, tmp_path):
        assert quarantine_path(tmp_path / "ghost") is None


class TestRangeValidation:
    """Bad ranges fail at construction, not inside the write seam."""

    @pytest.mark.parametrize(
        "bad", [(0.5, 2.0), (-0.1, 0.5), (math.nan, 0.5), (0.9, 0.1)]
    )
    def test_torn_fraction_must_lie_in_unit_interval(self, bad):
        with pytest.raises(ValueError, match="torn_fraction"):
            StorageFaultProfile(name="bad", torn_rate=0.5, torn_fraction=bad)

    @pytest.mark.parametrize("bad", [(0.001, math.inf), (math.nan, 0.1)])
    def test_slow_seconds_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="slow_seconds"):
            StorageFaultProfile(name="bad", slow_seconds=bad)


class TestPropagation:
    """A propagated plan must be one a spawned worker can rebuild from
    ``<profile name>:<seed>``; anything else fails at install time."""

    def test_named_and_rate_profiles_propagate(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE_FAULTS", raising=False)
        for name in ("mild", "rate:0.1"):
            with storage_faults(name, seed=5, propagate=True):
                assert os.environ["REPRO_STORAGE_FAULTS"] == f"{name}:5"

    @pytest.mark.parametrize(
        "profile",
        [
            StorageFaultProfile(name="custom", eio_rate=0.5),
            StorageFaultProfile(name="mild", eio_rate=0.5),
        ],
        ids=["unknown-name", "registry-name-other-rates"],
    )
    def test_custom_profile_refused(self, monkeypatch, profile):
        monkeypatch.delenv("REPRO_STORAGE_FAULTS", raising=False)
        uninstall_storage_faults()
        with pytest.raises(ValueError, match="cannot propagate"):
            install_storage_faults(profile, seed=5, propagate=True)
        assert current_storage_faults() is None
        assert "REPRO_STORAGE_FAULTS" not in os.environ

    def test_exhaust_schedule_refused(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE_FAULTS", raising=False)
        uninstall_storage_faults()
        plan = StorageFaultPlan.from_profile("mild", 5).exhaust("jobs")
        with pytest.raises(ValueError, match="cannot propagate"):
            install_storage_faults(plan, propagate=True)
        assert current_storage_faults() is None
        # Without propagation the same plan installs: forked workers
        # inherit it whole.
        try:
            assert install_storage_faults(plan) is plan
        finally:
            uninstall_storage_faults()
