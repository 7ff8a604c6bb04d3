"""Unit tests for the shard supervisor and worker-level fault injection.

The supervisor is exercised against a stub shard function (no real
campaign) so every recovery path — crash requeue, hung-worker reaping,
poison requeue, degrade accounting — runs in milliseconds.  Workers
send their outcome over a pipe, and the supervisor writes nothing to
disk.
"""

import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.campaign import run_campaign, run_segment_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import (
    ON_SHARD_FAILURE,
    WORKER_FAULT_KINDS,
    ShardFailure,
    SupervisorPolicy,
    SupervisorReport,
    WorkerFaultPlan,
    _POISON_BYTES,
    _ShardSupervisor,
    _WorkerUnit,
)
from repro.util.rng import Seed

PLAN = [["a", "b"], ["c"], ["d", "e"]]
SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def _stub_shard(shard_index, seed, config, persona_names, collect_obs):
    return f"result-{shard_index}"


def _slow_stub_shard(shard_index, seed, config, persona_names, collect_obs):
    time.sleep(0.2)
    return f"result-{shard_index}"


#: Bytes in a result large enough to fill any OS pipe buffer many times.
BIG_RESULT_BYTES = 8 * 1024 * 1024


def _big_stub_shard(shard_index, seed, config, persona_names, collect_obs):
    return bytes([shard_index]) * BIG_RESULT_BYTES


def _supervisor(policy, shard_fn=_stub_shard):
    return _ShardSupervisor(
        PLAN,
        Seed(2026),
        None,  # config is opaque to the supervisor; the stub ignores it
        False,
        policy,
        shard_fn=shard_fn,
    )


def _first_failure(schedule):
    """The ShardFailure a ``raise``-policy run ends with: its message
    carries the supervisor's detail for the failed attempt."""
    policy = SupervisorPolicy(
        on_shard_failure="raise",
        worker_faults=WorkerFaultPlan.targeted(schedule),
    )
    with pytest.raises(ShardFailure) as excinfo:
        _supervisor(policy).run()
    return excinfo.value


class TestHealthyRuns:
    def test_all_shards_complete(self):
        results, report = _supervisor(SupervisorPolicy()).run()
        assert results == {0: "result-0", 1: "result-1", 2: "result-2"}
        assert report.attempts == {0: ["ok"], 1: ["ok"], 2: ["ok"]}
        assert report.retries == 0
        assert report.failed_shards == ()
        assert report.missing_personas == ()

    def test_results_larger_than_a_pipe_buffer_arrive(self):
        """The supervisor reads while the worker writes: an 8 MiB result
        per shard neither deadlocks nor arrives truncated."""
        supervisor = _supervisor(
            SupervisorPolicy(shard_timeout=60.0), shard_fn=_big_stub_shard
        )
        results, report = supervisor.run()
        assert report.attempts == {0: ["ok"], 1: ["ok"], 2: ["ok"]}
        for index, result in results.items():
            assert result == bytes([index]) * BIG_RESULT_BYTES

    def test_unjournaled_run_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        policy = SupervisorPolicy(
            worker_faults=WorkerFaultPlan.targeted(
                {(0, 1): "crash", (1, 1): "poison"}
            )
        )
        results, report = _supervisor(policy).run()
        assert results == {0: "result-0", 1: "result-1", 2: "result-2"}
        assert report.attempts == {
            0: ["crash", "ok"],
            1: ["poison", "ok"],
            2: ["ok"],
        }
        assert list(tmp_path.iterdir()) == []


class TestCrashRecovery:
    def test_injected_crash_is_retried(self):
        results, report = self._crash_then_ok().run()
        assert results == {0: "result-0", 1: "result-1", 2: "result-2"}
        assert report.attempts[1] == ["crash", "ok"]
        assert report.retries == 1
        assert report.missing_personas == ()

    def test_injected_process_crash_is_retried(self):
        """The process dies outright: EOF on its pipe is the crash."""
        results, report = self._crash_then_ok().run()
        assert results[1] == "result-1"
        assert report.attempts[1] == ["crash", "ok"]
        # The crash closed the pipe unsent; the supervisor says so.
        failure = _first_failure({(1, 1): "crash"})
        assert "without sending a result (worker exit code 3)" in str(failure)

    def _crash_then_ok(self):
        policy = SupervisorPolicy(
            worker_faults=WorkerFaultPlan.targeted({(1, 1): "crash"})
        )
        return _supervisor(policy)

    def test_retry_budget_exhaustion_raises(self):
        schedule = {(1, attempt): "crash" for attempt in (1, 2)}
        policy = SupervisorPolicy(
            max_shard_retries=1,
            worker_faults=WorkerFaultPlan.targeted(schedule),
        )
        with pytest.raises(ShardFailure) as excinfo:
            _supervisor(policy).run()
        assert excinfo.value.shard_index == 1
        assert excinfo.value.outcomes == ("crash", "crash")

    def test_raise_policy_propagates_first_failure(self):
        failure = _first_failure({(0, 1): "crash"})
        assert failure.outcomes == ("crash",)

    def test_real_worker_exception_is_a_crash(self):
        supervisor = _supervisor(
            SupervisorPolicy(max_shard_retries=0), shard_fn=_exploding_stub
        )
        # The worker's traceback is the failure's detail.
        with pytest.raises(ShardFailure, match="exploded") as excinfo:
            supervisor.run()
        assert excinfo.value.outcomes == ("crash",)


def _exploding_stub(shard_index, seed, config, persona_names, collect_obs):
    raise RuntimeError("worker exploded")


class TestDegrade:
    def test_exhausted_shard_is_dropped_and_accounted(self):
        schedule = {(2, attempt): "crash" for attempt in (1, 2, 3)}
        policy = SupervisorPolicy(
            on_shard_failure="degrade",
            worker_faults=WorkerFaultPlan.targeted(schedule),
        )
        results, report = _supervisor(policy).run()
        assert sorted(results) == [0, 1]
        assert report.failed_shards == (2,)
        assert report.missing_personas == ("d", "e")
        assert report.attempts[2] == ["crash", "crash", "crash"]


class TestWatchdog:
    def test_hung_worker_is_reaped_and_retried(self):
        policy = SupervisorPolicy(
            shard_timeout=1.5,
            worker_faults=WorkerFaultPlan.targeted(
                {(1, 1): "hang"}, hang_seconds=3600
            ),
        )
        supervisor = _supervisor(policy)
        started = time.monotonic()
        results, report = supervisor.run()
        elapsed = time.monotonic() - started
        assert results[1] == "result-1"
        assert report.attempts[1] == ["hang", "ok"]
        # Reaped by the wall-clock watchdog, not by the hang expiring.
        assert elapsed < 60

    def test_reaped_worker_dies_despite_an_inherited_sigterm_handler(
        self, monkeypatch
    ):
        """``repro serve`` traps SIGTERM to drain; a worker forked under
        that handler inherits it, so the watchdog must not rely on
        SIGTERM to stop a hung attempt."""
        reaped = []
        reap = _WorkerUnit.reap

        def recording_reap(unit):
            reap(unit)
            reaped.append(unit.process)

        monkeypatch.setattr(_WorkerUnit, "reap", recording_reap)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            policy = SupervisorPolicy(
                shard_timeout=1.0,
                worker_faults=WorkerFaultPlan.targeted(
                    {(1, 1): "hang"}, hang_seconds=3600
                ),
            )
            supervisor = _supervisor(policy)
            started = time.monotonic()
            results, report = supervisor.run()
            elapsed = time.monotonic() - started
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert report.attempts[1] == ["hang", "ok"]
        assert results[1] == "result-1"
        (process,) = reaped
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL
        # Well under the 5 s a reap waits for a worker that will not die.
        assert elapsed < 4.0

    def test_watchdog_leaves_slow_but_live_workers_alone(self):
        policy = SupervisorPolicy(shard_timeout=30.0)
        results, report = _supervisor(policy, shard_fn=_slow_stub_shard).run()
        assert len(results) == len(PLAN)
        assert all(outcomes == ["ok"] for outcomes in report.attempts.values())


_ORPHAN_SCRIPT = """
import os, sys, time
from repro.core.parallel import SupervisorPolicy, _ShardSupervisor
from repro.util.rng import Seed

def slow_big(shard_index, seed, config, persona_names, collect_obs):
    open(os.path.join(sys.argv[1], f"worker-{os.getpid()}"), "w").close()
    time.sleep(1.0)
    return b"x" * (1 << 20)  # far more than a pipe buffer holds

_ShardSupervisor(
    [["a"], ["b"], ["c"]], Seed(1), None, False,
    SupervisorPolicy(), shard_fn=slow_big,
).run()
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_supervisor_is_killed(self, tmp_path):
        """A worker whose supervisor died fails its send and exits: no
        forked sibling keeps the dead supervisor's read ends open."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        victim = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT, str(tmp_path)], env=env
        )
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("worker-*"))) < 3:
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
        finally:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        pids = [int(p.name.split("-")[1]) for p in tmp_path.glob("worker-*")]
        deadline = time.monotonic() + 30
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        stuck = [pid for pid in pids if _running(pid)]
        for pid in stuck:
            os.kill(pid, signal.SIGKILL)
        assert not stuck, f"orphaned workers blocked in send: {stuck}"


class TestPoison:
    def test_poisoned_result_is_retried_once(self):
        results, report = self._poison_then_ok().run()
        assert results[0] == "result-0"
        assert report.attempts[0] == ["poison", "ok"]
        assert report.retries == 1

    def test_poisoned_result_is_named_unreadable(self):
        """The poisoned bytes that crossed the pipe do not unpickle, and
        the supervisor names them as unreadable."""
        results, report = self._poison_then_ok().run()
        assert results[0] == "result-0"
        assert report.attempts[0] == ["poison", "ok"]
        assert report.outcome_count("poison") == 1
        with pytest.raises(Exception):
            pickle.loads(_POISON_BYTES)
        failure = _first_failure({(0, 1): "poison"})
        assert failure.outcomes == ("poison",)
        assert "worker sent an unreadable result" in str(failure)

    def _poison_then_ok(self):
        policy = SupervisorPolicy(
            worker_faults=WorkerFaultPlan.targeted({(0, 1): "poison"})
        )
        return _supervisor(policy)


class TestWorkerFaultPlan:
    def test_rate_draws_are_deterministic(self):
        def draws(plan):
            return [plan.decide(s, a) for s in range(8) for a in (1, 2)]

        make = lambda: WorkerFaultPlan(
            Seed(7), crash_rate=0.3, hang_rate=0.2, poison_rate=0.1
        )
        assert draws(make()) == draws(make())

    def test_draws_survive_pickling(self):
        plan = WorkerFaultPlan(Seed(7), crash_rate=0.5)
        clone = pickle.loads(pickle.dumps(plan))
        assert [plan.decide(s, 1) for s in range(8)] == [
            clone.decide(s, 1) for s in range(8)
        ]

    def test_draws_are_keyed_not_sequential(self):
        """(shard, attempt) keying: decision order must not matter."""
        forward = {
            (s, a): d.kind if (d := WorkerFaultPlan(
                Seed(7), crash_rate=0.4, hang_rate=0.3
            ).decide(s, a)) else None
            for s in range(4)
            for a in (1, 2)
        }
        plan = WorkerFaultPlan(Seed(7), crash_rate=0.4, hang_rate=0.3)
        backward = {}
        for s in reversed(range(4)):
            for a in (2, 1):
                decision = plan.decide(s, a)
                backward[(s, a)] = decision.kind if decision else None
        assert forward == backward

    def test_targeted_schedule_is_exact(self):
        plan = WorkerFaultPlan.targeted({(2, 1): "hang"})
        assert plan.decide(2, 1).kind == "hang"
        assert plan.decide(2, 2) is None
        assert plan.decide(0, 1) is None
        assert plan.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            WorkerFaultPlan(Seed(1), crash_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            WorkerFaultPlan(Seed(1), crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(ValueError, match="seed"):
            WorkerFaultPlan(crash_rate=0.5)
        with pytest.raises(ValueError, match="hang_seconds"):
            WorkerFaultPlan(Seed(1), hang_seconds=0)
        with pytest.raises(ValueError, match="kind"):
            WorkerFaultPlan.targeted({(0, 1): "meltdown"})
        assert not WorkerFaultPlan(Seed(1)).enabled

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_hang_seconds_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="hang_seconds"):
            WorkerFaultPlan(Seed(1), crash_rate=0.1, hang_seconds=bad)
        with pytest.raises(ValueError, match="hang_seconds"):
            WorkerFaultPlan.targeted({(0, 1): "hang"}, hang_seconds=bad)

    def test_kind_order_is_sealed(self):
        """The draw partition order is part of the deterministic contract."""
        assert WORKER_FAULT_KINDS == ("crash", "hang", "poison")


class TestPolicyValidation:
    def test_policies_sealed(self):
        assert ON_SHARD_FAILURE == ("retry", "degrade", "raise")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="on_shard_failure"):
            SupervisorPolicy(on_shard_failure="panic")
        with pytest.raises(ValueError, match="shard_timeout"):
            SupervisorPolicy(shard_timeout=0)
        with pytest.raises(ValueError, match="max_shard_retries"):
            SupervisorPolicy(max_shard_retries=-1)


class TestSupervisorReport:
    def test_retries_counts_beyond_first_attempt(self):
        report = SupervisorReport(
            attempts={
                0: ["ok"],
                1: ["crash", "hang", "ok"],
                2: ["crash", "enospc-degrade"],
            }
        )
        assert report.retries == 3
        assert report.outcome_count("crash") == 2
        assert report.outcome_count("hang") == 1
        assert report.outcome_count("ok") == 2


TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


@pytest.fixture
def no_journal(monkeypatch, tmp_path):
    """Run in an empty directory with temp files pointed into it; the
    temp directory must still be empty afterwards."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    yield tmp_path
    assert list((tmp_path / "tmp").iterdir()) == []


class TestNoCheckpointDir:
    """The supervisor keeps no journal: a memory-store parallel run
    writes nothing, and a segment-store one writes only its store."""

    def test_memory_store_parallel_run(self, no_journal):
        dataset = run_campaign(TINY, Seed(2026), parallel=True, workers=2)
        assert dataset.missing_personas == ()
        assert sorted(p.name for p in no_journal.iterdir()) == ["tmp"]

    def test_segment_store_parallel_run(self, no_journal):
        store = run_segment_campaign(
            TINY,
            Seed(2026),
            store_dir=no_journal / "store",
            parallel=True,
            workers=2,
        )
        assert store.status() == "complete"
        assert not list(no_journal.rglob("journal.json"))
        assert not list(no_journal.rglob("shard-*"))
