"""Fair-share campaign scheduler with a bounded worker budget.

The service runs campaigns for multiple tenants concurrently, but the
host has a fixed number of cores — so admission is governed by a
**worker-token budget**: a serial campaign costs one token, a parallel
campaign costs its worker count, and the sum of running jobs' tokens
never exceeds ``total_workers``.  Admission is strict FIFO over the
submission order: the head job waits until its tokens fit, and nothing
behind it can jump the queue.  That is the fairness guarantee — a small
tenant can never be starved by a stream of big campaigns (they queue
behind it), and a big campaign can never be starved by a stream of
small ones (they queue behind *it*).

Every admitted job runs on its own thread; the campaign itself may then
fan out into forked shard processes inside its token allowance.
Scheduler behaviour is observable through the ``service.*`` counters
(:meth:`CampaignScheduler.counters`), including
``service.workers_peak`` — the high-water token usage, which a test can
assert never exceeded the budget.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Set

from repro.core.campaign import CampaignSpec, _DEFAULT_WORKERS
from repro.service.jobs import Job, JobStore

__all__ = [
    "CampaignScheduler",
    "DrainingError",
    "QueueFullError",
    "worker_cost",
]


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity; the caller should back off.

    The HTTP layer maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header carrying :attr:`retry_after` seconds.
    """

    def __init__(self, limit: int, *, retry_after: int = 1) -> None:
        super().__init__(
            f"job queue is full ({limit} campaigns queued); retry later"
        )
        self.limit = limit
        self.retry_after = retry_after


class DrainingError(RuntimeError):
    """The scheduler is draining (graceful shutdown); no new admissions."""


def worker_cost(spec: CampaignSpec, total_workers: int) -> int:
    """Worker tokens one campaign consumes while running.

    Clamped to the budget so a campaign asking for more workers than
    the service owns still runs (alone) instead of queueing forever.
    """
    cost = (spec.workers or _DEFAULT_WORKERS) if spec.parallel else 1
    return max(1, min(cost, total_workers))


class CampaignScheduler:
    """FIFO job queue + worker-token admission over a :class:`JobStore`."""

    def __init__(
        self,
        store: JobStore,
        *,
        total_workers: int = 4,
        max_queue: Optional[int] = None,
        job_timeout: Optional[float] = None,
    ) -> None:
        if total_workers < 1:
            raise ValueError(f"total_workers must be >= 1, got {total_workers}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0, got {job_timeout}")
        self.store = store
        self.total_workers = total_workers
        #: Queued-job cap (``None`` = unbounded); overflow submissions
        #: raise :class:`QueueFullError` instead of growing the backlog.
        self.max_queue = max_queue
        #: Per-job wall-clock budget (``None`` = none); the watchdog
        #: marks jobs over budget ``failed`` and frees their tokens.
        self.job_timeout = job_timeout
        self._cond = threading.Condition()
        self._queue: List[str] = []  # job ids, submission order
        self._reserved = 0  # admission slots held by in-flight submits
        self._active_tokens = 0
        self._active_threads: Dict[str, threading.Thread] = {}
        self._active_costs: Dict[str, int] = {}
        self._started: Dict[str, float] = {}  # job id -> monotonic start
        self._reaped: Set[str] = set()  # jobs the watchdog already settled
        self._counters: Dict[str, int] = {
            "service.jobs_submitted": 0,
            "service.jobs_completed": 0,
            "service.jobs_partial": 0,
            "service.jobs_failed": 0,
            "service.jobs_cancelled": 0,
            "service.jobs_recovered": 0,
            "service.jobs_rejected": 0,
            "service.watchdog_reaped": 0,
            "service.workers_active": 0,
            "service.workers_peak": 0,
        }
        self._stopping = False
        self._draining = False
        self._dispatcher: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Recover persisted jobs and start dispatching."""
        recovered = self.store.recover()
        with self._cond:
            for job in recovered:
                self._queue.append(job.id)
                self._counters["service.jobs_recovered"] += 1
            self._stopping = False
            self._draining = False
            self._cond.notify_all()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="campaign-dispatcher", daemon=True
        )
        self._dispatcher.start()
        if self.job_timeout is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="campaign-watchdog", daemon=True
            )
            self._watchdog.start()

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop admitting jobs; optionally wait for running ones."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        if self._watchdog is not None:
            self._watchdog.join()
            self._watchdog = None
        if wait:
            for thread in list(self._active_threads.values()):
                thread.join()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admission, finish what is running.

        New submissions raise :class:`DrainingError`; the dispatcher
        stops handing out work; running jobs run to their own terminal
        states (their segment batches are durable, so
        nothing is lost either way).  Jobs still queued stay durably
        ``queued`` — a restarted service re-admits them through
        ``store.recover()`` in their original order.  Returns ``True``
        when every running job finished within ``timeout``.
        """
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            running = list(self._active_threads.values())
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in running:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        with self._cond:
            return not self._active_threads

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and nothing is running."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and not self._active_threads,
                timeout=timeout,
            )

    # ------------------------------------------------------------------ #
    # Submission / cancellation
    # ------------------------------------------------------------------ #

    def submit(self, spec: CampaignSpec) -> Job:
        """Persist and enqueue a new campaign job.

        Raises :class:`DrainingError` during graceful shutdown and
        :class:`QueueFullError` when ``max_queue`` jobs are already
        waiting.  The queue slot is *reserved* before the durable
        ``store.submit`` (which does disk I/O outside the lock) and
        released on failure — concurrent submissions can never
        over-admit past the bound.
        """
        with self._cond:
            if self._draining or self._stopping:
                self._counters["service.jobs_rejected"] += 1
                raise DrainingError(
                    "scheduler is draining; no new jobs are admitted"
                )
            if (
                self.max_queue is not None
                and len(self._queue) + self._reserved >= self.max_queue
            ):
                self._counters["service.jobs_rejected"] += 1
                raise QueueFullError(self.max_queue)
            self._reserved += 1
        try:
            job = self.store.submit(spec)
        except BaseException:
            with self._cond:
                self._reserved -= 1
                self._cond.notify_all()
            raise
        with self._cond:
            self._reserved -= 1
            self._queue.append(job.id)
            self._counters["service.jobs_submitted"] += 1
            self._cond.notify_all()
        return job

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job if it has not started; returns the new state.

        A ``queued`` job is dequeued and marked ``cancelled``.  A
        ``running`` campaign is not interruptible (its worker processes
        own the work), so cancellation is recorded as a request and the
        job runs to its own terminal state.  Terminal jobs are
        unchanged.  Returns ``None`` for unknown ids.
        """
        job = self.store.get(job_id)
        if job is None:
            return None
        with self._cond:
            if job_id in self._queue and job.state == "queued":
                # Dequeueing releases the job's admission slot: the
                # bounded queue gains a space and the dispatcher is
                # woken in case the head was waiting behind this entry.
                self._queue.remove(job_id)
                self._counters["service.jobs_cancelled"] += 1
                # Event before state: SSE tails close on the terminal
                # state and must not miss the cancellation event.
                job.events.emit("job.cancelled")
                job.update_state("cancelled")
                self._cond.notify_all()
                return "cancelled"
        if job.state in ("running", "queued"):
            # Running campaigns are not interruptible; a queued job that
            # is already off the queue (dispatched, not yet started)
            # gets the same flag, which job.execute honours on entry.
            job.set_flag("cancel_requested", True)
        return job.state

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def counters(self) -> Dict[str, int]:
        """A snapshot of the ``service.*`` counters."""
        with self._cond:
            counters = dict(self._counters)
            counters["service.jobs_queued"] = len(self._queue)
        return counters

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._stopping
                    or self._draining
                    or self._admissible()
                )
                if self._stopping or self._draining:
                    return
                job_id = self._queue.pop(0)
                job = self.store.get(job_id)
                assert job is not None  # queue only ever holds known ids
                cost = worker_cost(job.spec, self.total_workers)
                self._active_tokens += cost
                self._counters["service.workers_active"] = self._active_tokens
                self._counters["service.workers_peak"] = max(
                    self._counters["service.workers_peak"], self._active_tokens
                )
                thread = threading.Thread(
                    target=self._run_job,
                    args=(job, cost),
                    name=f"campaign-{job.id}",
                    daemon=True,
                )
                self._active_threads[job.id] = thread
                self._active_costs[job.id] = cost
                self._started[job.id] = time.monotonic()
            thread.start()

    def _admissible(self) -> bool:
        """Strict FIFO: only the head job is considered for admission."""
        if not self._queue:
            return False
        job = self.store.get(self._queue[0])
        if job is None:
            self._queue.pop(0)
            return self._admissible()
        cost = worker_cost(job.spec, self.total_workers)
        return self._active_tokens + cost <= self.total_workers

    def _run_job(self, job: Job, cost: int) -> None:
        # Token release lives in a finally: a BaseException escaping
        # job.execute (KeyboardInterrupt delivered to a worker thread,
        # SystemExit from deep inside a backend) would otherwise leak the
        # job's worker tokens and wedge admission forever.
        state = "failed"
        try:
            state = job.execute()
        except Exception:  # noqa: BLE001 - job.execute already records errors
            pass
        finally:
            with self._cond:
                if job.id in self._reaped:
                    # The watchdog already failed this job, released its
                    # tokens, and counted it; this thread merely outlived
                    # the verdict (job.update_state is terminal-guarded,
                    # so nothing it wrote after the reap stuck either).
                    self._reaped.discard(job.id)
                else:
                    self._active_tokens -= cost
                    self._counters["service.workers_active"] = self._active_tokens
                    self._active_threads.pop(job.id, None)
                    self._active_costs.pop(job.id, None)
                    self._started.pop(job.id, None)
                    key = {
                        "complete": "service.jobs_completed",
                        "partial": "service.jobs_partial",
                        "cancelled": "service.jobs_cancelled",
                    }.get(state, "service.jobs_failed")
                    self._counters[key] += 1
                self._cond.notify_all()

    def _watchdog_loop(self) -> None:
        """Fail jobs over their wall-clock budget and free their tokens.

        A hung campaign (a wedged worker process, a deadlocked backend)
        would otherwise hold its worker tokens forever and starve the
        FIFO head.  The watchdog cannot kill the job's thread — Python
        threads are not interruptible — but it can settle the job's
        *accounting*: mark it failed (event first, then state), release
        its tokens so admission moves on, and leave the zombie thread to
        finish into a terminal-guarded state that ignores it.
        """
        assert self.job_timeout is not None
        poll = max(0.01, min(0.25, self.job_timeout / 4))
        with self._cond:
            while not self._stopping:
                now = time.monotonic()
                for job_id, started in list(self._started.items()):
                    if now - started <= self.job_timeout:
                        continue
                    job = self.store.get(job_id)
                    cost = self._active_costs.pop(job_id, 0)
                    self._active_threads.pop(job_id, None)
                    self._started.pop(job_id, None)
                    self._reaped.add(job_id)
                    self._active_tokens -= cost
                    self._counters["service.workers_active"] = self._active_tokens
                    self._counters["service.watchdog_reaped"] += 1
                    self._counters["service.jobs_failed"] += 1
                    if job is not None:
                        message = (
                            f"no terminal state within job_timeout="
                            f"{self.job_timeout}s; watchdog freed its "
                            f"{cost} worker token(s)"
                        )
                        job.events.emit(
                            "job.failed", error=message, reason="watchdog_timeout"
                        )
                        job.update_state(
                            "failed", error=message, reason="watchdog_timeout"
                        )
                    self._cond.notify_all()
                self._cond.wait(timeout=poll)
