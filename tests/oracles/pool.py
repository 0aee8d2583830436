"""Reference pool DES: one ``Job`` object and one heap event per job.

:class:`ReferencePoolSimulator` overrides the struct-of-arrays handlers
of :class:`~repro.osg.pool.OSPoolSimulator` with the original per-job
loop: jobs are :class:`~repro.condor.jobs.Job` objects, every match is
scored by the scalar :func:`~repro.osg.negotiator.negotiate`, each start
schedules its own completion event, the running set is a list rebuilt
on every completion, and evictions cancel completion events on the
heap. It consumes the RNG streams in the same order as the production
engine, so metrics, user logs and rescue files must match it bit for
bit — the equivalence tests diff everything observable.

Layers that build their own pool (``replay_instance``, ``replay_study``,
``run_fdw_batch``, ``PoolRunner``, ``resubmit_with_rescue``) are routed
through the oracle with :func:`pool_engine`.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock

from repro import obs
from repro.condor.events import JobEventType
from repro.condor.jobs import Job, JobState
from repro.core import submit_osg
from repro.errors import SimulationError
from repro.osg import pool as pool_module
from repro.osg.des import EventHandle, Simulator
from repro.osg.metrics import JobRecord
from repro.osg.negotiator import negotiate
from repro.osg.pool import DagmanRun, OSPoolSimulator
from repro.wf import replay

__all__ = ["ENGINES", "ReferencePoolSimulator", "pool_engine"]

#: Engine names the equivalence tests parametrize over.
ENGINES = ("reference", "vector")


class ReferencePoolSimulator(OSPoolSimulator):
    """The one-object-per-job pool loop (see the module docstring)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (start, run, node, job, completion handle) tuples.
        self._running: list[tuple[float, DagmanRun, str, Job, EventHandle]] = []
        self._evictions: dict[int, int] = {}

    def _dagman_cycle(self, run: DagmanRun) -> None:
        if run.finished:
            return
        batch = run.engine.pull_submissions(run.queue.n_idle)
        for node_name in batch:
            node = run.engine.dag.node(node_name)
            if node.pre_script is not None:
                script = node.pre_script
                if script.succeeds:
                    self.sim.schedule(
                        script.duration_s,
                        lambda r=run, n=node_name: self._enqueue_job(r, n),
                    )
                else:
                    self.sim.schedule(
                        script.duration_s,
                        lambda r=run, n=node_name: self._report_result(r, n, False),
                    )
            else:
                self._enqueue_job(run, node_name)
        self.sim.schedule(self.config.dagman_cycle_s, lambda: self._dagman_cycle(run))

    def _enqueue_job(self, run: DagmanRun, node_name: str) -> None:
        if run.finished:
            return
        now = self.sim.now
        spec = run.engine.dag.node(node_name).spec
        job = Job(spec, cluster_id=self._next_cluster)
        self._next_cluster += 1
        job.transition(JobState.IDLE, now)
        run.user_log.record(
            JobEventType.SUBMIT, job.cluster_id, now, host=f"schedd-{run.name}"
        )
        run.jobs.setdefault(node_name, []).append(job)
        run.queue.enqueue(node_name, job)

    def _negotiator_cycle(self) -> None:
        if self._all_done():
            return
        free = max(0, self._capacity - len(self._running))
        queues = [d.queue for d in self._dagmans.values() if not d.finished]
        matches = negotiate(queues, free, self.config.negotiator)
        if obs.enabled():
            obs.counter_add("repro_pool_negotiation_cycles_total", 1)
            if matches:
                obs.counter_add("repro_pool_matches_total", len(matches))
        for queue, node_name, job in matches:
            run = self._dagmans[queue.name]
            self._start_job(run, node_name, job)
        self.sim.schedule(self.config.negotiator.cycle_s, self._negotiator_cycle)

    def _start_job(self, run: DagmanRun, node_name: str, job: Job) -> None:
        now = self.sim.now
        slot = f"slot-{self._next_slot}"
        self._next_slot += 1
        job.transition(JobState.RUNNING, now)
        job.slot_name = slot
        run.user_log.record(JobEventType.EXECUTE, job.cluster_id, now, host=slot)
        duration = self.cache.transfer_time(
            job.spec, self._rng_transfer
        ) + self.config.runtime.sample_seconds(job.spec, self._rng_runtime)
        handle = self.sim.schedule(
            duration, lambda: self._finish_job(run, node_name, job)
        )
        self._running.append((now, run, node_name, job, handle))

    def _finish_job(self, run: DagmanRun, node_name: str, job: Job) -> None:
        now = self.sim.now
        self._running = [entry for entry in self._running if entry[3] is not job]
        if len(self._running) < self._capacity and run.queue.n_idle > 0:
            next_node, next_job = run.queue.pop()
            self._start_job(run, next_node, next_job)
        success = bool(self._rng_failure.random() < self.config.success_prob)
        if (
            not success
            and self.config.max_job_holds > 0
            and run.engine.retries_left(node_name) == 0
            and run.holds.get(node_name, 0) < self.config.max_job_holds
        ):
            self._hold_job(run, node_name, job)
            return
        job.transition(JobState.COMPLETED if success else JobState.FAILED, now)
        run.user_log.record(
            JobEventType.TERMINATED,
            job.cluster_id,
            now,
            return_value=0 if success else 1,
        )
        self._records.append(
            JobRecord(
                node_name=node_name,
                dagman=run.name,
                phase=job.spec.payload.phase if job.spec.payload else "generic",
                cluster_id=job.cluster_id,
                submit_time=job.submit_time or 0.0,
                start_time=job.start_time or 0.0,
                end_time=now,
                n_evictions=self._evictions.get(job.cluster_id, 0),
                success=success,
            )
        )
        node = run.engine.dag.node(node_name)
        if node.post_script is not None:
            final = node.post_script.succeeds
            self.sim.schedule(
                node.post_script.duration_s,
                lambda: self._report_result(run, node_name, final),
            )
        else:
            self._report_result(run, node_name, success)

    def _holds_slots(self, run: DagmanRun) -> bool:
        return any(entry[1] is run for entry in self._running)

    def _evict_entries(
        self, victims: list[tuple[float, DagmanRun, str, Job, EventHandle]]
    ) -> None:
        now = self.sim.now
        for _, run, node_name, job, handle in victims:
            Simulator.cancel(handle)
            job.transition(JobState.IDLE, now)
            run.user_log.record(JobEventType.EVICTED, job.cluster_id, now)
            self._evictions[job.cluster_id] = self._evictions.get(job.cluster_id, 0) + 1
            run.queue.enqueue(node_name, job, front=True)

    def _preempt_to_capacity(self) -> None:
        overflow = len(self._running) - self._capacity
        if overflow <= 0:
            return
        self._running.sort(key=lambda entry: entry[0])
        victims = self._running[-overflow:]
        del self._running[-overflow:]
        self._evict_entries(victims)

    def inject_eviction(self, count: int = 1) -> int:
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        self._running.sort(key=lambda entry: entry[0])
        victims = self._running[-count:]
        del self._running[len(self._running) - len(victims):]
        self._evict_entries(victims)
        return len(victims)

    def inject_hold(self, count: int = 1, dagman: str | None = None) -> int:
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        candidates = [
            entry for entry in self._running
            if dagman is None or entry[1].name == dagman
        ]
        candidates.sort(key=lambda entry: entry[0])
        victims = candidates[-count:]
        for entry in victims:
            self._running.remove(entry)
            _, run, node_name, job, handle = entry
            Simulator.cancel(handle)
            self._hold_job(run, node_name, job)
        return len(victims)

    def _abort_claims(self, run: DagmanRun, now: float) -> None:
        victims = [entry for entry in self._running if entry[1] is run]
        self._running = [entry for entry in self._running if entry[1] is not run]
        for _, _, _, job, handle in victims:
            Simulator.cancel(handle)
            job.transition(JobState.REMOVED, now)
            run.user_log.record(JobEventType.ABORTED, job.cluster_id, now)


@contextmanager
def pool_engine(engine: str) -> Iterator[None]:
    """Make every pool a higher layer builds run on ``engine``.

    ``"vector"`` leaves production untouched; ``"reference"`` swaps the
    module-level ``OSPoolSimulator`` name for
    :class:`ReferencePoolSimulator` in each module that constructs a
    pool, for the duration of the ``with`` block.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown pool engine {engine!r}")
    with ExitStack() as stack:
        if engine == "reference":
            for module in (pool_module, submit_osg, replay):
                stack.enter_context(
                    mock.patch.object(module, "OSPoolSimulator", ReferencePoolSimulator)
                )
        yield
