"""Universal replay: any WfFormat instance through the simulators.

``replay_instance`` drives an imported (or generated) instance through
the :class:`~repro.osg.pool.OSPoolSimulator` — including the paper's
1/2/4/8 concurrent-DAGMan partitioning study via
:func:`~repro.wf.generate.partition_instance` — and
``replay_bursting`` synthesizes the batch + per-job traces from the
resulting metrics so Policies 1–3 run on workloads that never came from
the FDW.

Two runtime modes:

``"trace"`` (default)
    Each task runs for exactly its recorded ``runtimeInSeconds`` (a
    :class:`TraceRuntimeModel` replaces the calibrated lognormal
    model) and jobs never fail — replay of what actually happened,
    which is also the only meaningful mode for non-FDW instances.

``"model"``
    The pool's calibrated stochastic :class:`~repro.osg.runtimes.
    RuntimeModel` runs unchanged. For an instance exported from an FDW
    simulation, replaying in model mode with the same pool
    configuration, capacity process, and seed consumes the exact same
    RNG streams and therefore reproduces the original simulated
    makespan **bit-identically** (asserted by the round-trip tests).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.errors import PolicyError, TraceError, WfFormatError
from repro.bursting.cloud import CloudJobModel
from repro.bursting.policies import (
    LowThroughputPolicy,
    QueueTimePolicy,
    SubmissionGapPolicy,
)
from repro.bursting.simulator import BurstingResult, BurstingSimulator
from repro.condor.dagman import DagmanOptions
from repro.condor.events import UserLog
from repro.core.stats import EC2_A1_XLARGE_USD_PER_MINUTE, bursting_cost_usd
from repro.core.traces import BatchTrace, JobTrace
from repro.osg.capacity import CapacityProcess
from repro.osg.metrics import PoolMetrics
from repro.osg.pool import OSPoolConfig, OSPoolSimulator
from repro.wf.generate import partition_instance
from repro.wf.importer import ImportedWorkflow, import_instance
from repro.wf.schema import WfInstance, load_instance

__all__ = [
    "TraceRuntimeModel",
    "CategoryCloudModel",
    "ReplayResult",
    "replay_instance",
    "replay_study",
    "metrics_to_batch_trace",
    "replay_bursting",
]

_FDW_PHASES = frozenset({"A", "B", "C", "dist"})


@dataclass(frozen=True)
class TraceRuntimeModel:
    """Runtime model that replays traced per-task runtimes verbatim.

    Duck-types :class:`~repro.osg.runtimes.RuntimeModel` for the pool
    simulator: ``sample_seconds`` looks the job up by name and returns
    its recorded duration (clamped to the simulator's 1 s floor),
    consuming no randomness. Tasks absent from the table — e.g. nodes
    added after an import — fall back to ``default_s``.
    """

    runtimes: Mapping[str, float]
    default_s: float = 300.0

    def sample_seconds(self, spec, rng) -> float:
        """Recorded duration of ``spec.name`` (``rng`` is untouched)."""
        return max(1.0, float(self.runtimes.get(spec.name, self.default_s)))


@dataclass(frozen=True)
class CategoryCloudModel:
    """Constant-time cloud model for arbitrary task categories.

    Duck-types :class:`~repro.bursting.cloud.CloudJobModel` for the
    bursting simulator: any category present in ``durations_s`` is
    burstable and completes on VDC in its constant recorded time —
    the paper's 287 s / 144 s mechanism generalized beyond rupture and
    waveform jobs.
    """

    durations_s: Mapping[str, float]
    usd_per_minute: float = EC2_A1_XLARGE_USD_PER_MINUTE

    def __post_init__(self) -> None:
        if not self.durations_s:
            raise PolicyError("CategoryCloudModel needs at least one category")
        bad = {c: d for c, d in self.durations_s.items() if d <= 0}
        if bad:
            raise PolicyError(f"cloud durations must be positive: {bad}")
        if self.usd_per_minute < 0:
            raise PolicyError("cloud price must be non-negative")

    # The bursting simulator sizes its replay horizon from these two
    # attributes; the extremes bound every category's duration.
    @property
    def rupture_seconds(self) -> float:
        """Longest per-category cloud duration (horizon bound)."""
        return max(self.durations_s.values())

    @property
    def waveform_seconds(self) -> float:
        """Shortest per-category cloud duration (horizon bound)."""
        return min(self.durations_s.values())

    def is_burstable(self, phase: str) -> bool:
        """True when ``phase`` (a task category) has a cloud duration."""
        return phase in self.durations_s

    def duration_s(self, phase: str) -> float:
        """Constant cloud completion time for the category.

        Raises
        ------
        PolicyError
            For categories without a recorded duration.
        """
        try:
            return self.durations_s[phase]
        except KeyError:
            raise PolicyError(f"category {phase!r} is not burstable") from None

    def cost_usd(self, cloud_seconds: float) -> float:
        """Eq. (7): price of the consumed cloud time."""
        return bursting_cost_usd(cloud_seconds / 60.0, self.usd_per_minute)

    @classmethod
    def from_trace(
        cls, trace: BatchTrace, *, speedup: float = 1.0
    ) -> "CategoryCloudModel":
        """Derive per-category durations from a traced batch.

        Each category's cloud time is its mean traced execution time
        divided by ``speedup`` (1.0 models a cloud node on par with the
        mean OSG node; bursting still shortens the makespan by absorbing
        queue waits and stragglers).
        """
        if speedup <= 0:
            raise PolicyError(f"speedup must be positive, got {speedup}")
        sums: dict[str, list[float]] = {}
        for job in trace.jobs:
            sums.setdefault(job.phase, []).append(job.exec_s)
        durations = {
            phase: max(1.0, float(np.mean(values)) / speedup)
            for phase, values in sorted(sums.items())
        }
        return cls(durations_s=durations)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one :func:`replay_instance` call."""

    #: The source instance (the original when ``n_dagmans == 1``).
    instance: WfInstance
    #: One imported workflow per concurrent DAGMan.
    workflows: tuple[ImportedWorkflow, ...]
    metrics: PoolMetrics
    #: Per-DAGMan HTCondor-style user logs (monitoring-pipeline input).
    user_logs: dict[str, UserLog] = field(repr=False)
    seed: int
    runtime_mode: str

    @property
    def n_dagmans(self) -> int:
        """Concurrent DAGMans in the replay."""
        return len(self.workflows)

    @property
    def makespan_s(self) -> float:
        """First submission to last DAGMan completion."""
        summaries = self.metrics.dagmans.values()
        return max(s.end_time for s in summaries) - min(
            s.submit_time for s in summaries
        )

    @property
    def dagman_names(self) -> tuple[str, ...]:
        """Names of the replayed DAGMans, in submission order."""
        return tuple(w.name for w in self.workflows)


def _resolve_workflows(
    source: WfInstance | ImportedWorkflow | str | Path,
    n_dagmans: int,
    seed: int,
) -> tuple[WfInstance, list[ImportedWorkflow]]:
    """The source instance and an import of each DAG to replay."""
    if isinstance(source, ImportedWorkflow):
        if n_dagmans == 1:
            return source.instance, [source]
        source = source.instance
    instance = source if isinstance(source, WfInstance) else load_instance(source)
    parts = partition_instance(instance, n_dagmans, seed)
    return instance, [import_instance(part) for part in parts]


def replay_instance(
    source: WfInstance | ImportedWorkflow | str | Path,
    *,
    n_dagmans: int = 1,
    seed: int = 0,
    runtime: str = "trace",
    config: OSPoolConfig | None = None,
    capacity: CapacityProcess | None = None,
    options: DagmanOptions | None = None,
    stagger_s: float = 0.0,
) -> ReplayResult:
    """Run a WfFormat instance through the OSPool simulator.

    Parameters
    ----------
    source:
        A :class:`~repro.wf.schema.WfInstance`, an already-imported
        workflow, or a path to a WfFormat JSON document.
    n_dagmans:
        Concurrent DAGMans. Above 1 the instance is re-generated into
        that many same-pattern partitions (the paper's partitioning
        study applied to arbitrary instances).
    runtime:
        ``"trace"`` or ``"model"`` — see the module docstring.
    config / capacity / options:
        Pool overrides. In trace mode the config's runtime model is
        replaced by a :class:`TraceRuntimeModel` and jobs never fail
        (``success_prob`` forced to 1): the trace already embodies the
        retries that happened.
    stagger_s:
        Submission offset between consecutive DAGMans.
    """
    if n_dagmans < 1:
        raise WfFormatError(f"n_dagmans must be >= 1, got {n_dagmans}")
    if runtime not in ("trace", "model"):
        raise WfFormatError(f"runtime must be 'trace' or 'model', got {runtime!r}")
    if stagger_s < 0:
        raise WfFormatError(f"stagger_s must be >= 0, got {stagger_s}")
    instance, workflows = _resolve_workflows(source, n_dagmans, seed)
    if options is None and "maxIdle" in instance.attributes:
        # Exported FDW runs record their DAGMan idle throttle; honouring
        # it is part of the bit-identical round-trip contract.
        options = DagmanOptions(max_idle=int(instance.attributes["maxIdle"]))
    pool_config = config or OSPoolConfig()
    if runtime == "trace":
        merged: dict[str, float] = {}
        for wf in workflows:
            merged.update(wf.runtimes)
        pool_config = replace(
            pool_config,
            runtime=TraceRuntimeModel(runtimes=merged),
            success_prob=1.0,
        )
    pool = OSPoolSimulator(config=pool_config, capacity=capacity, seed=seed)
    for i, wf in enumerate(workflows):
        pool.submit_dagman(wf.dag, options, name=wf.name, at_time=i * stagger_s)
    metrics = pool.run()
    user_logs = {name: run.user_log for name, run in pool.dagman_runs.items()}
    return ReplayResult(
        instance=instance,
        workflows=tuple(workflows),
        metrics=metrics,
        user_logs=user_logs,
        seed=seed,
        runtime_mode=runtime,
    )


def replay_study(
    source: WfInstance | str | Path,
    counts: Sequence[int] = (1, 2, 4, 8),
    *,
    seed: int = 0,
    runtime: str = "trace",
    config: OSPoolConfig | None = None,
    capacity: CapacityProcess | None = None,
    options: DagmanOptions | None = None,
    stagger_s: float = 0.0,
) -> dict[int, ReplayResult]:
    """The paper's concurrent-DAGMan study on an arbitrary instance.

    Replays the same workload split across each DAGMan count in
    ``counts`` (default 1/2/4/8) and returns the results keyed by
    count — makespans compare exactly like Figure 4's.
    """
    if not counts:
        raise WfFormatError("counts must not be empty")
    instance = source if isinstance(source, WfInstance) else load_instance(source)
    return {
        k: replay_instance(
            instance,
            n_dagmans=k,
            seed=seed,
            runtime=runtime,
            config=config,
            capacity=capacity,
            options=options,
            stagger_s=stagger_s,
        )
        for k in counts
    }


def metrics_to_batch_trace(metrics: PoolMetrics, dagman: str) -> BatchTrace:
    """Synthesize one DAGMan's bursting trace directly from pool metrics.

    The in-memory equivalent of :func:`repro.core.traces.export_traces`
    + :func:`~repro.core.traces.read_traces`: successful completions
    become the per-job trace, and the batch header takes the DAGMan's
    submit/end times with the earliest EXECUTE across *all* attempts.

    Raises
    ------
    TraceError
        If the DAGMan is unknown or has no successful jobs.
    """
    summary = metrics.dagmans.get(dagman)
    if summary is None:
        raise TraceError(f"no DAGMan {dagman!r} in the metrics")
    all_records = metrics.for_dagman(dagman)
    records = [r for r in all_records if r.success]
    if not records:
        raise TraceError(f"DAGMan {dagman!r} has no successful jobs to trace")
    jobs = tuple(
        JobTrace(
            node=r.node_name,
            phase=r.phase,
            submit_s=r.submit_time,
            start_s=r.start_time,
            end_s=r.end_time,
        )
        for r in sorted(records, key=lambda r: r.submit_time)
    )
    return BatchTrace(
        dagman=dagman,
        submit_s=summary.submit_time,
        first_execute_s=min(r.start_time for r in all_records),
        end_s=summary.end_time,
        jobs=jobs,
    )


def _default_policies() -> list:
    return [LowThroughputPolicy(), QueueTimePolicy(), SubmissionGapPolicy()]


def replay_bursting(
    result: ReplayResult,
    policies: list | None = None,
    cloud: CloudJobModel | CategoryCloudModel | None = None,
    *,
    max_burst_fraction: float | None = None,
    cloud_speedup: float = 1.0,
) -> dict[str, BurstingResult]:
    """Run the bursting policies over every DAGMan of a replay.

    ``policies`` defaults to fresh instances of Policies 1–3. ``cloud``
    defaults to the paper's :class:`~repro.bursting.cloud.CloudJobModel`
    when the replay's jobs are FDW-phased, and to a
    :class:`CategoryCloudModel` derived from each batch's own traced
    durations otherwise — so Policies 1–3 run unmodified on workloads
    that never came from the FDW.
    """
    results: dict[str, BurstingResult] = {}
    for wf in result.workflows:
        trace = metrics_to_batch_trace(result.metrics, wf.name)
        if cloud is not None:
            batch_cloud = cloud
        elif {j.phase for j in trace.jobs} <= _FDW_PHASES:
            batch_cloud = CloudJobModel()
        else:
            batch_cloud = CategoryCloudModel.from_trace(trace, speedup=cloud_speedup)
        sim = BurstingSimulator(
            trace,
            policies=policies if policies is not None else _default_policies(),
            cloud=batch_cloud,
            max_burst_fraction=max_burst_fraction,
        )
        results[wf.name] = sim.run()
    return results
