"""Bit-identical equivalence of the pool DES and its reference oracle.

The production engine (struct-of-arrays job table, batched negotiation,
coalesced completion events) must reproduce the one-object-per-job
oracle in :mod:`tests.oracles.pool` *exactly* — same job records, same
DAGMan summaries, same capacity traces, same rendered user logs, same
rescue files — because both consume the shared RNG streams in the same
order. Every scenario here runs both and diffs everything observable.
"""

from pathlib import Path

import pytest

from repro.condor.dagfile import DagDescription
from repro.condor.jobs import JobPayload, JobSpec
from repro.condor.rescue import read_rescue_file
from repro.osg.capacity import FixedCapacity, MarkovModulatedCapacity
from repro.osg.pool import OSPoolConfig, OSPoolSimulator, resubmit_with_rescue
from repro.osg.runtimes import RuntimeModel
from repro.osg.transfer import TransferConfig
from repro.wf.replay import replay_instance, replay_study
from tests.oracles.pool import ENGINES, ReferencePoolSimulator, pool_engine

FDW64 = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"

POOLS = {"reference": ReferencePoolSimulator, "vector": OSPoolSimulator}


def flat_dag(n_jobs=10, retries=2, name="e"):
    dag = DagDescription(name)
    for i in range(n_jobs):
        dag.add_job(
            f"{name}_{i}",
            JobSpec(
                name=f"{name}_{i}",
                payload=JobPayload(phase="A", n_items=1, n_stations=2),
            ),
            retries=retries,
        )
    return dag


def pool_outputs(pool, dags, until=None, pre_run=None):
    for dag in dags:
        pool.submit_dagman(dag)
    if pre_run is not None:
        pre_run(pool)
    metrics = pool.run(until=until)
    return metrics, {
        name: run.user_log.render() for name, run in pool.dagman_runs.items()
    }


def assert_same_outputs(make_pool, dags_factory, until=None, pre_run=None):
    """Run the scenario under both engines and diff every observable."""
    results = {}
    for engine in ENGINES:
        results[engine] = pool_outputs(
            make_pool(engine), dags_factory(), until=until, pre_run=pre_run
        )
    (ref_metrics, ref_logs), (vec_metrics, vec_logs) = (
        results["reference"],
        results["vector"],
    )
    assert ref_metrics.records == vec_metrics.records
    assert ref_metrics.dagmans == vec_metrics.dagmans
    assert ref_metrics.capacity_trace == vec_metrics.capacity_trace
    assert ref_logs == vec_logs
    return results


def quiet_config(**kwargs):
    kwargs.setdefault(
        "transfer", TransferConfig(setup_overhead_s=1.0, include_image=False)
    )
    kwargs.setdefault("success_prob", 1.0)
    return OSPoolConfig(**kwargs)


# -- basic scenarios -----------------------------------------------------------


def test_flat_dag_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(), capacity=FixedCapacity(4), seed=11
        ),
        lambda: [flat_dag(20)],
    )


def test_failures_and_retries_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(success_prob=0.6),
            capacity=FixedCapacity(3),
            seed=5,
        ),
        lambda: [flat_dag(15, retries=5)],
    )


def test_concurrent_dagmans_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(), capacity=FixedCapacity(5), seed=2
        ),
        lambda: [flat_dag(12, name="x"), flat_dag(12, name="y")],
    )


# -- fault scenarios -----------------------------------------------------------


def test_preemption_under_markov_capacity_identical():
    def make_pool(engine):
        return POOLS[engine](
            config=quiet_config(
                runtime=RuntimeModel(a_base_s=500.0, a_per_rupture_s=0.0, sigma_log=0.0)
            ),
            capacity=MarkovModulatedCapacity(
                levels=[8, 1], mean_dwell_s=[200.0, 200.0], jitter=0.0
            ),
            seed=8,
        )

    results = assert_same_outputs(make_pool, lambda: [flat_dag(10, retries=3)])
    metrics, _ = results["vector"]
    assert any(r.n_evictions > 0 for r in metrics.records)  # scenario bites


def test_injected_evictions_identical():
    def pre_run(pool):
        for t in (30.0, 60.0, 90.0):
            pool.sim.schedule_at(t, lambda: pool.inject_eviction(2))

    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(), capacity=FixedCapacity(4), seed=4
        ),
        lambda: [flat_dag(16, retries=3)],
        pre_run=pre_run,
    )


def test_holds_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(
                success_prob=0.5, max_job_holds=2, hold_release_s=40.0
            ),
            capacity=FixedCapacity(3),
            seed=3,
        ),
        lambda: [flat_dag(10, retries=0)],
    )


def test_injected_holds_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(hold_release_s=25.0),
            capacity=FixedCapacity(4),
            seed=6,
        ),
        lambda: [flat_dag(12, retries=1)],
        pre_run=lambda pool: pool.sim.schedule_at(
            20.0, lambda: pool.inject_hold(2)
        ),
    )


def test_kill_and_rescue_identical(tmp_path):
    dag_factory = lambda: [flat_dag(24, retries=1, name="k")]
    rescue_files = {}
    for engine in ENGINES:
        pool = POOLS[engine](
            config=quiet_config(),
            capacity=FixedCapacity(2),
            seed=7,
            rescue_dir=tmp_path / engine,
        )
        metrics, logs = pool_outputs(
            pool,
            dag_factory(),
            pre_run=lambda p: p.sim.schedule_at(150.0, lambda: p.kill_dagman("k")),
        )
        rescue_files[engine] = pool.dagman_runs["k"].rescue_file
        if engine == "reference":
            ref = (metrics.records, metrics.dagmans, logs)
        else:
            assert (metrics.records, metrics.dagmans, logs) == ref
    ref_rescue, vec_rescue = rescue_files["reference"], rescue_files["vector"]
    assert ref_rescue is not None and vec_rescue is not None
    assert ref_rescue.read_text() == vec_rescue.read_text()
    # Resume from the (identical) rescue file under both engines.
    resumed = {}
    for engine in ENGINES:
        with pool_engine(engine):
            pool2, run2 = resubmit_with_rescue(
                dag_factory()[0],
                rescue_files[engine],
                name="k",
                config=quiet_config(),
                capacity=FixedCapacity(4),
                seed=9,
            )
        assert isinstance(pool2, POOLS[engine])
        metrics2 = pool2.run()
        assert run2.engine.is_complete
        resumed[engine] = (metrics2.records, pool2.dagman_runs["k"].user_log.render())
    assert resumed["reference"] == resumed["vector"]


# -- heap growth regression (eviction-heavy cancellation) ----------------------


def test_reference_engine_heap_bounded_under_eviction_storm():
    """Regression: an eviction-heavy run must not grow the event heap.

    Every eviction cancels a far-future completion event. The seed core
    kept each tombstone until its original fire time, so sustained
    eviction churn accumulated dead entries without bound; the slab
    core's compaction keeps the heap proportional to the live count.
    """
    config = quiet_config(
        runtime=RuntimeModel(a_base_s=50_000.0, a_per_rupture_s=0.0, sigma_log=0.0),
        preemption=False,
    )
    pool = ReferencePoolSimulator(config=config, capacity=FixedCapacity(4), seed=1)
    pool.submit_dagman(flat_dag(8, retries=0))
    samples = []

    def probe():
        samples.append((len(pool.sim._heap), pool.sim.pending))
        pool.sim.schedule(20.0, probe)

    def evict():
        pool.inject_eviction(2)
        pool.sim.schedule(20.0, evict)

    pool.sim.schedule_at(25.0, probe)
    pool.sim.schedule_at(30.0, evict)
    pool.run(until=3_000.0)
    assert len(samples) >= 100  # the storm ran long enough to matter
    max_heap = max(h for h, _ in samples)
    max_live = max(p for _, p in samples)
    # ~300 cancelled completions at t≈50k would linger in an
    # uncompacted heap; compaction keeps it near the live count.
    assert max_heap <= 2 * max_live + 65


# -- WfFormat replay (the paper's workloads) -----------------------------------


@pytest.mark.parametrize("runtime", ["trace", "model"])
def test_fdw64_replay_identical(runtime):
    results = {}
    for engine in ENGINES:
        with pool_engine(engine):
            results[engine] = replay_instance(FDW64, seed=0, runtime=runtime)
    ref, vec = results["reference"], results["vector"]
    assert ref.metrics.records == vec.metrics.records
    assert ref.metrics.dagmans == vec.metrics.dagmans
    assert ref.metrics.capacity_trace == vec.metrics.capacity_trace
    assert ref.makespan_s == vec.makespan_s
    assert {n: log.render() for n, log in ref.user_logs.items()} == {
        n: log.render() for n, log in vec.user_logs.items()
    }
    assert len(vec.metrics.records) >= 37  # every fdw64 task completed


def test_fdw64_partition_study_identical():
    studies = {}
    for engine in ENGINES:
        with pool_engine(engine):
            studies[engine] = replay_study(FDW64, counts=(1, 2, 4, 8), seed=0)
    for count in (1, 2, 4, 8):
        ref, vec = studies["reference"][count], studies["vector"][count]
        assert ref.metrics.records == vec.metrics.records
        assert ref.metrics.dagmans == vec.metrics.dagmans
        assert ref.makespan_s == vec.makespan_s
        assert {n: log.render() for n, log in ref.user_logs.items()} == {
            n: log.render() for n, log in vec.user_logs.items()
        }


def test_pool_engine_routes_every_pool_builder():
    from repro.core import submit_osg
    from repro.osg import pool as pool_module
    from repro.wf import replay

    modules = (pool_module, submit_osg, replay)
    with pool_engine("reference"):
        assert all(m.OSPoolSimulator is ReferencePoolSimulator for m in modules)
    assert all(m.OSPoolSimulator is OSPoolSimulator for m in modules)
    with pool_engine("vector"):
        assert all(m.OSPoolSimulator is OSPoolSimulator for m in modules)
