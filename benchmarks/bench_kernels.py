"""Micro-benchmarks of the real seismic kernels.

These time the actual numerical phases (not the pool simulation):
distance matrices, stochastic rupture generation, GF computation and
waveform synthesis — the costs that anchor the OSG runtime model via
:meth:`repro.osg.runtimes.RuntimeModel.calibrate_from_kernels`.

The ``gf-cache`` and ``phase-c-pool`` groups track the GF reuse
subsystem: cold vs. warm :class:`~repro.core.gfcache.GFCache` lookups
and the seed pool path (every worker rebuilds the bank per chunk and
runs the ramp-plane matmul oracle from ``tests/oracles/synthesis.py``)
against the shared-memory pool. ``phase-c-batch`` times batched vs.
per-rupture synthesis and puts the kernel's deviation from that oracle
(asserted <= 1e-12 relative) in ``extra_info``. The ``phase-a-kernel``
/ ``phase-a-cache`` / ``phase-a-pool`` groups track the Phase-A acceleration stack the same way: the dense
von Kármán evaluation against the unique-lag kernel, cold vs. warm
:class:`~repro.seismo.klcache.KLCache` lookups, and the seed sequential
rupture sweep (dense kernel, no cache) against the pooled + memoized
fan-out. ``phase-b-batch`` compares the per-pair ``okada85`` reference
loop (the oracle in ``tests/oracles/okada.py``) against the vectorized
Chinnery-corner bank build (bit-identical products) and the opt-in
float32 bank, whose error budget lands in the
bench JSON ``extra_info``. ``product-encode`` times the old zlib product
format against the lossless active-window ``WaveformSet.save`` on one
seeded 121-station set, checks the bitwise decode and bounds the window
bytes at 1.25x zlib (no timing is asserted); both encoders' times and
the byte ratio land in ``extra_info``. ``FDW_BENCH_SCALE`` shrinks the workload for smoke runs; pass
``--benchmark-json BENCH_kernels.json`` to persist the numbers (the CI
smoke job archives that artifact).
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from unittest import mock

import numpy as np
import pytest

from _common import bench_scale
from repro.core.config import FdwConfig
from repro.core.gfcache import GFCache
from repro.core.local import LocalRunner, _fakequakes_for
from repro.core.phases import chunk_bounds
import repro.seismo.ruptures as ruptures_mod
from repro.seismo.distance import DistanceMatrices
from repro.seismo.geometry import build_chile_slab
from repro.seismo.greens import compute_gf_bank
from repro.seismo.klcache import KLCache
from repro.seismo.okada import compute_okada_gf_bank
from repro.seismo.ruptures import Rupture, RuptureGenerator
from repro.seismo.spectra import von_karman_correlation
from repro.seismo.stations import chilean_network
from repro.seismo.waveforms import WaveformSet, WaveformSynthesizer
from tests.oracles.okada import reference_okada_gf_bank
from tests.oracles.synthesis import ReferenceWaveformSynthesizer


@pytest.fixture(scope="module")
def geometry():
    return build_chile_slab(n_strike=20, n_dip=10)


@pytest.fixture(scope="module")
def distances(geometry):
    return DistanceMatrices.from_geometry(geometry)


@pytest.fixture(scope="module")
def network():
    return chilean_network(24)


@pytest.fixture(scope="module")
def gf_bank(geometry, network):
    return compute_gf_bank(geometry, network)


@pytest.fixture(scope="module")
def generator(geometry, distances):
    return RuptureGenerator(geometry, distances=distances)


@pytest.mark.benchmark(group="kernels")
def test_kernel_distance_matrices(benchmark, geometry):
    result = benchmark(DistanceMatrices.from_geometry, geometry)
    assert result.n_subfaults == geometry.n_subfaults


@pytest.mark.benchmark(group="kernels")
def test_kernel_rupture_generation(benchmark, generator):
    rng = np.random.default_rng(0)
    rupture = benchmark(generator.generate, rng, "bench.000000", 8.5)
    assert rupture.n_subfaults > 0


@pytest.mark.benchmark(group="kernels")
def test_kernel_greens_functions(benchmark, geometry, network):
    bank = benchmark(compute_gf_bank, geometry, network)
    assert bank.n_stations == len(network)


@pytest.mark.benchmark(group="kernels")
def test_kernel_waveform_synthesis(benchmark, gf_bank, generator):
    rupture = generator.generate(np.random.default_rng(1), "bench.000001", 8.5)
    synth = WaveformSynthesizer(gf_bank)
    ws = benchmark(synth.synthesize, rupture)
    assert ws.n_stations == gf_bank.n_stations


# -- GF cache: cold vs warm ---------------------------------------------------


@pytest.fixture(scope="module")
def ruptures(generator):
    n = max(4, int(round(16 * bench_scale())))
    return [
        generator.generate(np.random.default_rng(100 + i), f"bench.{i:06d}", 8.5)
        for i in range(n)
    ]


@pytest.mark.benchmark(group="gf-cache")
def test_gf_cache_cold(benchmark, geometry, network, tmp_path):
    """Cold lookup: every round computes the bank and stores it."""

    def cold():
        cache = GFCache(cache_dir=tmp_path / "cold")
        bank = cache.get_or_compute(geometry, network)
        cache.clear(disk=True)
        return bank

    bank = benchmark(cold)
    assert bank.n_stations == len(network)


@pytest.mark.benchmark(group="gf-cache")
def test_gf_cache_warm_disk(benchmark, geometry, network, tmp_path):
    """Warm disk hit: memory level dropped, bank reloaded from .npz."""
    cache = GFCache(cache_dir=tmp_path / "warm")
    cache.get_or_compute(geometry, network)

    def warm():
        cache.clear()  # keep the disk store, drop memory
        return cache.get_or_compute(geometry, network)

    bank = benchmark(warm)
    assert cache.stats.disk_hits >= 1
    assert bank.n_stations == len(network)


@pytest.mark.benchmark(group="gf-cache")
def test_gf_cache_warm_memory(benchmark, geometry, network):
    """Warm memory hit: the LRU returns the resident bank."""
    cache = GFCache()
    cache.get_or_compute(geometry, network)
    bank = benchmark(cache.get_or_compute, geometry, network)
    assert bank.n_stations == len(network)


# -- Phase C: batched vs per-rupture -----------------------------------------


@pytest.mark.benchmark(group="phase-c-batch")
def test_phase_c_per_rupture(benchmark, gf_bank, ruptures):
    synth = WaveformSynthesizer(gf_bank)
    sets = benchmark(lambda: [synth.synthesize(r) for r in ruptures])
    assert len(sets) == len(ruptures)


def _max_rel_dev(sets, reference) -> float:
    """Largest deviation from the reference, relative to each set's max
    |displacement| and to its peak PGD."""
    worst = 0.0
    for ws, ref in zip(sets, reference):
        data_dev = np.abs(ws.data - ref.data).max() / np.abs(ref.data).max()
        pgd_dev = np.abs(ws.pgd_m() - ref.pgd_m()).max() / ref.pgd_m().max()
        worst = max(worst, float(data_dev), float(pgd_dev))
    return worst


@pytest.mark.benchmark(group="phase-c-batch")
def test_phase_c_batched(benchmark, gf_bank, ruptures):
    """Step-plus-band kernel over the whole chunk; its deviation from the
    matmul oracle goes into ``extra_info``."""
    synth = WaveformSynthesizer(gf_bank)
    sets = benchmark(synth.synthesize_batch, ruptures)
    assert len(sets) == len(ruptures)
    reference = ReferenceWaveformSynthesizer(gf_bank).synthesize_batch(ruptures)
    dev = _max_rel_dev(sets, reference)
    benchmark.extra_info["max_rel_dev"] = dev
    assert dev <= 1e-12


def _max_rel_pgd_dev(sets, reference) -> float:
    """Largest relative deviation in per-rupture peak PGD."""
    worst = 0.0
    for ws, ref in zip(sets, reference):
        pgd = float(ref.pgd_m().max())
        worst = max(worst, abs(float(ws.pgd_m().max()) - pgd) / pgd)
    return worst


@pytest.mark.benchmark(group="phase-c-batch")
def test_phase_c_batched_float32(benchmark, gf_bank, ruptures):
    """Opt-in float32 bank: half the bank bytes; waveform error budget
    against the float64 kernel goes into ``extra_info``."""
    synth32 = WaveformSynthesizer(gf_bank.astype("float32"))
    sets = benchmark(synth32.synthesize_batch, ruptures)
    reference = WaveformSynthesizer(gf_bank).synthesize_batch(ruptures)
    dev = _max_rel_pgd_dev(sets, reference)
    benchmark.extra_info["max_rel_pgd_dev"] = dev
    benchmark.extra_info["bank_nbytes_ratio"] = (
        synth32.gf_bank.nbytes / gf_bank.nbytes
    )
    assert all(ws.data.dtype == np.float32 for ws in sets)
    assert dev < 1e-5


# -- Phase B kernel: reference Okada loop vs vectorized bank ------------------


@pytest.fixture(scope="module")
def paper_geometry():
    """The paper-scale 30x15 Chilean slab mesh (450 subfaults)."""
    return build_chile_slab(n_strike=30, n_dip=15)


@pytest.fixture(scope="module")
def paper_network():
    """Full 121-station Chilean input at scale 1, shrunk for smoke runs."""
    return chilean_network(max(12, int(round(121 * bench_scale()))))


@pytest.mark.benchmark(group="phase-b-batch")
def test_phase_b_reference(benchmark, paper_geometry, paper_network):
    """Seed evaluation: one ``okada85`` call per (station, subfault) pair."""
    bank = benchmark(reference_okada_gf_bank, paper_geometry, paper_network)
    assert bank.n_stations == len(paper_network)


@pytest.mark.benchmark(group="phase-b-batch")
def test_phase_b_vector(benchmark, paper_geometry, paper_network):
    """Batched evaluation: one Chinnery corner tensor for the whole bank."""
    bank = benchmark(compute_okada_gf_bank, paper_geometry, paper_network)
    reference = reference_okada_gf_bank(paper_geometry, paper_network)
    assert np.array_equal(bank.statics, reference.statics)  # bit-identical
    assert np.array_equal(bank.travel_time_s, reference.travel_time_s)


@pytest.mark.benchmark(group="phase-b-batch")
def test_phase_b_vector_float32(benchmark, paper_geometry, paper_network):
    """Opt-in float32 bank build; bank-level error budget in ``extra_info``."""
    bank32 = benchmark(
        compute_okada_gf_bank, paper_geometry, paper_network, dtype="float32"
    )
    bank64 = compute_okada_gf_bank(paper_geometry, paper_network)
    scale = float(np.abs(bank64.statics).max())
    dev = float(np.abs(bank32.statics.astype(np.float64) - bank64.statics).max())
    benchmark.extra_info["nbytes_ratio"] = bank32.nbytes / bank64.nbytes
    benchmark.extra_info["max_rel_statics_dev"] = dev / scale
    assert bank32.nbytes * 2 == bank64.nbytes
    assert dev / scale < 1e-6


def test_phase_b_speedup_report(paper_geometry, paper_network, capsys):
    """One-shot reference-vs-vector comparison of the Okada bank build
    (not a pytest-benchmark timing; runs even with --benchmark-disable)."""
    t0 = time.perf_counter()
    reference = reference_okada_gf_bank(paper_geometry, paper_network)
    ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    vector = compute_okada_gf_bank(paper_geometry, paper_network)
    vec_s = time.perf_counter() - t0
    assert np.array_equal(vector.statics, reference.statics)
    assert np.array_equal(vector.travel_time_s, reference.travel_time_s)

    with capsys.disabled():
        print(
            f"\n### Phase-B Okada bank ({paper_geometry.n_subfaults} subfaults x "
            f"{len(paper_network)} stations)\n"
            f"reference loop : {ref_s:8.3f} s\n"
            f"vector engine  : {vec_s:8.3f} s ({ref_s / vec_s:5.2f}x)"
        )


# -- Phase C pool: seed path vs shared-memory bank ----------------------------

POOL_WORKERS = 4


@pytest.fixture(scope="module")
def pool_config():
    s = bench_scale()
    return FdwConfig(
        name="bench_pool",
        n_waveforms=max(8, int(round(16 * s))),
        n_stations=max(4, int(round(121 * s))),
        mesh=(max(8, int(round(30 * s))), max(5, int(round(15 * s)))),
        chunk_a=8,
        chunk_c=2,
        seed=7,
    )


def _seed_c_chunk(args: tuple[FdwConfig, int, int]) -> list[float]:
    """Faithful reproduction of the seed repo's pool worker: rebuild
    geometry, distances, the rupture chunk and the full GF bank, then
    synthesize one rupture at a time with the ramp-plane matmul kernel
    (the oracle in ``tests/oracles/synthesis.py``)."""
    config, start, count = args
    fq = _fakequakes_for(config)
    fq.phase_a_distances()
    ruptures = fq.phase_a_ruptures(start, count)
    bank = fq.phase_b_greens_functions()
    synth = ReferenceWaveformSynthesizer(bank, dt_s=fq.params.dt_s)
    return [float(synth.synthesize(r).pgd_m().max()) for r in ruptures]


def _seed_c_phase(config: FdwConfig) -> list[float]:
    """The seed pool path for the whole C phase (pool created per run,
    as the seed `LocalRunner.run` did)."""
    chunks = [
        (config, start, count)
        for start, count in chunk_bounds(config.n_waveforms, config.chunk_c)
    ]
    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as pool:
        rows = list(pool.map(_seed_c_chunk, chunks))
    return [value for row in rows for value in row]


@pytest.mark.benchmark(group="phase-c-pool")
def test_phase_c_pool_seed_path(benchmark, pool_config):
    maxima = benchmark(_seed_c_phase, pool_config)
    assert len(maxima) == pool_config.n_waveforms


@pytest.mark.benchmark(group="phase-c-pool")
def test_phase_c_pool_shared_bank(benchmark, pool_config, tmp_path):
    """Persistent pool + shared-memory bank + warm GF cache (full run:
    the dist/A/B phases it still performs are cache hits / parent-side
    work shared with the seed arm)."""
    with LocalRunner(
        n_workers=POOL_WORKERS, gf_cache=GFCache(cache_dir=tmp_path / "gf")
    ) as runner:
        runner.run(pool_config)  # warm the cache, spin the pool up
        result = benchmark(runner.run, pool_config)
    assert result.n_waveform_sets == pool_config.n_waveforms
    # Same products as the seed pool path, within the float64 budget of
    # the step-plus-band kernel against the matmul oracle.
    seed_maxima = _seed_c_phase(pool_config)
    new_maxima = [
        result.pgd_by_rupture[f"chile_slab.{i:06d}"]
        for i in range(pool_config.n_waveforms)
    ]
    assert new_maxima == pytest.approx(seed_maxima, rel=1e-12, abs=0.0)


# -- Phase A kernel: dense vs unique-lag von Kármán ---------------------------


@pytest.fixture(scope="module")
def paper_distances():
    """Distance matrices of the paper-scale 30x15 mesh (450 subfaults)."""
    return DistanceMatrices.from_geometry(build_chile_slab(n_strike=30, n_dip=15))


@pytest.mark.benchmark(group="phase-a-kernel")
def test_phase_a_kernel_dense(benchmark, paper_distances):
    """Seed evaluation: one ``kv`` call per matrix element (p^2)."""
    corr = benchmark(
        von_karman_correlation,
        paper_distances.along_strike,
        paper_distances.down_dip,
        60.0,
        30.0,
        0.75,
        False,
    )
    assert corr.shape == (450, 450)


@pytest.mark.benchmark(group="phase-a-kernel")
def test_phase_a_kernel_unique_lag(benchmark, paper_distances):
    """Unique-lag evaluation: one ``kv`` call per distinct separation."""
    corr = benchmark(
        von_karman_correlation,
        paper_distances.along_strike,
        paper_distances.down_dip,
        60.0,
        30.0,
        0.75,
        True,
    )
    dense = von_karman_correlation(
        paper_distances.along_strike,
        paper_distances.down_dip,
        60.0,
        30.0,
        unique_lags=False,
    )
    assert np.array_equal(corr, dense)  # bit-identical products


# -- Phase A cache: cold vs warm K-L basis lookups ----------------------------


@pytest.fixture(scope="module")
def kl_patch(paper_distances):
    """A 20x10 rupture-patch window on the 30x15 mesh."""
    strike_rows = np.arange(4, 24)
    dip_cols = np.arange(2, 12)
    return (strike_rows[:, None] * 15 + dip_cols[None, :]).ravel()


@pytest.mark.benchmark(group="phase-a-cache")
def test_kl_cache_cold(benchmark, paper_distances, kl_patch):
    """Cold lookup: every round builds the correlation and eigensolves."""

    def cold():
        cache = KLCache()
        return cache.get_or_compute(paper_distances, kl_patch, 60.0, 30.0, n_modes=64)

    basis = benchmark(cold)
    assert basis.n_points == kl_patch.size


@pytest.mark.benchmark(group="phase-a-cache")
def test_kl_cache_warm_disk(benchmark, paper_distances, kl_patch, tmp_path):
    """Warm disk hit: memory level dropped, basis reloaded from .npz."""
    cache = KLCache(cache_dir=tmp_path / "kl")
    cache.get_or_compute(paper_distances, kl_patch, 60.0, 30.0, n_modes=64)

    def warm():
        cache.clear()  # keep the disk store, drop memory
        return cache.get_or_compute(paper_distances, kl_patch, 60.0, 30.0, n_modes=64)

    basis = benchmark(warm)
    assert cache.stats.disk_hits >= 1
    assert basis.n_modes == 64


@pytest.mark.benchmark(group="phase-a-cache")
def test_kl_cache_warm_memory(benchmark, paper_distances, kl_patch):
    """Warm memory hit: the LRU returns the resident basis."""
    cache = KLCache()
    cache.get_or_compute(paper_distances, kl_patch, 60.0, 30.0, n_modes=64)
    basis = benchmark(
        cache.get_or_compute, paper_distances, kl_patch, 60.0, 30.0, 0.75, 64
    )
    assert basis.n_modes == 64


# -- Phase A pool: seed sequential sweep vs pooled + memoized -----------------


@pytest.fixture(scope="module")
def a_pool_config():
    s = bench_scale()
    return FdwConfig(
        name="bench_a_pool",
        n_waveforms=max(16, int(round(64 * s))),
        n_stations=4,
        mesh=(max(8, int(round(30 * s))), max(5, int(round(15 * s)))),
        chunk_a=4,
        chunk_c=8,
        seed=7,
    )


def _seed_a_phase(config: FdwConfig) -> list[Rupture]:
    """Faithful reproduction of the seed Phase-A path: dense von Kármán
    kernel (one ``kv`` call per matrix element), no K-L cache, strictly
    sequential chunk loop."""
    fq = _fakequakes_for(config)
    fq.phase_a_distances()
    dense = partial(von_karman_correlation, unique_lags=False)
    with mock.patch.object(ruptures_mod, "von_karman_correlation", dense):
        ruptures: list[Rupture] = []
        for start, count in chunk_bounds(config.n_waveforms, config.chunk_a):
            ruptures.extend(fq.phase_a_ruptures(start, count))
    return ruptures


def _assert_same_catalog(actual: list[Rupture], expected: list[Rupture]) -> None:
    """Rupture-for-rupture bit-identity: ids, slip, kinematics."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.rupture_id == b.rupture_id
        assert np.array_equal(a.subfault_indices, b.subfault_indices)
        assert np.array_equal(a.slip_m, b.slip_m)
        assert np.array_equal(a.rise_time_s, b.rise_time_s)
        assert np.array_equal(a.onset_time_s, b.onset_time_s)
        assert a.hypocenter_index == b.hypocenter_index


@pytest.mark.benchmark(group="phase-a-pool")
def test_phase_a_pool_seed_path(benchmark, a_pool_config):
    ruptures = benchmark(_seed_a_phase, a_pool_config)
    assert len(ruptures) == a_pool_config.n_waveforms


@pytest.mark.benchmark(group="phase-a-pool")
def test_phase_a_pool_memoized(benchmark, a_pool_config, tmp_path):
    """Persistent pool + per-worker sessions + shared disk K-L store
    (warm: the sweep's bases were eigensolved on the first pass)."""
    from repro.core.local import _run_a_chunk

    params = _fakequakes_for(a_pool_config).params
    kl_dir = str(tmp_path / "kl")
    tasks = [
        (params, start, count, kl_dir)
        for start, count in chunk_bounds(a_pool_config.n_waveforms, a_pool_config.chunk_a)
    ]

    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as pool:

        def pooled():
            return [r for chunk in pool.map(_run_a_chunk, tasks) for r in chunk]

        pooled()  # warm the worker sessions and the disk K-L store
        ruptures = benchmark(pooled)
    # Rupture-for-rupture identical to the seed sequential sweep.
    _assert_same_catalog(ruptures, _seed_a_phase(a_pool_config))


def test_phase_a_speedup_report(a_pool_config, tmp_path, capsys):
    """One-shot before/after comparison of the Phase-A sweep (not a
    pytest-benchmark timing; runs even with --benchmark-disable)."""
    t0 = time.perf_counter()
    seed_ruptures = _seed_a_phase(a_pool_config)
    seed_s = time.perf_counter() - t0

    with LocalRunner(
        n_workers=POOL_WORKERS, kl_cache=KLCache(cache_dir=tmp_path / "kl")
    ) as runner:
        cold = runner.run(a_pool_config)  # fills the shared disk K-L store
        warm = runner.run(a_pool_config)
    cold_a_s = cold.phase_seconds["A"]
    warm_a_s = warm.phase_seconds["A"]
    assert len(warm.pgd_by_rupture) == len(seed_ruptures)

    with capsys.disabled():
        print(
            f"\n### Phase-A sweep ({a_pool_config.n_waveforms} ruptures, "
            f"{a_pool_config.mesh[0]}x{a_pool_config.mesh[1]} mesh, "
            f"{POOL_WORKERS} workers)\n"
            f"seed A phase (dense kernel, sequential)  : {seed_s:8.3f} s\n"
            f"pooled A phase (cold K-L store)          : {cold_a_s:8.3f} s "
            f"({seed_s / cold_a_s:5.2f}x)\n"
            f"pooled A phase (warm K-L store)          : {warm_a_s:8.3f} s "
            f"({seed_s / warm_a_s:5.2f}x)"
        )


# -- Recovery: checkpoint overhead, resume, rescue, log parsing ---------------


@pytest.fixture(scope="module")
def recovery_config():
    s = bench_scale()
    return FdwConfig(
        name="bench_recovery",
        n_waveforms=max(8, int(round(16 * s))),
        n_stations=4,
        mesh=(8, 5),
        chunk_a=2,
        chunk_c=2,
        seed=7,
    )


@pytest.mark.benchmark(group="bench-recovery")
def test_recovery_plain_run(benchmark, recovery_config, tmp_path):
    """Baseline: archive directly, no checkpoint manifest."""
    dirs = (tmp_path / f"plain{i}" for i in itertools.count())
    with LocalRunner() as runner:
        result = benchmark(lambda: runner.run(recovery_config, next(dirs)))
    assert result.n_waveform_sets == recovery_config.n_waveforms


@pytest.mark.benchmark(group="bench-recovery")
def test_recovery_checkpointed_run(benchmark, recovery_config, tmp_path):
    """Same run with chunk-granular checkpointing + archive reassembly —
    the overhead budget of crash consistency."""
    dirs = (tmp_path / f"ck{i}" for i in itertools.count())
    with LocalRunner() as runner:
        result = benchmark(
            lambda: runner.run(recovery_config, next(dirs), checkpoint=True)
        )
    assert result.n_waveform_sets == recovery_config.n_waveforms
    assert result.chunks_skipped == {"A": 0, "C": 0}


@pytest.mark.benchmark(group="bench-recovery")
def test_recovery_resume_after_crash(benchmark, recovery_config, tmp_path):
    """Resume cost after a mid-Phase-A crash: skipped chunks reload from
    the checkpoint instead of recomputing."""
    from repro.core.checkpoint import RunCheckpoint
    from repro.faults import ChunkCrash, FaultInjected, FaultPlan

    runner = LocalRunner()
    n_a = len(chunk_bounds(recovery_config.n_waveforms, recovery_config.chunk_a))
    crashed = iter(range(10**6))

    def crash_once():
        d = tmp_path / f"crash{next(crashed)}"
        try:
            runner.run(
                recovery_config,
                d,
                checkpoint=True,
                faults=FaultPlan(crashes=(ChunkCrash("A", max(1, n_a - 1)),)),
            )
        except FaultInjected:
            pass
        return (d,), {}

    def resume(d):
        return runner.run(recovery_config, d, resume=True)

    result = benchmark.pedantic(resume, setup=crash_once, rounds=3, iterations=1)
    assert result.chunks_skipped["A"] == max(1, n_a - 1)
    assert not (result.archive_root / RunCheckpoint.DIRNAME).exists()


@pytest.mark.benchmark(group="bench-recovery")
def test_recovery_rescue_roundtrip(benchmark, tmp_path):
    """Pool-level rescue at scale: snapshot a half-done engine, read the
    file back, fast-forward a fresh engine."""
    from repro.condor.dagfile import DagDescription
    from repro.condor.dagman import DagmanEngine
    from repro.condor.jobs import JobPayload, JobSpec
    from repro.condor.rescue import apply_rescue, read_rescue_file, write_rescue_file

    n_nodes = max(500, int(round(16000 * bench_scale())))
    dag = DagDescription("bench_rescue")
    for i in range(n_nodes):
        dag.add_job(
            f"n{i}",
            JobSpec(name=f"n{i}", payload=JobPayload(phase="A", n_items=1, n_stations=2)),
        )
    done_engine = DagmanEngine(dag)
    for i in range(0, n_nodes, 2):
        done_engine.mark_done(f"n{i}")

    def roundtrip():
        path = write_rescue_file(done_engine, tmp_path / "bench.dag.rescue001")
        done = read_rescue_file(path)
        return apply_rescue(DagmanEngine(dag), done)

    applied = benchmark(roundtrip)
    assert applied == n_nodes // 2 + n_nodes % 2


@pytest.mark.benchmark(group="bench-recovery")
def test_recovery_log_parse_16k(benchmark):
    """Parsing a 16k-job user log (the paper's DAG size) stays linear —
    the quadratic list-scan this replaced made monitoring the bottleneck."""
    from repro.condor.events import parse_user_log

    n_jobs = max(2000, int(round(16000 * bench_scale())))
    lines = []
    for i in range(n_jobs):
        cluster = f"{i + 1:04d}.000.000"
        lines += [
            f"000 ({cluster}) 2023-01-01+0 00:00:01 Job submitted",
            "...",
            f"001 ({cluster}) 2023-01-01+0 00:00:02 Job executing",
            "...",
            f"005 ({cluster}) 2023-01-01+0 00:10:00 Job terminated.",
            "\t(1) Normal termination (return value 0)",
            "...",
        ]
    text = "\n".join(lines) + "\n"

    events = benchmark(parse_user_log, text)
    assert len(events) == 3 * n_jobs
    assert all(e.return_value == 0 for e in events if e.event_type.value == 5)


def test_phase_c_pool_speedup_report(pool_config, tmp_path, capsys):
    """One-shot before/after comparison printed as a table (not a
    pytest-benchmark timing; runs even with --benchmark-disable)."""
    t0 = time.perf_counter()
    seed_maxima = _seed_c_phase(pool_config)
    seed_s = time.perf_counter() - t0

    with LocalRunner(
        n_workers=POOL_WORKERS, gf_cache=GFCache(cache_dir=tmp_path / "gf")
    ) as runner:
        runner.run(pool_config)  # warm
        t0 = time.perf_counter()
        result = runner.run(pool_config)
        full_s = time.perf_counter() - t0
    c_s = result.phase_seconds["C"]

    new_maxima = [
        result.pgd_by_rupture[f"chile_slab.{i:06d}"]
        for i in range(pool_config.n_waveforms)
    ]
    assert new_maxima == pytest.approx(seed_maxima, rel=1e-12, abs=0.0)
    with capsys.disabled():
        print(
            f"\n### Phase-C pool ({pool_config.n_waveforms} waveforms, "
            f"{pool_config.n_stations} stations, {POOL_WORKERS} workers)\n"
            f"seed C phase (rebuild per chunk, matmul) : {seed_s:8.3f} s\n"
            f"shared-bank C phase (warm cache, batch)  : {c_s:8.3f} s\n"
            f"C-phase speedup                          : {seed_s / c_s:8.2f}x\n"
            f"(full warm run incl. dist/A/B            : {full_s:8.3f} s)"
        )


# --------------------------------------------------------------------------
# wf-replay: WfFormat interchange + universal replay
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wf_example_instance():
    from pathlib import Path

    from repro.wf import load_instance

    path = Path(__file__).resolve().parents[1] / "examples" / "fdw64_wfformat.json"
    return load_instance(path)


@pytest.mark.benchmark(group="wf-replay")
def test_wf_json_round_trip(benchmark, wf_example_instance):
    """Serialize + reparse the bundled FDW instance — the interchange
    hot path used by ``wf export`` / ``wf import --reexport``."""
    from repro.wf import dumps_instance, loads_instance

    text = benchmark(lambda: dumps_instance(loads_instance(dumps_instance(wf_example_instance))))
    assert text == dumps_instance(wf_example_instance)


@pytest.mark.benchmark(group="wf-replay")
def test_wf_import_rebuilds_dag(benchmark, wf_example_instance):
    from repro.wf import import_instance

    imported = benchmark(import_instance, wf_example_instance)
    assert imported.n_tasks == wf_example_instance.n_tasks


@pytest.mark.benchmark(group="wf-replay")
def test_wf_generate_scaled_instance(benchmark, wf_example_instance):
    """WfChef-style scale-up to a few hundred tasks from the example."""
    from repro.wf import generate_instance

    n_tasks = max(64, int(round(512 * bench_scale())))
    gen = benchmark(generate_instance, wf_example_instance, n_tasks, seed=0)
    assert gen.n_tasks == n_tasks


@pytest.mark.benchmark(group="wf-replay")
def test_wf_trace_replay(benchmark, wf_example_instance):
    """Replay the bundled instance through the pool simulator with the
    recorded runtimes (trace mode)."""
    from repro.wf import replay_instance

    result = benchmark(replay_instance, wf_example_instance, seed=1)
    assert result.makespan_s > 0
    assert len(result.metrics.records) == wf_example_instance.n_tasks


@pytest.mark.benchmark(group="wf-replay")
def test_wf_replay_multi_dagman(benchmark, wf_example_instance):
    """The 2-DAGMan partitioned replay from the paper's scaling study."""
    from repro.wf import replay_instance

    result = benchmark(replay_instance, wf_example_instance, n_dagmans=2, seed=1)
    assert result.n_dagmans == 2


# -- Product encoding: zlib vs lossless active window -------------------------


@pytest.fixture(scope="module")
def product_set(paper_geometry, paper_distances):
    """One seeded clean waveform set on the full 121-station input."""
    bank = compute_gf_bank(paper_geometry, chilean_network(121))
    rupture = RuptureGenerator(paper_geometry, distances=paper_distances).generate(
        np.random.default_rng(0), "bench.encode", 8.5
    )
    return WaveformSynthesizer(bank).synthesize(rupture)


def _save_zlib(ws, path):
    """The product format before the active window: zlib over the record."""
    np.savez_compressed(
        path,
        rupture_id=np.array(ws.rupture_id),
        data=ws.data,
        dt_s=np.array(ws.dt_s),
        station_names=np.array(ws.station_names),
    )


def _best_ms(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


@pytest.mark.benchmark(group="product-encode")
def test_product_encode_zlib(benchmark, product_set, tmp_path):
    path = tmp_path / "zlib.npz"
    benchmark(_save_zlib, product_set, path)
    benchmark.extra_info["bytes"] = path.stat().st_size


@pytest.mark.benchmark(group="product-encode")
def test_product_encode_window(benchmark, product_set, tmp_path):
    """``WaveformSet.save``; ``extra_info`` carries both encoders' best
    time and the byte ratio. Only the bytes are asserted, no timing."""
    path = benchmark(product_set.save, tmp_path / "window.npz")
    zlib_path = tmp_path / "zlib.npz"
    zlib_ms = _best_ms(lambda: _save_zlib(product_set, zlib_path))
    window_ms = _best_ms(lambda: product_set.save(path))
    ratio = path.stat().st_size / zlib_path.stat().st_size
    benchmark.extra_info.update(
        zlib_ms=zlib_ms,
        window_ms=window_ms,
        bytes=path.stat().st_size,
        zlib_bytes=zlib_path.stat().st_size,
        bytes_ratio=ratio,
    )
    back = WaveformSet.load(path)
    assert back.data.dtype == product_set.data.dtype
    assert back.data.tobytes() == product_set.data.tobytes()
    assert ratio <= 1.25
