"""Tests for repro.core.local."""

import pytest

from repro.core.config import FdwConfig
from repro.core.local import LocalRunner, estimate_sequential_runtime_s
from repro.errors import ConfigError
from repro.osg.runtimes import RuntimeModel
from repro.seismo.mudpy_io import ProductArchive


@pytest.fixture(scope="module")
def tiny_config():
    return FdwConfig(
        n_waveforms=4, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="local"
    )


@pytest.fixture(scope="module")
def run_result(tiny_config):
    return LocalRunner().run(tiny_config)


def test_produces_all_waveform_sets(run_result, tiny_config):
    assert run_result.n_waveform_sets == tiny_config.n_waveforms
    assert len(run_result.pgd_by_rupture) == tiny_config.n_waveforms


def test_phase_timings_recorded(run_result):
    assert set(run_result.phase_seconds) == {"dist", "A", "B", "C"}
    assert all(t >= 0 for t in run_result.phase_seconds.values())
    assert run_result.total_seconds > 0


def test_pgds_positive(run_result):
    assert all(v > 0 for v in run_result.pgd_by_rupture.values())


def test_archiving(tmp_path, tiny_config):
    result = LocalRunner().run(tiny_config, archive_dir=tmp_path / "arch")
    archive = ProductArchive(tmp_path / "arch")
    assert sorted(archive.kinds()) == ["ruptures", "waveforms"]
    assert len(archive.find(kind="waveforms")) == tiny_config.n_waveforms
    assert len(archive.find(kind="ruptures")) == tiny_config.n_waveforms
    assert result.archive_root == archive.root
    # No temp files left behind.
    assert not list(archive.root.glob("_tmp_*"))
    # The run closed its archive: the manifest is complete, the journal
    # is gone, and every product matches its recorded digest.
    assert not (archive.root / ProductArchive.JOURNAL).exists()
    archive.verify()


def test_deterministic_products(tiny_config):
    a = LocalRunner().run(tiny_config)
    b = LocalRunner().run(tiny_config)
    assert a.pgd_by_rupture == b.pgd_by_rupture


def test_worker_validation():
    with pytest.raises(ConfigError):
        LocalRunner(n_workers=0)


def test_estimate_uses_aws_per_item_costs():
    # 1,024 full-input waveforms on the 4-CPU AWS control: the measured
    # per-chunk costs (287 s / 16 ruptures, 144 s / 2 waveforms) plus
    # one GF build and one distance-matrix build, MPI-spread over 4
    # cores — about 6.9 hours.
    config = FdwConfig(n_waveforms=1024, n_stations=121)
    model = RuntimeModel()
    total = estimate_sequential_runtime_s(config, model)
    expected = (
        1024 * (287.0 / 16.0 + 144.0 / 2.0)
        + model.b_base_s
        + 121 * model.b_per_station_s
        + model.dist_base_s
    ) / 4.0
    assert total == pytest.approx(expected)
    assert 5.0 * 3600 < total < 9.0 * 3600


def test_estimate_scales_with_cpus():
    config = FdwConfig(n_waveforms=256, n_stations=121)
    one = estimate_sequential_runtime_s(config, n_cpus=1)
    four = estimate_sequential_runtime_s(config, n_cpus=4)
    assert one == pytest.approx(4.0 * four)
    with pytest.raises(ConfigError):
        estimate_sequential_runtime_s(config, n_cpus=0)


def test_estimate_counts_distance_build_once():
    recycled = FdwConfig(n_waveforms=64, recycle_distances=True)
    explicit = FdwConfig(n_waveforms=64, recycle_distances=False)
    model = RuntimeModel()
    assert estimate_sequential_runtime_s(recycled, model) == pytest.approx(
        estimate_sequential_runtime_s(explicit, model)
    )


def test_estimate_small_input_faster():
    model = RuntimeModel()
    full = estimate_sequential_runtime_s(FdwConfig(n_waveforms=2048, n_stations=121), model)
    small = estimate_sequential_runtime_s(FdwConfig(n_waveforms=2048, n_stations=2), model)
    # The waveform-synthesis term scales with the station list; the
    # rupture term does not, so the gap is large but bounded.
    assert full > 3 * small


# -- shared-memory pool path --------------------------------------------------


def test_pool_path_matches_sequential(tiny_config, run_result):
    with LocalRunner(n_workers=2) as runner:
        pooled = runner.run(tiny_config)
    assert pooled.n_waveform_sets == tiny_config.n_waveforms
    # Bit-identical products: same rupture ids, same PGD floats.
    assert pooled.pgd_by_rupture == run_result.pgd_by_rupture


def test_pool_path_archives(tmp_path, tiny_config):
    """Regression: the seed pool path silently dropped archive_dir. Both
    placements (parent and pool) spool through ``_spool`` and leave
    nothing behind."""
    for n_workers in (1, 2):
        with LocalRunner(n_workers=n_workers) as runner:
            result = runner.run(tiny_config, archive_dir=tmp_path / f"arch{n_workers}")
        archive = ProductArchive(tmp_path / f"arch{n_workers}")
        assert len(archive.find(kind="waveforms")) == tiny_config.n_waveforms
        assert len(archive.find(kind="ruptures")) == tiny_config.n_waveforms
        assert result.archive_root == archive.root
        # No spool or temp files left behind.
        assert not list(archive.root.glob("_tmp_*"))
        assert not (archive.root / "_spool").exists()


def test_pool_archive_matches_sequential_archive(tmp_path, tiny_config):
    import numpy as np

    LocalRunner().run(tiny_config, archive_dir=tmp_path / "seq")
    with LocalRunner(n_workers=2) as runner:
        runner.run(tiny_config, archive_dir=tmp_path / "pool")
    seq_files = sorted((tmp_path / "seq").rglob("*.npz"))
    assert seq_files
    for seq_path in seq_files:
        pool_path = next((tmp_path / "pool").rglob(seq_path.name))
        with np.load(seq_path) as a, np.load(pool_path) as b:
            assert set(a.files) == set(b.files)
            for field in a.files:
                assert np.array_equal(a[field], b[field])


def test_pool_reuses_published_bank(tiny_config):
    with LocalRunner(n_workers=2) as runner:
        first = runner.run(tiny_config)
        assert len(runner._published) == 1
        second = runner.run(tiny_config)
        assert len(runner._published) == 1  # same key, no republish
        assert first.pgd_by_rupture == second.pgd_by_rupture
        # Warm cache: the second run's Phase B is a pure lookup.
        assert runner.gf_cache.stats.hits >= 1


def test_close_is_idempotent(tiny_config):
    runner = LocalRunner(n_workers=2)
    runner.run(tiny_config)
    runner.close()
    runner.close()


def test_runners_share_gf_cache(tiny_config):
    from repro.core.gfcache import GFCache

    cache = GFCache()
    LocalRunner(gf_cache=cache).run(tiny_config)
    assert cache.stats.misses == 1
    LocalRunner(gf_cache=cache).run(tiny_config)
    assert cache.stats.misses == 1  # second runner hits the shared cache
    assert cache.stats.memory_hits >= 1


# -- pooled Phase A -----------------------------------------------------------


@pytest.fixture(scope="module")
def pooled_a_config():
    """Enough A chunks (4) that n_workers=2 really fans out."""
    return FdwConfig(
        n_waveforms=8, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=4, name="pool_a"
    )


def test_pooled_phase_a_matches_sequential(pooled_a_config):
    """Pooled Phase A must reproduce the sequential catalog rupture-for-
    rupture — same ids, slip and kinematics, hence identical archives."""
    import numpy as np

    from repro.core.local import _fakequakes_for, _run_a_chunk
    from repro.core.phases import chunk_bounds

    fq = _fakequakes_for(pooled_a_config)
    fq.phase_a_distances()
    reference = fq.phase_a_ruptures(0, pooled_a_config.n_waveforms)
    pooled = []
    for start, count in chunk_bounds(
        pooled_a_config.n_waveforms, pooled_a_config.chunk_a
    ):
        pooled.extend(_run_a_chunk((fq.params, start, count, None)))
    assert len(pooled) == len(reference)
    for a, b in zip(pooled, reference):
        assert a.rupture_id == b.rupture_id
        assert np.array_equal(a.subfault_indices, b.subfault_indices)
        assert np.array_equal(a.slip_m, b.slip_m)
        assert np.array_equal(a.rise_time_s, b.rise_time_s)
        assert np.array_equal(a.onset_time_s, b.onset_time_s)
        assert a.hypocenter_index == b.hypocenter_index


def test_pooled_run_matches_sequential_run(pooled_a_config):
    """End-to-end: a pooled run (A and C fan out over the pool) produces
    the sequential run's products."""
    sequential = LocalRunner().run(pooled_a_config)
    with LocalRunner(n_workers=2) as runner:
        pooled = runner.run(pooled_a_config)
    assert pooled.pgd_by_rupture == sequential.pgd_by_rupture


def test_pooled_a_rupt_archives_match(tmp_path, pooled_a_config):
    """The .rupt products (slip + kinematics serialized per subfault)
    are byte-identical between sequential and pooled Phase A."""
    LocalRunner().run(pooled_a_config, archive_dir=tmp_path / "seq")
    with LocalRunner(n_workers=2) as runner:
        runner.run(pooled_a_config, archive_dir=tmp_path / "pool")
    seq_files = sorted((tmp_path / "seq").rglob("*.rupt"))
    assert len(seq_files) == pooled_a_config.n_waveforms
    for seq_path in seq_files:
        pool_path = next((tmp_path / "pool").rglob(seq_path.name))
        assert pool_path.read_bytes() == seq_path.read_bytes()


def test_pooled_a_workers_share_disk_kl_store(tmp_path, pooled_a_config):
    """With a disk-backed KLCache, the pooled A phase persists bases the
    workers (and later runs) reuse."""
    from repro.seismo.klcache import KLCache

    cache = KLCache(cache_dir=tmp_path / "kl")
    with LocalRunner(n_workers=2, kl_cache=cache) as runner:
        first = runner.run(pooled_a_config)
        assert cache.disk_keys()  # workers populated the shared store
        second = runner.run(pooled_a_config)
    assert first.pgd_by_rupture == second.pgd_by_rupture


def test_single_chunk_a_stays_in_parent(tmp_path):
    """One A chunk -> no fan-out; the parent's own KLCache serves it."""
    from repro.seismo.klcache import KLCache

    config = FdwConfig(
        n_waveforms=2, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="one_a"
    )
    cache = KLCache(cache_dir=tmp_path / "kl")
    with LocalRunner(n_workers=2, kl_cache=cache) as runner:
        runner.run(config)
    assert cache.stats.misses >= 1  # parent-side cache was exercised


# -- estimate_sequential_runtime_s validation ---------------------------------


class _FakeStationsConfig:
    """Duck-typed config: FdwConfig itself rejects n_stations < 1 at
    construction, so the estimator's own guard needs a stand-in."""

    def __init__(self, n_stations):
        self.n_stations = n_stations
        self.n_waveforms = 16
        self.n_subfaults = 450
        self.chunk_a = 16
        self.chunk_c = 2
        self.recycle_distances = True
        self.name = "fake"


@pytest.mark.parametrize("n_stations", [0, -3, None])
def test_estimate_rejects_nonpositive_stations(n_stations):
    with pytest.raises(ConfigError, match="n_stations"):
        estimate_sequential_runtime_s(_FakeStationsConfig(n_stations))


# -- retry path: flaky chunks are retried, products unchanged ------------------


def test_flaky_chunks_retried_to_identical_archive(tmp_path, tiny_config):
    """A retryable flake on one chunk per phase costs extra attempts and
    accounted backoff but changes no product byte."""
    from repro.faults import ChunkFlake, FaultPlan

    plain = LocalRunner().run(tiny_config, archive_dir=tmp_path / "plain")
    plan = FaultPlan(
        flakes=(ChunkFlake("A", 1, times=2), ChunkFlake("C", 0, times=1))
    )
    flaky = LocalRunner().run(
        tiny_config, archive_dir=tmp_path / "flaky", faults=plan
    )
    assert flaky.chunk_retries == {"A": 2, "C": 1}
    assert flaky.retry_backoff_s > 0.0
    assert flaky.pgd_by_rupture == plain.pgd_by_rupture
    plain_files = sorted(p.name for p in (tmp_path / "plain").rglob("*") if p.is_file())
    flaky_files = sorted(p.name for p in (tmp_path / "flaky").rglob("*") if p.is_file())
    assert plain_files == flaky_files
    for name in plain_files:
        a = next((tmp_path / "plain").rglob(name))
        b = next((tmp_path / "flaky").rglob(name))
        assert a.read_bytes() == b.read_bytes()


def test_pooled_flaky_chunks_match_sequential(tmp_path, tiny_config):
    """The pooled paths resubmit the flaked chunk to the pool and still
    produce the sequential archive."""
    from repro.faults import ChunkFlake, FaultPlan

    plain = LocalRunner().run(tiny_config)
    plan = FaultPlan(
        flakes=(ChunkFlake("A", 0, times=1), ChunkFlake("C", 1, times=1))
    )
    with LocalRunner(n_workers=2) as runner:
        flaky = runner.run(tiny_config, faults=plan)
    assert flaky.chunk_retries == {"A": 1, "C": 1}
    assert flaky.pgd_by_rupture == plain.pgd_by_rupture


def test_flake_exhaustion_raises_transient_fault(tiny_config):
    """A chunk that flakes more times than the policy retries surfaces
    the typed retryable error instead of looping forever."""
    from repro.faults import ChunkFlake, FaultPlan, TransientFault
    from repro.resilience import RetryPolicy

    plan = FaultPlan(flakes=(ChunkFlake("A", 0, times=99),))
    runner = LocalRunner(retry_policy=RetryPolicy(max_attempts=2))
    with pytest.raises(TransientFault):
        runner.run(tiny_config, faults=plan)


def test_no_faults_reports_zero_retries(run_result):
    assert run_result.chunk_retries == {"A": 0, "C": 0}
    assert run_result.retry_backoff_s == 0.0
