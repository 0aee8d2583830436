"""Tests for repro.seismo.klcache."""

import numpy as np
import pytest

from repro.errors import CacheError
from repro.seismo.klcache import CACHE_DIR_ENV, KLCache, kl_basis_key
from repro.seismo.ruptures import RuptureGenerator
from repro.seismo.spectra import KarhunenLoeveBasis, von_karman_correlation


@pytest.fixture()
def patch():
    """A 4x3 window on the small 10x6 mesh."""
    strike_rows = np.arange(2, 6)
    dip_cols = np.arange(1, 4)
    return (strike_rows[:, None] * 6 + dip_cols[None, :]).ravel()


# -- keys ---------------------------------------------------------------------


def test_key_is_stable(small_distances, patch):
    a = kl_basis_key(small_distances, patch, 50.0, 30.0, n_modes=8)
    b = kl_basis_key(small_distances, patch, 50.0, 30.0, n_modes=8)
    assert a == b
    assert len(a) == 64  # sha256 hex


def test_key_sensitive_to_every_input(small_distances, patch):
    base = kl_basis_key(small_distances, patch, 50.0, 30.0, hurst=0.75, n_modes=8)
    assert kl_basis_key(small_distances, patch[:-1], 50.0, 30.0, hurst=0.75, n_modes=8) != base
    assert kl_basis_key(small_distances, patch, 51.0, 30.0, hurst=0.75, n_modes=8) != base
    assert kl_basis_key(small_distances, patch, 50.0, 31.0, hurst=0.75, n_modes=8) != base
    assert kl_basis_key(small_distances, patch, 50.0, 30.0, hurst=0.5, n_modes=8) != base
    assert kl_basis_key(small_distances, patch, 50.0, 30.0, hurst=0.75, n_modes=9) != base
    assert kl_basis_key(small_distances, patch, 50.0, 30.0, hurst=0.75, n_modes=None) != base


def test_key_sensitive_to_window_position(small_distances, patch):
    """Conservative keying: a same-shape window elsewhere on the mesh is
    a different entry (positions are part of the content)."""
    shifted = patch + 1
    assert kl_basis_key(small_distances, patch, 50.0, 30.0) != kl_basis_key(
        small_distances, shifted, 50.0, 30.0
    )


def test_key_sensitive_to_distance_content(small_distances, patch):
    from repro.seismo.distance import DistanceMatrices

    other = DistanceMatrices(
        along_strike=small_distances.along_strike * 2.0,
        down_dip=small_distances.down_dip * 2.0,
    )
    assert kl_basis_key(small_distances, patch, 50.0, 30.0) != kl_basis_key(
        other, patch, 50.0, 30.0
    )


def test_distance_content_digest_cached(small_distances):
    assert small_distances.content_digest == small_distances.content_digest
    assert len(small_distances.content_digest) == 64


# -- bit-identity -------------------------------------------------------------


def _direct_basis(distances, patch, corr_s, corr_d, n_modes):
    corr = von_karman_correlation(
        distances.along_strike[np.ix_(patch, patch)],
        distances.down_dip[np.ix_(patch, patch)],
        corr_s,
        corr_d,
    )
    return KarhunenLoeveBasis.from_correlation(corr, n_modes=n_modes)


def test_cold_path_matches_direct_computation(small_distances, patch):
    cache = KLCache()
    basis = cache.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=8)
    direct = _direct_basis(small_distances, patch, 50.0, 30.0, 8)
    assert np.array_equal(basis.eigenvalues, direct.eigenvalues)
    assert np.array_equal(basis.eigenvectors, direct.eigenvectors)
    assert cache.stats.misses == 1 and cache.stats.stores == 1


def test_warm_memory_hit_is_same_object(small_distances, patch):
    cache = KLCache()
    a = cache.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=8)
    b = cache.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=8)
    assert a is b
    assert cache.stats.memory_hits == 1


def test_warm_disk_hit_bit_identical(tmp_path, small_distances, patch):
    store = tmp_path / "kl"
    cold = KLCache(cache_dir=store).get_or_compute(
        small_distances, patch, 50.0, 30.0, n_modes=8
    )
    fresh = KLCache(cache_dir=store)  # new process stand-in: empty memory
    warm = fresh.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=8)
    assert fresh.stats.disk_hits == 1 and fresh.stats.misses == 0
    assert np.array_equal(cold.eigenvalues, warm.eigenvalues)
    assert np.array_equal(cold.eigenvectors, warm.eigenvectors)


def test_disk_hit_sampling_bit_identical(tmp_path, small_distances, patch):
    """The whole point: a reloaded basis must sample the exact field the
    freshly computed basis samples (same BLAS path, same bits)."""
    store = tmp_path / "kl"
    cold = KLCache(cache_dir=store).get_or_compute(
        small_distances, patch, 50.0, 30.0, n_modes=8
    )
    warm = KLCache(cache_dir=store).get_or_compute(
        small_distances, patch, 50.0, 30.0, n_modes=8
    )
    f_cold = cold.sample(np.random.default_rng(9))
    f_warm = warm.sample(np.random.default_rng(9))
    assert np.array_equal(f_cold, f_warm)


def test_env_var_names_disk_store(tmp_path, monkeypatch, small_distances, patch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env_kl"))
    cache = KLCache()
    cache.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=4)
    assert cache.disk_keys()
    assert (tmp_path / "env_kl").exists()


# -- cache mechanics ----------------------------------------------------------


def test_lru_eviction(small_distances, patch):
    cache = KLCache(max_memory_entries=2)
    for n_modes in (2, 3, 4):
        cache.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=n_modes)
    assert len(cache.memory_keys()) == 2
    assert cache.stats.evictions == 1


def test_clear_and_contains(tmp_path, small_distances, patch):
    cache = KLCache(cache_dir=tmp_path / "kl")
    cache.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=4)
    key = cache.memory_keys()[0]
    assert cache.contains(key)
    cache.clear()
    assert cache.contains(key)  # still on disk
    assert cache.contains(key, on_disk=True)
    cache.clear(disk=True)
    assert not cache.contains(key)
    assert cache.disk_keys() == []


def test_validation():
    with pytest.raises(CacheError):
        KLCache(max_memory_entries=0)
    with pytest.raises(CacheError):
        KLCache().put("", None)


# -- generator integration ----------------------------------------------------


def test_generator_with_cache_bit_identical(small_geometry, small_distances):
    plain = RuptureGenerator(small_geometry, distances=small_distances)
    cached = RuptureGenerator(
        small_geometry, distances=small_distances, kl_cache=KLCache()
    )
    for seed in (0, 1, 2):
        a = plain.generate(np.random.default_rng(seed), "r", 8.2)
        b = cached.generate(np.random.default_rng(seed), "r", 8.2)
        assert np.array_equal(a.slip_m, b.slip_m)
        assert np.array_equal(a.subfault_indices, b.subfault_indices)
        assert np.array_equal(a.rise_time_s, b.rise_time_s)
        assert np.array_equal(a.onset_time_s, b.onset_time_s)


def test_generator_warm_cache_reproduces_cold(small_geometry, small_distances):
    cache = KLCache()
    gen = RuptureGenerator(small_geometry, distances=small_distances, kl_cache=cache)
    cold = gen.generate(np.random.default_rng(5), "r", 8.4)
    lookups_after_cold = cache.stats.lookups
    warm = gen.generate(np.random.default_rng(5), "r", 8.4)
    assert cache.stats.lookups > lookups_after_cold
    assert cache.stats.hits >= 1
    assert np.array_equal(cold.slip_m, warm.slip_m)


# -- integrity: corrupt disk entries degrade to a recompute -------------------


def test_truncated_disk_entry_is_quarantined_miss(tmp_path, small_distances,
                                                  patch):
    """Regression: a truncated ``.npz`` used to leak zipfile.BadZipFile
    out of get(); now it is an IntegrityError handled as a cache miss."""
    store = tmp_path / "kl"
    cold = KLCache(cache_dir=store).get_or_compute(
        small_distances, patch, 50.0, 30.0, n_modes=8
    )
    path = next(store.glob("kl_*.npz"))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    fresh = KLCache(cache_dir=store)
    recomputed = fresh.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=8)
    assert np.array_equal(recomputed.eigenvalues, cold.eigenvalues)
    assert fresh.stats.integrity_failures == 1
    assert fresh.stats.misses == 1  # the corrupt lookup was a miss
    assert len(fresh.quarantined) == 1
    quarantined = fresh.quarantined[0]
    assert quarantined.parent == store / "quarantine"
    assert quarantined.with_name(quarantined.name + ".reason").exists()
    # The recompute rewrote the entry: the next cold cache disk-hits.
    healed = KLCache(cache_dir=store)
    healed.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=8)
    assert healed.stats.disk_hits == 1


def test_bitflipped_disk_entry_fails_digest(tmp_path, small_distances, patch):
    store = tmp_path / "kl"
    KLCache(cache_dir=store).get_or_compute(
        small_distances, patch, 50.0, 30.0, n_modes=8
    )
    path = next(store.glob("kl_*.npz"))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    fresh = KLCache(cache_dir=store)
    fresh.get_or_compute(small_distances, patch, 50.0, 30.0, n_modes=8)
    assert fresh.stats.integrity_failures == 1
    assert len(fresh.quarantined) == 1
