"""Tests for repro.seismo.waveforms."""

import zipfile

import numpy as np
import pytest

from repro.errors import WaveformError
from repro.seismo.waveforms import GnssNoiseModel, WaveformSet, WaveformSynthesizer


@pytest.fixture(scope="module")
def clean_set(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank)
    return synth.synthesize(sample_rupture)


def test_shapes(clean_set, small_gf_bank):
    assert clean_set.n_stations == small_gf_bank.n_stations
    assert clean_set.data.shape[1] == 3
    assert clean_set.n_samples >= 2


def test_starts_at_rest(clean_set):
    # No subfault's energy arrives at t=0 (travel times > 0).
    np.testing.assert_allclose(clean_set.data[:, :, 0], 0.0, atol=1e-12)


def test_final_offset_matches_static_sum(clean_set, small_gf_bank, sample_rupture):
    patch = sample_rupture.subfault_indices
    expected = np.einsum(
        "sjc,j->sc", small_gf_bank.statics[:, patch, :], sample_rupture.slip_m
    )
    np.testing.assert_allclose(clean_set.final_offsets_m(), expected, rtol=1e-9)


def test_record_long_enough_for_all_arrivals(clean_set, small_gf_bank, sample_rupture):
    patch = sample_rupture.subfault_indices
    last_arrival = float(
        np.max(small_gf_bank.travel_time_s[:, patch] + sample_rupture.onset_time_s)
    )
    assert clean_set.times_s[-1] > last_arrival + np.max(sample_rupture.rise_time_s)


def test_pgd_positive_and_at_least_final_offset(clean_set):
    pgd = clean_set.pgd_m()
    final_norm = np.linalg.norm(clean_set.final_offsets_m(), axis=1)
    assert np.all(pgd > 0)
    assert np.all(pgd >= final_norm - 1e-12)


def test_station_accessor(clean_set):
    name = clean_set.station_names[0]
    series = clean_set.station(name)
    assert series.shape == (3, clean_set.n_samples)
    with pytest.raises(WaveformError):
        clean_set.station("ZZZZ")


def test_explicit_duration(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank, duration_s=100.0)
    ws = synth.synthesize(sample_rupture)
    assert ws.n_samples == 100


def test_noise_changes_data_and_is_reproducible(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    a = synth.synthesize(sample_rupture, rng=np.random.default_rng(5))
    b = synth.synthesize(sample_rupture, rng=np.random.default_rng(5))
    clean = WaveformSynthesizer(small_gf_bank).synthesize(sample_rupture)
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.allclose(a.data, clean.data)


def test_noise_requires_rng(small_gf_bank, sample_rupture):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    with pytest.raises(WaveformError):
        synth.synthesize(sample_rupture)


def test_noise_amplitude_reasonable(small_gf_bank, sample_rupture):
    model = GnssNoiseModel(white_sigma_m=0.005, walk_sigma_m=0.0)
    noise = model.sample(np.random.default_rng(0), (4, 3, 2000), dt_s=1.0)
    assert np.std(noise) == pytest.approx(0.005, rel=0.1)


def test_noise_model_validation():
    with pytest.raises(WaveformError):
        GnssNoiseModel(white_sigma_m=-1.0)


def test_rejects_rupture_outside_bank(small_gf_bank, sample_rupture):
    import dataclasses

    bad = dataclasses.replace(
        sample_rupture,
        subfault_indices=sample_rupture.subfault_indices + 10**6,
    )
    synth = WaveformSynthesizer(small_gf_bank)
    with pytest.raises(WaveformError):
        synth.synthesize(bad)


def test_save_load_roundtrip(tmp_path, clean_set):
    path = clean_set.save(tmp_path / "wf.npz")
    back = WaveformSet.load(path)
    np.testing.assert_array_equal(back.data, clean_set.data)
    assert back.rupture_id == clean_set.rupture_id
    assert back.station_names == clean_set.station_names
    assert back.dt_s == clean_set.dt_s


def test_load_missing_raises(tmp_path):
    with pytest.raises(WaveformError):
        WaveformSet.load(tmp_path / "nope.npz")


def test_load_truncated_raises_waveform_error(tmp_path, clean_set):
    path = clean_set.save(tmp_path / "wf.npz")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(WaveformError, match="wf.npz") as info:
        WaveformSet.load(path)
    assert isinstance(info.value.__cause__, zipfile.BadZipFile)


def test_load_empty_file_raises_waveform_error(tmp_path):
    path = tmp_path / "empty.npz"
    path.write_bytes(b"")
    with pytest.raises(WaveformError, match="empty.npz") as info:
        WaveformSet.load(path)
    assert isinstance(info.value.__cause__, EOFError)


def test_waveform_set_validation():
    with pytest.raises(WaveformError):
        WaveformSet(
            rupture_id="x",
            data=np.zeros((2, 2, 10)),  # bad component axis
            dt_s=1.0,
            station_names=("A", "B"),
        )
    with pytest.raises(WaveformError):
        WaveformSet(
            rupture_id="x",
            data=np.zeros((2, 3, 10)),
            dt_s=0.0,
            station_names=("A", "B"),
        )


def test_synthesizer_validation(small_gf_bank):
    with pytest.raises(WaveformError):
        WaveformSynthesizer(small_gf_bank, dt_s=0.0)
    with pytest.raises(WaveformError):
        WaveformSynthesizer(small_gf_bank, duration_s=-5.0)


# -- batched synthesis --------------------------------------------------------


@pytest.fixture(scope="module")
def rupture_batch(rupture_generator):
    return [
        rupture_generator.generate(
            np.random.default_rng(40 + i), rupture_id=f"batch.{i:06d}", target_mw=mw
        )
        for i, mw in enumerate([7.6, 8.0, 8.4, 8.9, 9.1])
    ]


def test_batch_bit_identical_to_scalar(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank)
    batched = synth.synthesize_batch(rupture_batch)
    for ws, rupture in zip(batched, rupture_batch):
        reference = synth.synthesize(rupture)
        assert ws.rupture_id == reference.rupture_id
        assert ws.data.shape == reference.data.shape
        assert np.array_equal(ws.data, reference.data)


def test_batch_with_shared_rng_matches_sequential_noise(small_gf_bank, rupture_batch):
    noise = GnssNoiseModel()
    batch_synth = WaveformSynthesizer(small_gf_bank, noise=noise)
    batched = batch_synth.synthesize_batch(
        rupture_batch, rngs=np.random.default_rng(99)
    )
    reference_synth = WaveformSynthesizer(small_gf_bank, noise=noise)
    rng = np.random.default_rng(99)
    for ws, rupture in zip(batched, rupture_batch):
        reference = reference_synth.synthesize(rupture, rng=rng)
        assert np.array_equal(ws.data, reference.data)


def test_batch_with_per_rupture_rngs(small_gf_bank, rupture_batch):
    noise = GnssNoiseModel()
    synth = WaveformSynthesizer(small_gf_bank, noise=noise)
    rngs = [np.random.default_rng(1000 + i) for i in range(len(rupture_batch))]
    batched = synth.synthesize_batch(rupture_batch, rngs=rngs)
    for i, (ws, rupture) in enumerate(zip(batched, rupture_batch)):
        reference = synth.synthesize(rupture, rng=np.random.default_rng(1000 + i))
        assert np.array_equal(ws.data, reference.data)


def test_batch_rng_list_length_mismatch(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    with pytest.raises(WaveformError):
        synth.synthesize_batch(rupture_batch, rngs=[np.random.default_rng(0)])


def test_batch_noise_requires_rng(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank, noise=GnssNoiseModel())
    with pytest.raises(WaveformError):
        synth.synthesize_batch(rupture_batch)


def test_batch_empty_list(small_gf_bank):
    synth = WaveformSynthesizer(small_gf_bank)
    assert synth.synthesize_batch([]) == []


class TestFloat32Synthesis:
    """A float32 bank runs the whole pipeline in float32, within the
    documented error budget against the float64 reference."""

    def test_output_dtype_follows_bank(self, small_gf_bank, sample_rupture):
        half = small_gf_bank.astype("float32")
        ws = WaveformSynthesizer(half).synthesize(sample_rupture)
        assert ws.data.dtype == np.float32

    def test_scalar_equals_batch_in_float32(
        self, small_gf_bank, rupture_generator
    ):
        half = small_gf_bank.astype("float32")
        ruptures = [
            rupture_generator.generate(
                np.random.default_rng(60 + i), rupture_id=f"f32.{i}", target_mw=8.2
            )
            for i in range(3)
        ]
        synth = WaveformSynthesizer(half)
        scalar = [synth.synthesize(r) for r in ruptures]
        batch = synth.synthesize_batch(ruptures)
        for a, b in zip(scalar, batch):
            assert a.data.dtype == np.float32
            assert np.array_equal(a.data, b.data)

    def test_error_budget_vs_float64(self, small_gf_bank, sample_rupture):
        full = WaveformSynthesizer(small_gf_bank).synthesize(sample_rupture)
        half = WaveformSynthesizer(small_gf_bank.astype("float32")).synthesize(
            sample_rupture
        )
        rel_pgd = np.max(
            np.abs(half.pgd_m() - full.pgd_m()) / np.maximum(full.pgd_m(), 1e-12)
        )
        # Measured ~4e-7 max on the paper mesh; assert with margin.
        assert float(rel_pgd) < 1e-5
        final_dev = np.max(
            np.abs(half.final_offsets_m() - full.final_offsets_m())
        )
        assert float(final_dev) < 1e-4

    def test_noise_keeps_working_dtype(self, small_gf_bank, sample_rupture):
        half = small_gf_bank.astype("float32")
        synth = WaveformSynthesizer(half, noise=GnssNoiseModel())
        a = synth.synthesize(sample_rupture, rng=np.random.default_rng(9))
        b = synth.synthesize_batch(
            [sample_rupture], rngs=[np.random.default_rng(9)]
        )[0]
        assert a.data.dtype == np.float32
        assert np.array_equal(a.data, b.data)
