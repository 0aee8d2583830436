"""Tests for repro.seismo.waveforms."""

import dataclasses
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.seismo.waveforms as waveforms_mod
from repro.errors import WaveformError
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.ruptures import Rupture
from repro.seismo.waveforms import GnssNoiseModel, WaveformSet, WaveformSynthesizer
from tests.oracles.synthesis import ReferenceWaveformSynthesizer

#: Float64 error budget against the matmul oracle, relative to each
#: set's max |displacement| and to its peak PGD (measured ~3e-15).
F64_BUDGET = 1e-12


def assert_within_budget(sets, reference):
    """Max |data - ref| and max |PGD - ref PGD| within :data:`F64_BUDGET`
    of the reference set's max |data| and max PGD (exact where 0)."""
    assert len(sets) == len(reference)
    for ws, ref in zip(sets, reference):
        assert ws.rupture_id == ref.rupture_id
        assert ws.data.shape == ref.data.shape
        data_dev = np.max(np.abs(ws.data - ref.data))
        assert data_dev <= F64_BUDGET * np.max(np.abs(ref.data))
        pgd_dev = np.max(np.abs(ws.pgd_m() - ref.pgd_m()))
        assert pgd_dev <= F64_BUDGET * np.max(ref.pgd_m())


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
    bad = dataclasses.replace(
        sample_rupture,
        subfault_indices=sample_rupture.subfault_indices + 10**6,
    )
    synth = WaveformSynthesizer(small_gf_bank)
    with pytest.raises(WaveformError):
        synth.synthesize(bad)


def test_rejects_negative_subfault_index(small_gf_bank, sample_rupture):
    # A negative index would silently wrap to the bank's last subfaults.
    indices = sample_rupture.subfault_indices.copy()
    indices[0] = -1
    bad = dataclasses.replace(sample_rupture, subfault_indices=indices)
    synth = WaveformSynthesizer(small_gf_bank)
    with pytest.raises(WaveformError, match="-1"):
        synth.synthesize(bad)
    with pytest.raises(WaveformError, match="-1"):
        synth.synthesize_batch([sample_rupture, bad])


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


def test_save_keeps_only_the_active_window(tmp_path, clean_set):
    # Clean records are 0 before the first arrival and constant after
    # the last saturation: the window is a fraction of the record.
    path = clean_set.save(tmp_path / "wf.npz")
    with np.load(path) as npz:
        assert set(npz.files) == set(waveforms_mod._MEMBERS)
        assert npz["window"].size < clean_set.data.size // 2
        assert npz["window"].dtype == clean_set.data.dtype
    back = WaveformSet.load(path)
    assert back.data.tobytes() == clean_set.data.tobytes()


def test_window_bounds_of_edge_rows(tmp_path):
    # Rows: all zero, constant, non-zero only at the last sample, a
    # step with a ramp, and one that returns to 0 (its final value).
    data = np.zeros((2, 3, 8))
    data[0, 1] = 2.5
    data[0, 2, -1] = 1.0
    data[1, 0, 3:] = [0.5, 1.0, 1.0, 1.0, 1.0]
    data[1, 1, 2:5] = [1.0, -1.0, 2.0]
    ws = WaveformSet("edge", data, 1.0, ("A", "B"))
    bounds = _members(ws.save(tmp_path / "edge.npz"))["bounds"]
    assert bounds.T.tolist() == [[0, 0], [0, 0], [7, 7], [3, 4], [2, 5], [0, 0]]
    assert WaveformSet.load(tmp_path / "edge.npz").data.tobytes() == data.tobytes()


def _members(path):
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _rewrite(path, **changes):
    """Re-save a product with members replaced (``None`` drops one)."""
    members = {**_members(path), **changes}
    np.savez(path, **{k: v for k, v in members.items() if v is not None})


def _set(array, index, value):
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda m: {"bounds": _set(m["bounds"], (1, 0), m["n_samples"] + 1)}, "outside"),
        (lambda m: {"bounds": _set(m["bounds"], (0, 0), -1)}, "outside"),
        (lambda m: {"bounds": _set(m["bounds"], (0, 0), m["bounds"][1, 0] + 1)}, "outside"),
        (lambda m: {"bounds": m["bounds"][:, :-1]}, "bounds"),
        (lambda m: {"bounds": m["bounds"].astype(float)}, "bounds"),
        (lambda m: {"window": m["window"][:-1]}, "window holds"),
        (lambda m: {"window": m["window"].astype(np.float32)}, "window"),
        (lambda m: {k: m[k].astype(np.int64) for k in ("final", "window")}, "float"),
        (lambda m: {"final": m["final"][:-1]}, "final values"),
        (lambda m: {"n_samples": np.array(0)}, r"outside \[0, 0\]"),
    ],
)
def test_load_rejects_inconsistent_members(tmp_path, clean_set, damage, match):
    path = clean_set.save(tmp_path / "wf.npz")
    _rewrite(path, **damage(_members(path)))
    with pytest.raises(WaveformError, match=match):
        WaveformSet.load(path)


@pytest.mark.parametrize("member", waveforms_mod._MEMBERS)
def test_load_rejects_missing_member(tmp_path, clean_set, member):
    path = clean_set.save(tmp_path / "wf.npz")
    _rewrite(path, **{member: None})
    with pytest.raises(WaveformError, match="wf.npz") as info:
        WaveformSet.load(path)
    assert isinstance(info.value.__cause__, KeyError)


def test_load_rejects_zlib_format_product(tmp_path, clean_set):
    # The format before the active window: one compressed `data` member.
    path = tmp_path / "old.npz"
    np.savez_compressed(
        path,
        rupture_id=np.array(clean_set.rupture_id),
        data=clean_set.data,
        dt_s=np.array(clean_set.dt_s),
        station_names=np.array(clean_set.station_names),
    )
    with pytest.raises(WaveformError, match="old.npz") as info:
        WaveformSet.load(path)
    assert isinstance(info.value.__cause__, KeyError)


def assert_same_set(back, ws):
    assert back.data.dtype == ws.data.dtype
    assert back.data.shape == ws.data.shape
    assert back.data.tobytes() == ws.data.tobytes()
    assert back.rupture_id == ws.rupture_id
    assert back.station_names == ws.station_names
    assert back.dt_s == ws.dt_s


@settings(max_examples=150, deadline=None)
@given(
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
        st.tuples(
            st.just("garble"),
            st.lists(
                st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
                min_size=1,
                max_size=4,
            ),
        ),
    )
)
def test_property_damaged_product_raises_waveform_error(
    tmp_path_factory, clean_set, damage
):
    path = clean_set.save(tmp_path_factory.mktemp("damage") / "wf.npz")
    blob = bytearray(path.read_bytes())
    kind, how = damage
    if kind == "truncate":
        del blob[int(how * len(blob)) :]
    else:
        for where, flip in how:
            blob[int(where * len(blob))] ^= flip
    path.write_bytes(bytes(blob))
    try:
        back = WaveformSet.load(path)
    except WaveformError:
        return
    # Only a byte no reader looks at (a local-header timestamp, say)
    # can change without an error; what loads is then the original.
    assert kind == "garble"
    assert_same_set(back, clean_set)


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


def test_batch_within_budget_of_matmul_oracle(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank)
    oracle = ReferenceWaveformSynthesizer(small_gf_bank)
    for chunk in (rupture_batch[:2], rupture_batch[2:]):
        assert_within_budget(
            synth.synthesize_batch(chunk), oracle.synthesize_batch(chunk)
        )


def test_rupture_products_independent_of_chunk(small_gf_bank, rupture_batch):
    synth = WaveformSynthesizer(small_gf_bank)
    target = rupture_batch[2]
    alone = synth.synthesize_batch([target])[0]
    inside = synth.synthesize_batch(rupture_batch)[2]
    reversed_chunk = synth.synthesize_batch(rupture_batch[::-1])[2]
    assert inside.rupture_id == reversed_chunk.rupture_id == target.rupture_id
    assert np.array_equal(alone.data, inside.data)
    assert np.array_equal(alone.data, reversed_chunk.data)


@pytest.mark.parametrize("block", [1, 3, 5])
def test_station_block_size_does_not_change_products(
    small_gf_bank, rupture_batch, monkeypatch, block
):
    synth = WaveformSynthesizer(small_gf_bank)
    whole = synth.synthesize_batch(rupture_batch)
    monkeypatch.setattr(waveforms_mod, "_STATION_BLOCK", block)
    for ws, ref in zip(synth.synthesize_batch(rupture_batch), whole):
        assert np.array_equal(ws.data, ref.data)


@st.composite
def edge_chunks(draw):
    """A random bank and chunk at the kernel's index edges: coarse and
    fine sampling, arrivals on the sample grid, rise times under the
    dt/2 floor, single-subfault ruptures, single-station banks and
    records cut mid-ramp or before any arrival."""
    dt = draw(st.sampled_from([0.2, 0.5, 1.0, 2.0]))
    n_sta = draw(st.integers(1, 3))
    n_sub = draw(st.integers(1, 6))
    n_rup = draw(st.integers(1, 3))
    on_grid = draw(st.booleans())
    cut = draw(st.sampled_from([None, 0.02, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if on_grid:
        tt = dt * rng.integers(1, 40, (n_sta, n_sub)).astype(float)
    else:
        tt = rng.uniform(0.1, 80.0, (n_sta, n_sub))
    # One sign per (station, component): no cancellation between patches.
    sign = rng.choice([-1.0, 1.0], (n_sta, 1, 3))
    bank = GreensFunctionBank(
        statics=sign * rng.uniform(0.01, 1.0, (n_sta, n_sub, 3)),
        travel_time_s=tt,
        station_names=tuple(f"S{i:03d}" for i in range(n_sta)),
        fault_name="edge",
    )
    ruptures = []
    for k in range(n_rup):
        n = int(rng.integers(1, n_sub + 1))
        onset = rng.integers(0, 20, n) * dt if on_grid else rng.uniform(0, 40, n)
        ruptures.append(
            Rupture(
                rupture_id=f"edge.{k}",
                target_mw=8.0,
                actual_mw=8.0,
                subfault_indices=rng.choice(n_sub, n, replace=False),
                slip_m=rng.uniform(0.1, 20.0, n),
                rise_time_s=rng.uniform(0.0, 6.0 * dt, n),
                onset_time_s=onset,
                hypocenter_index=0,
            )
        )
    duration = None
    if cut is not None:
        latest = max(
            float(np.max(r.onset_time_s + tt[:, r.subfault_indices]))
            for r in ruptures
        )
        duration = max(dt, cut * latest)
    return bank, ruptures, dt, duration


@settings(max_examples=150, deadline=None)
@given(edge_chunks())
def test_property_within_budget_of_oracle_at_edges(case):
    bank, ruptures, dt, duration = case
    got = WaveformSynthesizer(bank, dt_s=dt, duration_s=duration).synthesize_batch(
        ruptures
    )
    want = ReferenceWaveformSynthesizer(
        bank, dt_s=dt, duration_s=duration
    ).synthesize_batch(ruptures)
    assert_within_budget(got, want)


@settings(max_examples=150, deadline=None)
@given(
    case=edge_chunks(),
    noisy=st.booleans(),
    dtype=st.sampled_from(["float64", "float32"]),
    edits=st.lists(
        st.tuples(st.integers(0, 2**16), st.sampled_from(["zero", "last", "-0.0"])),
        max_size=4,
    ),
)
def test_property_save_load_is_bitwise(tmp_path_factory, case, noisy, dtype, edits):
    """Products decode bit for bit in their dtype: the edge chunks above
    (dt in {0.2, 0.5, 1, 2}, records cut mid-ramp or before any
    arrival), with or without noise, from float32 or float64 banks, with
    rows made all-zero, non-zero only at the last sample, or starting
    with -0.0."""
    bank, ruptures, dt, duration = case
    noise = GnssNoiseModel() if noisy else None
    synth = WaveformSynthesizer(
        bank.astype(dtype), dt_s=dt, duration_s=duration, noise=noise
    )
    rngs = [np.random.default_rng(k) for k in range(len(ruptures))] if noisy else None
    out = tmp_path_factory.mktemp("roundtrip")
    for ws in synth.synthesize_batch(ruptures, rngs=rngs):
        data = ws.data.copy()
        rows = data.reshape(-1, ws.n_samples)
        for row, edit in edits:
            target = rows[row % len(rows)]
            if edit == "-0.0":
                target[0] = -0.0
            else:
                target[:] = 0.0
                if edit == "last":
                    target[-1] = 0.125
        ws = dataclasses.replace(ws, data=data)
        assert ws.data.dtype == np.dtype(dtype)
        back = WaveformSet.load(ws.save(out / f"{ws.rupture_id}.npz"))
        assert_same_set(back, ws)


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
