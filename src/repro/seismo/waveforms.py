"""Kinematic GNSS waveform synthesis (the FDW Phase-C kernel).

Each subfault of a rupture contributes its static displacement through a
smooth slip ramp that arrives at ``onset + travel_time``; summing the
lagged, slip-weighted contributions over the patch gives the 3-component
displacement time series at every station — the characteristic "step
with overshoot-free ramp" shape of high-rate GNSS records of large
earthquakes. Optionally, realistic GNSS noise (white + random walk) is
added, following the noise characterization of Melgar et al. (2020).

The synthesis is vectorized per station over (subfaults x samples), so
cost scales as O(n_stations * n_patch * n_samples) — the station-count
scaling the paper's Phase C job runtimes exhibit (15-20 min at 121
stations vs. <1 min at 2).
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import WaveformError
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.ruptures import Rupture

__all__ = ["WaveformSet", "WaveformSynthesizer", "GnssNoiseModel"]

COMPONENTS = ("east", "north", "up")


@dataclass(frozen=True)
class GnssNoiseModel:
    """Additive GNSS position-noise model.

    White noise plus a random-walk component, the standard first-order
    description of real-time GNSS position error.

    Attributes
    ----------
    white_sigma_m:
        Standard deviation of the per-sample white component (m).
    walk_sigma_m:
        Per-sqrt(second) amplitude of the random walk (m/sqrt(s)).
    """

    white_sigma_m: float = 0.005
    walk_sigma_m: float = 0.0005

    def __post_init__(self) -> None:
        if self.white_sigma_m < 0 or self.walk_sigma_m < 0:
            raise WaveformError("noise amplitudes must be non-negative")

    def sample(
        self, rng: np.random.Generator, shape: tuple[int, ...], dt_s: float
    ) -> np.ndarray:
        """Noise realization with time as the last axis."""
        white = rng.normal(0.0, self.white_sigma_m, shape)
        steps = rng.normal(0.0, self.walk_sigma_m * np.sqrt(dt_s), shape)
        walk = np.cumsum(steps, axis=-1)
        return white + walk


@dataclass(frozen=True)
class WaveformSet:
    """Synthesized displacement waveforms for one rupture.

    Attributes
    ----------
    rupture_id:
        Id of the generating rupture.
    data:
        (n_stations, 3, n_samples) displacement in metres; component
        axis ordered (east, north, up).
    dt_s:
        Sample interval in seconds (1.0 for 1 Hz GNSS).
    station_names:
        Axis-0 labels.
    """

    rupture_id: str
    data: np.ndarray
    dt_s: float
    station_names: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.data.ndim != 3 or self.data.shape[1] != 3:
            raise WaveformError(f"data must be (nsta, 3, nt), got {self.data.shape}")
        if len(self.station_names) != self.data.shape[0]:
            raise WaveformError("station_names length != data stations axis")
        if self.dt_s <= 0:
            raise WaveformError(f"dt must be positive, got {self.dt_s}")
        if not np.all(np.isfinite(self.data)):
            raise WaveformError("waveforms contain non-finite values")

    @property
    def n_stations(self) -> int:
        """Number of stations."""
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of time samples."""
        return self.data.shape[2]

    @property
    def times_s(self) -> np.ndarray:
        """Sample times in seconds from rupture origin."""
        return np.arange(self.n_samples) * self.dt_s

    def pgd_m(self) -> np.ndarray:
        """Peak ground displacement per station: max 3-D vector norm."""
        norm = np.sqrt(np.sum(self.data**2, axis=1))
        return np.max(norm, axis=1)

    def final_offsets_m(self) -> np.ndarray:
        """(n_stations, 3) displacement at the final sample (static field)."""
        return self.data[:, :, -1].copy()

    def station(self, name: str) -> np.ndarray:
        """(3, n_samples) series for one station by code."""
        try:
            idx = self.station_names.index(name)
        except ValueError:
            raise WaveformError(f"station {name!r} not in waveform set") from None
        return self.data[idx]

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write to compressed ``.npz`` (the per-rupture product file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            rupture_id=np.array(self.rupture_id),
            data=self.data,
            dt_s=np.array(self.dt_s),
            station_names=np.array(self.station_names),
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "WaveformSet":
        """Read a set written by :meth:`save`.

        Raises
        ------
        WaveformError
            If the file is missing, or is truncated, empty or otherwise
            not a complete product (the numpy/zip error is chained).
        """
        path = Path(path)
        if not path.exists():
            raise WaveformError(f"waveform file not found: {path}")
        try:
            # Open the file here: np.load leaks its own handle when the
            # zip container fails to parse.
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                fields = dict(
                    rupture_id=str(data["rupture_id"]),
                    data=data["data"],
                    dt_s=float(data["dt_s"]),
                    station_names=tuple(str(n) for n in data["station_names"]),
                )
        except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as exc:
            raise WaveformError(f"damaged waveform file {path}: {exc}") from exc
        return cls(**fields)


class WaveformSynthesizer:
    """Phase-C kernel: rupture + GF bank -> station waveforms.

    Parameters
    ----------
    gf_bank:
        Precomputed Green's functions for the full fault mesh.
    dt_s:
        Output sample interval (1 s for high-rate GNSS).
    duration_s:
        Record length; ``None`` sizes it from the source duration plus
        the slowest travel time plus a tail.
    noise:
        Optional additive noise model; omit for clean synthetics.
    """

    def __init__(
        self,
        gf_bank: GreensFunctionBank,
        dt_s: float = 1.0,
        duration_s: float | None = None,
        noise: GnssNoiseModel | None = None,
    ) -> None:
        if dt_s <= 0:
            raise WaveformError(f"dt must be positive, got {dt_s}")
        if duration_s is not None and duration_s <= 0:
            raise WaveformError(f"duration must be positive, got {duration_s}")
        self.gf_bank = gf_bank
        self.dt_s = float(dt_s)
        self.duration_s = duration_s
        self.noise = noise

    @property
    def _work_dtype(self) -> np.dtype:
        """Dtype the synthesis runs in — the bank's own dtype.

        A float32 bank keeps the whole ramp/matmul pipeline in float32
        (half the memory traffic, sgemm instead of dgemm); float64 banks
        keep the historical bit-exact pipeline.
        """
        return self.gf_bank.statics.dtype

    def _times(self, nt: int) -> np.ndarray:
        return (np.arange(nt) * self.dt_s).astype(self._work_dtype, copy=False)

    def _source_arrays(
        self, rupture: Rupture
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slip, onset, floored rise) cast to the working dtype."""
        w = self._work_dtype
        slip = rupture.slip_m.astype(w, copy=False)
        onset = rupture.onset_time_s.astype(w, copy=False)
        rise = np.maximum(rupture.rise_time_s, self.dt_s * 0.5).astype(w, copy=False)
        return slip, onset, rise

    def _record_length(self, rupture: Rupture, patch_tt: np.ndarray) -> int:
        if self.duration_s is not None:
            return max(2, int(np.ceil(self.duration_s / self.dt_s)))
        t_end = rupture.duration_s + float(np.max(patch_tt)) + 60.0
        return max(2, int(np.ceil(t_end / self.dt_s)) + 1)

    def synthesize(
        self,
        rupture: Rupture,
        rng: np.random.Generator | None = None,
    ) -> WaveformSet:
        """Synthesize the waveform set for one rupture.

        Raises
        ------
        WaveformError
            If the rupture references subfaults outside the GF bank, or
            noise is configured but no ``rng`` is supplied.
        """
        patch = rupture.subfault_indices
        if patch.max() >= self.gf_bank.n_subfaults:
            raise WaveformError(
                f"rupture patch index {patch.max()} outside GF bank with "
                f"{self.gf_bank.n_subfaults} subfaults"
            )
        if self.noise is not None and rng is None:
            raise WaveformError("noise model configured but no rng supplied")

        gf = self.gf_bank.statics[:, patch, :]  # (nsta, npatch, 3) view
        tt = self.gf_bank.travel_time_s[:, patch]  # (nsta, npatch)
        nt = self._record_length(rupture, tt)

        times = self._times(nt)
        n_sta = self.gf_bank.n_stations
        out = np.empty((n_sta, 3, nt), dtype=self._work_dtype)
        slip, onset, rise = self._source_arrays(rupture)

        # Per-station vectorized accumulation; (npatch, nt) intermediate
        # keeps memory bounded for large meshes (see DESIGN.md).
        for i in range(n_sta):
            arrival = onset + tt[i]  # (npatch,)
            x = (times[None, :] - arrival[:, None]) / rise[:, None]
            ramp = 0.5 * (1.0 - np.cos(np.pi * np.clip(x, 0.0, 1.0)))
            weighted = gf[i] * slip[:, None]  # (npatch, 3)
            out[i] = weighted.T @ ramp  # (3, nt)

        if self.noise is not None:
            out += self.noise.sample(rng, out.shape, self.dt_s)  # type: ignore[arg-type]

        return WaveformSet(
            rupture_id=rupture.rupture_id,
            data=out,
            dt_s=self.dt_s,
            station_names=self.gf_bank.station_names,
            metadata={"target_mw": rupture.target_mw},
        )

    def synthesize_batch(
        self,
        ruptures: list[Rupture],
        rngs: list[np.random.Generator | None]
        | np.random.Generator
        | None = None,
    ) -> list[WaveformSet]:
        """Batched Phase-C kernel: one call synthesizes a whole chunk.

        All ruptures' patches are concatenated along one axis so the
        expensive slip-ramp evaluation runs as stacked array kernels
        over the whole chunk instead of a Python loop per rupture —
        per-station cost drops from ``n_ruptures`` small vector-op
        rounds to one. Products are **bit-identical** to calling
        :meth:`synthesize` per rupture (the per-rupture matmul operands
        are reconstructed with the exact values and memory layout of
        the scalar path).

        Parameters
        ----------
        rngs:
            ``None`` (clean synthetics), one shared generator (noise
            drawn per rupture in catalog order, matching a
            :meth:`synthesize` loop), or one generator per rupture
            (the chunk-job mode where each rupture owns a keyed noise
            stream).
        """
        if not ruptures:
            return []
        if isinstance(rngs, np.random.Generator) or rngs is None:
            rng_list: list[np.random.Generator | None] = [rngs] * len(ruptures)
        else:
            rng_list = list(rngs)
            if len(rng_list) != len(ruptures):
                raise WaveformError(
                    f"got {len(rng_list)} rngs for {len(ruptures)} ruptures"
                )

        bank = self.gf_bank
        for rupture in ruptures:
            if rupture.subfault_indices.max() >= bank.n_subfaults:
                raise WaveformError(
                    f"rupture patch index {rupture.subfault_indices.max()} "
                    f"outside GF bank with {bank.n_subfaults} subfaults"
                )
        if self.noise is not None and any(r is None for r in rng_list):
            raise WaveformError("noise model configured but no rng supplied")

        # Concatenate every rupture's patch into one axis; `segments`
        # holds each rupture's [start, end) slice of that axis.
        counts = [r.n_subfaults for r in ruptures]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        segments = [
            (int(offsets[k]), int(offsets[k + 1])) for k in range(len(ruptures))
        ]
        patch_all = np.concatenate([r.subfault_indices for r in ruptures])
        work = self._work_dtype
        sources = [self._source_arrays(r) for r in ruptures]
        slip_all = np.concatenate([s for s, _, _ in sources])
        onsets = [o for _, o, _ in sources]
        rises = [r for _, _, r in sources]

        gf_all = bank.statics[:, patch_all, :]  # (nsta, sum_npatch, 3)
        tt_all = bank.travel_time_s[:, patch_all]  # (nsta, sum_npatch)
        nts = [
            self._record_length(rupture, tt_all[:, s:e])
            for rupture, (s, e) in zip(ruptures, segments)
        ]
        times = self._times(max(nts))

        # Records are ragged (each rupture sizes its own nt), so the
        # chunk's (patch x time) planes are packed back-to-back into one
        # flat buffer: no padding, and each rupture's plane is a
        # C-contiguous (npatch, nt) view — the exact matmul operand the
        # scalar path builds, which is what keeps products bit-identical.
        plane_sizes = [c * nt for c, nt in zip(counts, nts)]
        plane_offsets = np.concatenate([[0], np.cumsum(plane_sizes)])
        buf = np.empty(int(plane_offsets[-1]), dtype=work)
        planes = [
            buf[int(plane_offsets[k]) : int(plane_offsets[k + 1])].reshape(
                counts[k], nts[k]
            )
            for k in range(len(ruptures))
        ]

        # The ramp transform t(x) = 0.5*(1 - cos(pi*x)) fixes the
        # clipped plateaus exactly (cos(0) == 1 and cos(pi) == -1 in
        # IEEE arithmetic — checked in the *working* dtype, since a
        # float32 bank runs the whole chain in float32), so after
        # clipping only the narrow rise band 0 < x < 1 — typically a few
        # percent of the plane — needs the transcendental evaluation.
        # Guard the fixed points anyway so an exotic libm falls back to
        # transforming everything.
        w_ = work.type
        plateaus_exact = (
            w_(0.5) * (w_(1.0) - np.cos(w_(np.pi) * w_(0.0))) == w_(0.0)
            and w_(0.5) * (w_(1.0) - np.cos(w_(np.pi) * w_(1.0))) == w_(1.0)
        )

        n_sta = bank.n_stations
        outs = [np.empty((n_sta, 3, nt), dtype=work) for nt in nts]
        for i in range(n_sta):
            for k, (s, e) in enumerate(segments):
                arrival = onsets[k] + tt_all[i, s:e]  # (npatch,)
                np.subtract(times[None, : nts[k]], arrival[:, None], out=planes[k])
                planes[k] /= rises[k][:, None]
            # The ramp passes run once over the whole chunk — stacked
            # kernels instead of a Python loop of per-rupture rounds —
            # and the cos chain touches only the unsaturated band.
            np.clip(buf, 0.0, 1.0, out=buf)
            if plateaus_exact:
                band = np.flatnonzero((buf > 0.0) & (buf < 1.0))
                vals = buf[band]
            else:  # pragma: no cover - non-IEEE libm fallback
                band = slice(None)
                vals = buf.copy()
            np.multiply(np.pi, vals, out=vals)
            np.cos(vals, out=vals)
            np.subtract(1.0, vals, out=vals)
            np.multiply(0.5, vals, out=vals)
            buf[band] = vals
            weighted_all = gf_all[i] * slip_all[:, None]
            for k, (s, e) in enumerate(segments):
                outs[k][i] = weighted_all[s:e].T @ planes[k]

        return self._assemble(ruptures, outs, rng_list)

    def _assemble(
        self,
        ruptures: list[Rupture],
        outs: list[np.ndarray],
        rng_list: list[np.random.Generator | None],
    ) -> list[WaveformSet]:
        """Add per-rupture noise and wrap the raw arrays as WaveformSets.

        The noise draw is float64; casting the sum back to the working
        dtype reproduces the scalar path's in-place ``+=`` (which rounds
        each float64 sum into the float32 output buffer).
        """
        work = self._work_dtype
        sets: list[WaveformSet] = []
        for k, rupture in enumerate(ruptures):
            out = outs[k]
            if self.noise is not None:
                out = out + self.noise.sample(rng_list[k], out.shape, self.dt_s)  # type: ignore[arg-type]
                if out.dtype != work:
                    out = out.astype(work)
            sets.append(
                WaveformSet(
                    rupture_id=rupture.rupture_id,
                    data=out,
                    dt_s=self.dt_s,
                    station_names=self.gf_bank.station_names,
                    metadata={"target_mw": rupture.target_mw},
                )
            )
        return sets
