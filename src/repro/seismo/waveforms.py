"""Kinematic GNSS waveform synthesis (the FDW Phase-C kernel).

Each subfault of a rupture contributes its static displacement through a
smooth slip ramp that arrives at ``onset + travel_time``; summing the
lagged, slip-weighted contributions over the patch gives the 3-component
displacement time series at every station — the characteristic "step
with overshoot-free ramp" shape of high-rate GNSS records of large
earthquakes. Optionally, realistic GNSS noise (white + random walk) is
added, following the noise characterization of Melgar et al. (2020).

Only the samples inside a patch's rise band take the cosine; the
saturated remainder of every ramp is a cumulative sum of step weights.
Per chunk of K ruptures the cost is
O(n_stations * (n_patch + K * n_samples) + band), where the band holds
about rise/dt samples per (station, patch) — the station-count scaling
the paper's Phase C job runtimes exhibit (15-20 min at 121 stations vs.
<1 min at 2).
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

#: Stations per vectorized block of :meth:`WaveformSynthesizer.synthesize_batch`.
#: On the 121-station, 450-subfault input, 16 ran ~20 % faster than one
#: station or all 121 at once; all at once also needs ~60 MB more for
#: the band temporaries.
_STATION_BLOCK = 16


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
        if self.data.ndim != 3 or self.data.shape[1] != 3 or self.data.shape[2] < 1:
            raise WaveformError(f"data must be (nsta, 3, nt >= 1), got {self.data.shape}")
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
        """Write the per-rupture product file, a lossless active window.

        A clean record is exactly 0 before its first arrival and exactly
        constant once its last patch saturates, so each (station,
        component) row keeps only its window ``[first, end)``: from its
        first non-zero sample to one past its last sample that differs
        from its final value. The uncompressed ``.npz`` holds

        * ``rupture_id``, ``dt_s``, ``n_samples`` and ``station_names``;
        * ``bounds``, (2, rows) int64: ``first`` and ``end`` per row, rows
          in (station, component) order;
        * ``final``, (rows,): each row's last sample;
        * ``window``: the rows' window samples, concatenated.

        The bounds come from a scan of the record's bit patterns, so the
        file decodes bit for bit whatever the data (``-0.0`` counts as
        non-zero); a noisy row simply gets a full-length window.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        nt = self.n_samples
        rows = np.ascontiguousarray(self.data).reshape(3 * self.n_stations, nt)
        bits = rows.view(f"u{rows.itemsize}")
        nonzero = bits != 0
        changed = bits != bits[:, -1:]
        first = nonzero.argmax(axis=1)  # 0 for an all-zero row
        # A row's last sample never differs from itself, so end == nt
        # only where nothing changes: that row is all `final`. first <=
        # end holds: the samples from end on are `final`, so non-zero
        # unless `final` is 0, and then sample end - 1 is non-zero.
        end = nt - changed[:, ::-1].argmax(axis=1)
        end[end == nt] = 0
        np.savez(
            path,
            rupture_id=np.array(self.rupture_id),
            dt_s=np.array(self.dt_s),
            n_samples=np.array(nt),
            station_names=np.array(self.station_names),
            bounds=np.stack([first, end]).astype(np.int64),
            final=rows[:, -1],
            window=rows.ravel()[_window_index(first, end, nt)],
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "WaveformSet":
        """Read a set written by :meth:`save`, bit for bit in its dtype.

        Raises
        ------
        WaveformError
            If the file is missing, truncated, empty or garbled, lacks a
            member (as a file from before the active-window format,
            which has ``data`` and no ``window``, does), or has bounds,
            window or final values that do not fit its rows. A numpy or
            zip error is chained as the cause.
        """
        path = Path(path)
        if not path.exists():
            raise WaveformError(f"waveform file not found: {path}")
        try:
            # Open the file here: np.load leaks its own handle when the
            # zip container fails to parse.
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                m = {name: _read_member(npz.zip, name) for name in _MEMBERS}
            names = tuple(str(n) for n in m["station_names"])
            fields = dict(
                rupture_id=str(m["rupture_id"]),
                dt_s=float(m["dt_s"]),
                station_names=names,
            )
            nt = int(m["n_samples"])
        # A damaged container fails in open-ended ways: BadZipFile,
        # EOFError, ValueError from the .npy header, NotImplementedError
        # or a zlib error from a garbled compression method, ...
        except Exception as exc:
            raise WaveformError(f"damaged waveform file {path}: {exc}") from exc
        bounds, final, window = m["bounds"], m["final"], m["window"]
        n_rows = 3 * len(names)
        if final.shape != (n_rows,):
            raise WaveformError(
                f"damaged waveform file {path}: {final.size} final values "
                f"for {n_rows} rows"
            )
        if bounds.shape != (2, n_rows) or bounds.dtype.kind not in "iu":
            raise WaveformError(
                f"damaged waveform file {path}: bounds {bounds.dtype}"
                f"{bounds.shape} do not match {n_rows} rows"
            )
        first, end = bounds
        if nt < 1 or np.any(first < 0) or np.any(end > nt) or np.any(first > end):
            raise WaveformError(
                f"damaged waveform file {path}: window bounds outside [0, {nt}]"
            )
        if final.dtype.kind != "f" or window.ndim != 1 or window.dtype != final.dtype:
            raise WaveformError(
                f"damaged waveform file {path}: window {window.dtype}"
                f"{window.shape} is not a 1-D float array of {final.dtype}"
            )
        if window.size != int(np.sum(end - first)):
            raise WaveformError(
                f"damaged waveform file {path}: window holds {window.size} "
                f"samples, bounds span {int(np.sum(end - first))}"
            )
        data = np.where(np.arange(nt) < first[:, None], 0, final[:, None])
        data.ravel()[_window_index(first, end, nt)] = window
        return cls(data=data.reshape(len(names), 3, nt), **fields)


#: Members of a product file, in the order :meth:`WaveformSet.save` writes.
_MEMBERS = (
    "rupture_id", "dt_s", "n_samples", "station_names", "bounds", "final", "window"
)


def _window_index(first: np.ndarray, end: np.ndarray, nt: int) -> np.ndarray:
    """Flat indices into (rows, nt) of every row's samples first..end-1,
    row after row."""
    width = end - first
    row_start = np.arange(width.size) * nt + first
    return np.arange(width.sum()) + np.repeat(
        row_start - (np.cumsum(width) - width), width
    )


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """One ``.npy`` member, read to its end so zipfile checks its CRC-32.

    ``np.load`` stops after the bytes the header asks for; a header
    damaged into asking for fewer would otherwise skip the check.
    """
    with archive.open(f"{name}.npy") as member:
        array = np.lib.format.read_array(member, allow_pickle=False)
        if member.read():
            raise ValueError(f"member {name!r} has bytes past its array")
    return array


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
        """Dtype of the products — the bank's own dtype."""
        return self.gf_bank.statics.dtype

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
        """Synthesize the waveform set for one rupture (a chunk of one).

        Raises
        ------
        WaveformError
            As :meth:`synthesize_batch`.
        """
        return self.synthesize_batch([rupture], [rng])[0]

    def synthesize_batch(
        self,
        ruptures: list[Rupture],
        rngs: list[np.random.Generator | None]
        | np.random.Generator
        | None = None,
    ) -> list[WaveformSet]:
        """Phase-C kernel: one call synthesizes a whole chunk.

        A patch's ramp is 0 up to its arrival ``a = onset + travel_time``
        and exactly 1 from the first sample at or after ``a + rise``, so
        each record is a step part plus a band part:

        * **step** — every slip-weighted static ``w = gf * slip`` is
          scattered (``np.bincount``) at its patch's saturation sample
          ``ceil((a + rise) / dt)`` and a cumulative sum over time turns
          the scatter into the sum of saturated patches;
        * **band** — only the few samples with ``a < t < a + rise`` take
          the cosine, ``w * 0.5 * (1 - cos(pi * (t - a) / rise))``,
          scattered into the same bins by a second ``bincount``.

        Both run vectorized over a block of stations and every rupture
        of the chunk. Each (station, rupture) owns a disjoint run of
        bins and the cumulative sum runs per row, so a rupture's
        products depend only on that rupture — not on the chunk it
        lands in or its position there. Sums accumulate in float64 and
        each record is cast back to the bank dtype.

        Parameters
        ----------
        rngs:
            ``None`` (clean synthetics), one shared generator (noise
            drawn per rupture in catalog order, matching a
            :meth:`synthesize` loop), or one generator per rupture
            (the chunk-job mode where each rupture owns a keyed noise
            stream).

        Raises
        ------
        WaveformError
            If a rupture references subfaults outside the GF bank, the
            ``rngs`` list does not match the ruptures, or noise is
            configured but a rupture has no generator.
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
            patch = rupture.subfault_indices
            if patch.min() < 0 or patch.max() >= bank.n_subfaults:
                raise WaveformError(
                    f"rupture {rupture.rupture_id} patch indices "
                    f"[{patch.min()}, {patch.max()}] outside GF bank with "
                    f"{bank.n_subfaults} subfaults"
                )
        if self.noise is not None and any(r is None for r in rng_list):
            raise WaveformError("noise model configured but no rng supplied")

        # The chunk's patches along one axis; `owner` is each patch's
        # rupture, `rec_len` its rupture's record length.
        n_rup = len(ruptures)
        counts = [r.n_subfaults for r in ruptures]
        owner = np.repeat(np.arange(n_rup), counts)
        patch = np.concatenate([r.subfault_indices for r in ruptures])
        slip = np.concatenate([r.slip_m for r in ruptures]).astype(
            self._work_dtype, copy=False
        )
        onset = np.concatenate([r.onset_time_s for r in ruptures])
        rise = np.maximum(
            np.concatenate([r.rise_time_s for r in ruptures]), self.dt_s * 0.5
        )
        tt_all = bank.travel_time_s[:, patch]
        bounds = np.cumsum([0] + counts)
        nts = [
            self._record_length(r, tt_all[:, bounds[k] : bounds[k + 1]])
            for k, r in enumerate(ruptures)
        ]
        rec_len = np.array(nts)[owner]
        # Bins are (component, station, rupture) rows of a record plus
        # one overflow bin that catches weights past the record's end.
        row_len = max(nts) + 1

        n_sta = bank.n_stations
        outs = [np.empty((n_sta, 3, nt), dtype=self._work_dtype) for nt in nts]
        for b0 in range(0, n_sta, _STATION_BLOCK):
            blk = slice(b0, min(b0 + _STATION_BLOCK, n_sta))
            arrival = onset + tt_all[blk]  # (B, P), float64
            gf = np.moveaxis(bank.statics[blk, patch, :], 2, 0)
            weight = (gf * slip).reshape(3, -1)  # (3, B * P)
            n_blk = arrival.shape[0]
            n_bins = n_blk * n_rup * row_len
            sat = np.minimum(np.ceil((arrival + rise) / self.dt_s), rec_len)
            sat = sat.astype(np.intp)
            first = np.minimum(np.floor(arrival / self.dt_s) + 1, rec_len)
            first = first.astype(np.intp)
            row_start = (np.arange(n_blk)[:, None] * n_rup + owner) * row_len

            step_bins = (row_start + sat).ravel()
            acc = np.stack(
                [np.bincount(step_bins, weight[c], n_bins) for c in range(3)]
            ).reshape(3, -1, row_len)
            np.cumsum(acc, axis=2, out=acc)

            # Band samples first..sat-1 of every (station, patch), flat;
            # `src` is the flat (station, patch) each sample belongs to.
            # Their (t - a) / rise lies in (0, 1) up to rounding, where
            # the ramp is flat, so no clip is needed.
            width = (sat - first).ravel()
            src = np.repeat(np.arange(width.size), width)
            t = np.arange(src.size) + np.repeat(
                first.ravel() - (np.cumsum(width) - width), width
            )
            ramp = t * self.dt_s
            ramp -= arrival.ravel()[src]
            ramp /= np.broadcast_to(rise, arrival.shape).ravel()[src]
            ramp *= np.pi
            np.cos(ramp, out=ramp)
            np.subtract(1.0, ramp, out=ramp)
            ramp *= 0.5
            band_bins = row_start.ravel()[src] + t
            for c in range(3):  # one component at a time bounds the temporaries
                band = np.bincount(band_bins, weight[c][src] * ramp, n_bins)
                acc[c] += band.reshape(-1, row_len)

            acc = acc.reshape(3, n_blk, n_rup, row_len)
            for k, out in enumerate(outs):
                out[blk] = acc[:, :, k, : nts[k]].transpose(1, 0, 2)

        return self._assemble(ruptures, outs, rng_list)

    def _assemble(
        self,
        ruptures: list[Rupture],
        outs: list[np.ndarray],
        rng_list: list[np.random.Generator | None],
    ) -> list[WaveformSet]:
        """Add per-rupture noise and wrap the raw arrays as WaveformSets.

        The noise draw is float64; the sum is cast back to the bank
        dtype, so a float32 bank still yields float32 products.
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
