"""Reference Phase-C kernel: the ramp plane and its matmul.

:class:`ReferenceWaveformSynthesizer` evaluates every patch's slip ramp
at every sample — one (npatch x nt) plane per station and rupture — and
contracts it with the slip-weighted statics in a matmul. Its cost is
O(n_stations * n_patch * n_samples). The production step-plus-band
kernel in :mod:`repro.seismo.waveforms` sums the same terms in a
different order, so it is pinned against this oracle with an asserted
error budget rather than bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WaveformError
from repro.seismo.ruptures import Rupture
from repro.seismo.waveforms import WaveformSet, WaveformSynthesizer

__all__ = ["ReferenceWaveformSynthesizer"]


class ReferenceWaveformSynthesizer(WaveformSynthesizer):
    """The matmul kernel behind the production synthesizer's interface.

    A float32 bank runs the whole ramp/matmul chain in float32 (sgemm),
    as the production path once did.
    """

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

    def synthesize_batch(
        self,
        ruptures: list[Rupture],
        rngs: list[np.random.Generator | None]
        | np.random.Generator
        | None = None,
    ) -> list[WaveformSet]:
        """Ramp-plane matmul over a chunk, one station at a time."""
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
        # C-contiguous (npatch, nt) view — the exact matmul operand a
        # one-rupture call builds, so products do not depend on the chunk.
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
