"""Semistochastic rupture scenario generation (the FakeQuakes core).

A :class:`RuptureGenerator` produces :class:`Rupture` realizations on a
fault mesh following the FakeQuakes recipe:

1. draw a target magnitude (uniform in a configured range, FakeQuakes'
   default behaviour for building training catalogs),
2. draw rupture length/width from the scaling law and select a patch of
   subfaults around a random hypocenter,
3. sample a log-Gaussian correlated slip field on the patch from the
   K-L basis of the von Kármán correlation (correlation lengths scale
   with the rupture dimensions),
4. rescale slip so the realized moment matches the target magnitude,
5. assign kinematics (rise times, onset times).

Step 3 reuses the recyclable :class:`~repro.seismo.distance.DistanceMatrices`;
constructing the generator with precomputed matrices skips the expensive
O(n^2) geometry work — exactly the recycling the FDW Phase A exploits.

.. note::
   Patch selection clips the scaling-law dimensions to the mesh, so on a
   *small* mesh a large-magnitude rupture gets less area than the
   scaling law wants and moment closure compensates with higher slip
   (peak slips can exceed observed values). Use the full 30x15 default
   mesh (or larger) when realistic slip amplitudes matter; tiny meshes
   are for fast tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import RuptureError
from repro.seismo.distance import DistanceMatrices
from repro.seismo.geometry import FaultGeometry
from repro.seismo.kinematics import onset_times, rise_times
from repro.seismo.klcache import KLCache
from repro.seismo.scaling import (
    SUBDUCTION_INTERFACE,
    ScalingLaw,
    magnitude_from_moment,
    moment_from_magnitude,
)
from repro.seismo.spectra import KarhunenLoeveBasis, von_karman_correlation

__all__ = ["Rupture", "RuptureGenerator"]


@dataclass(frozen=True)
class Rupture:
    """One rupture scenario.

    Attributes
    ----------
    rupture_id:
        Catalog identifier, e.g. ``"chile.000042"``.
    target_mw / actual_mw:
        Requested and realized moment magnitude. They match to float
        precision because slip is rescaled to close the moment.
    subfault_indices:
        Flattened indices into the fault mesh for the rupture patch.
    slip_m:
        Slip (m) per patch subfault, non-negative.
    rise_time_s / onset_time_s:
        Kinematic parameters per patch subfault.
    hypocenter_index:
        Index *within the patch arrays* of the hypocenter subfault.
    """

    rupture_id: str
    target_mw: float
    actual_mw: float
    subfault_indices: np.ndarray
    slip_m: np.ndarray
    rise_time_s: np.ndarray
    onset_time_s: np.ndarray
    hypocenter_index: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.subfault_indices.shape[0]
        for name in ("slip_m", "rise_time_s", "onset_time_s"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise RuptureError(f"{name} shape {arr.shape} != patch size ({n},)")
        if n == 0:
            raise RuptureError("rupture patch is empty")
        if np.any(self.slip_m < 0):
            raise RuptureError("slip must be non-negative")
        if not (0 <= self.hypocenter_index < n):
            raise RuptureError("hypocenter index outside patch")

    @property
    def n_subfaults(self) -> int:
        """Number of subfaults in the rupture patch."""
        return self.subfault_indices.shape[0]

    @property
    def peak_slip_m(self) -> float:
        """Maximum subfault slip (m)."""
        return float(np.max(self.slip_m))

    @property
    def duration_s(self) -> float:
        """Source duration: last onset plus that subfault's rise time."""
        return float(np.max(self.onset_time_s + self.rise_time_s))

    def moment(self, geometry: FaultGeometry) -> float:
        """Realized seismic moment (N m) on a given mesh."""
        area_m2 = geometry.area_km2[self.subfault_indices] * 1e6
        return float(np.sum(geometry.rigidity_pa * area_m2 * self.slip_m))


class RuptureGenerator:
    """Stochastic rupture factory bound to a fault geometry.

    Parameters
    ----------
    geometry:
        The fault mesh to generate on.
    distances:
        Precomputed distance matrices; computed from the geometry when
        omitted (slow path — the FDW always recycles).
    scaling:
        Rupture-dimension scaling law.
    mw_range:
        Inclusive (min, max) target magnitude range; FakeQuakes catalogs
        for EEW training span roughly Mw 7.5-9.2.
    hurst:
        Von Kármán Hurst exponent.
    n_kl_modes:
        K-L truncation per rupture patch; ``None`` keeps all modes.
    slip_cv:
        Coefficient of variation of the log-slip field (heterogeneity).
    magnitude_law:
        How random target magnitudes are drawn: ``"uniform"`` (balanced
        ML training sets, the default) or ``"gutenberg_richter"``
        (realistic seismicity; see :mod:`repro.seismo.catalog`).
    b_value:
        Gutenberg-Richter slope when that law is selected.
    kl_cache:
        Optional :class:`~repro.seismo.klcache.KLCache` that memoizes
        the per-patch K-L eigendecomposition (the dominant per-rupture
        cost). ``None`` computes every basis directly; a cache is
        bit-identical to the direct path.
    """

    def __init__(
        self,
        geometry: FaultGeometry,
        distances: DistanceMatrices | None = None,
        scaling: ScalingLaw = SUBDUCTION_INTERFACE,
        mw_range: tuple[float, float] = (7.5, 9.2),
        hurst: float = 0.75,
        n_kl_modes: int | None = 64,
        slip_cv: float = 0.55,
        magnitude_law: str = "uniform",
        b_value: float = 1.0,
        kl_cache: KLCache | None = None,
    ) -> None:
        if mw_range[0] > mw_range[1]:
            raise RuptureError(f"invalid magnitude range {mw_range}")
        if slip_cv <= 0:
            raise RuptureError(f"slip_cv must be positive, got {slip_cv}")
        if magnitude_law not in ("uniform", "gutenberg_richter"):
            raise RuptureError(
                f"magnitude_law must be 'uniform' or 'gutenberg_richter', "
                f"got {magnitude_law!r}"
            )
        if b_value <= 0:
            raise RuptureError(f"b_value must be positive, got {b_value}")
        self.magnitude_law = magnitude_law
        self.b_value = float(b_value)
        self.geometry = geometry
        self.distances = distances or DistanceMatrices.from_geometry(geometry)
        if self.distances.n_subfaults != geometry.n_subfaults:
            raise RuptureError(
                f"distance matrices built for {self.distances.n_subfaults} "
                f"subfaults, geometry has {geometry.n_subfaults}"
            )
        self.scaling = scaling
        self.mw_range = (float(mw_range[0]), float(mw_range[1]))
        self.hurst = float(hurst)
        self.n_kl_modes = n_kl_modes
        self.slip_cv = float(slip_cv)
        self.kl_cache = kl_cache
        # Cache ENU coordinates; reused by every rupture.
        self._east, self._north, self._depth = geometry.enu()

    # -- patch selection ------------------------------------------------------

    def _select_patch(
        self, length_km: float, width_km: float, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        """Pick a contiguous mesh window of ~length x width around a
        random hypocenter; returns (patch indices, hypocenter position
        within the patch)."""
        geom = self.geometry
        sub_len = float(np.mean(geom.length_km))
        sub_wid = float(np.mean(geom.width_km))
        n_s = max(1, min(geom.n_strike, int(round(length_km / sub_len))))
        n_d = max(1, min(geom.n_dip, int(round(width_km / sub_wid))))

        s0 = int(rng.integers(0, geom.n_strike - n_s + 1))
        d0 = int(rng.integers(0, geom.n_dip - n_d + 1))
        strike_rows = np.arange(s0, s0 + n_s)
        dip_cols = np.arange(d0, d0 + n_d)
        patch = (strike_rows[:, None] * geom.n_dip + dip_cols[None, :]).ravel()

        # Hypocenter: a random subfault in the deeper half of the patch
        # (megathrust nucleation bias) — FakeQuakes randomizes similarly.
        dip_idx_in_patch = np.asarray(geom.dip_index(patch))
        deep_half = np.flatnonzero(dip_idx_in_patch >= np.median(dip_idx_in_patch))
        hypo_pos = int(rng.choice(deep_half)) if deep_half.size else int(rng.integers(patch.size))
        return patch, hypo_pos

    # -- slip sampling ---------------------------------------------------------

    def _sample_slip(
        self,
        patch: np.ndarray,
        length_km: float,
        width_km: float,
        target_mw: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Correlated lognormal slip on the patch, moment-closed."""
        # Correlation lengths scale with rupture dimensions (Melgar &
        # Hayes 2019-style fractional lengths).
        corr_s = max(1e-3, 0.38 * length_km)
        corr_d = max(1e-3, 0.27 * width_km)
        k = None if self.n_kl_modes is None else min(self.n_kl_modes, patch.size)
        if self.kl_cache is not None:
            basis = self.kl_cache.get_or_compute(
                self.distances, patch, corr_s, corr_d, hurst=self.hurst, n_modes=k
            )
        else:
            d_s = self.distances.along_strike[np.ix_(patch, patch)]
            d_d = self.distances.down_dip[np.ix_(patch, patch)]
            corr = von_karman_correlation(d_s, d_d, corr_s, corr_d, self.hurst)
            basis = KarhunenLoeveBasis.from_correlation(corr, n_modes=k)
        gaussian = basis.sample(rng)

        # Lognormal positivity transform with configured heterogeneity.
        sigma_log = np.sqrt(np.log(1.0 + self.slip_cv**2))
        raw = np.exp(sigma_log * gaussian - 0.5 * sigma_log**2)

        # Taper toward the patch edges so slip does not end abruptly
        # (FakeQuakes applies an analogous edge taper).
        geom = self.geometry
        s_idx = np.asarray(geom.strike_index(patch), dtype=float)
        d_idx = np.asarray(geom.dip_index(patch), dtype=float)

        def _taper(x: np.ndarray) -> np.ndarray:
            lo, hi = x.min(), x.max()
            if hi == lo:
                return np.ones_like(x)
            u = (x - lo) / (hi - lo)
            return np.sin(np.pi * np.clip(u * 1.08 + 0.04, 0.0, 1.0)) ** 0.5

        raw = raw * _taper(s_idx) * _taper(d_idx)
        if np.all(raw == 0):
            raise RuptureError("degenerate slip realization (all-zero after taper)")

        # Moment closure: scale so sum(mu * A * D) == M0(target).
        area_m2 = geom.area_km2[patch] * 1e6
        m0_raw = float(np.sum(geom.rigidity_pa * area_m2 * raw))
        m0_target = float(moment_from_magnitude(target_mw))
        return raw * (m0_target / m0_raw)

    # -- public API --------------------------------------------------------------

    def generate(
        self,
        rng: np.random.Generator,
        rupture_id: str = "rupture.000000",
        target_mw: float | None = None,
    ) -> Rupture:
        """Generate a single rupture scenario.

        Parameters
        ----------
        rng:
            Random stream; callers own seeding (see :mod:`repro.rng`).
        rupture_id:
            Catalog identifier stored on the result.
        target_mw:
            Fixed target magnitude, or ``None`` to draw uniformly from
            the generator's range.
        """
        if target_mw is not None:
            mw = float(target_mw)
        elif self.magnitude_law == "gutenberg_richter":
            from repro.seismo.catalog import sample_gutenberg_richter

            mw = float(
                sample_gutenberg_richter(
                    1, rng, self.mw_range[0], self.mw_range[1], self.b_value
                )[0]
            )
        else:
            mw = float(rng.uniform(*self.mw_range))
        if not (self.mw_range[0] - 1e-9 <= mw <= self.mw_range[1] + 1e-9):
            raise RuptureError(
                f"target Mw {mw} outside generator range {self.mw_range}"
            )
        length_km, width_km = self.scaling.sample_dimensions(mw, rng)
        patch, hypo_pos = self._select_patch(length_km, width_km, rng)
        slip = self._sample_slip(patch, length_km, width_km, mw, rng)

        rise = rise_times(slip)
        onset = onset_times(
            self._east[patch], self._north[patch], self._depth[patch], hypo_pos
        )
        rupture = Rupture(
            rupture_id=rupture_id,
            target_mw=mw,
            actual_mw=float(
                magnitude_from_moment(
                    np.sum(
                        self.geometry.rigidity_pa
                        * self.geometry.area_km2[patch]
                        * 1e6
                        * slip
                    )
                )
            ),
            subfault_indices=patch,
            slip_m=slip,
            rise_time_s=rise,
            onset_time_s=onset,
            hypocenter_index=hypo_pos,
            metadata={
                "length_km": length_km,
                "width_km": width_km,
                "fault": self.geometry.name,
            },
        )
        return rupture

    def generate_many(
        self,
        count: int,
        rng: np.random.Generator,
        prefix: str = "rupture",
        start_index: int = 0,
    ) -> list[Rupture]:
        """Generate ``count`` ruptures with sequential catalog ids.

        This is the Phase-A kernel: an FDW A-phase job calls this with
        its chunk size and chunk-specific RNG.

        .. note::
           Because every rupture advances the *single* sequential
           ``rng``, this method is intentionally **not**
           partition-invariant: generating [0, k) and [k, n) with two
           calls does not reproduce one [0, n) call unless the caller
           re-keys the second stream. Catalog-level partition invariance
           lives one layer up in
           :meth:`repro.seismo.fakequakes.FakeQuakes.phase_a_ruptures`,
           which derives an independent RNG per catalog index.
        """
        if count < 0:
            raise RuptureError(f"count must be >= 0, got {count}")
        return [
            self.generate(rng, rupture_id=f"{prefix}.{start_index + i:06d}")
            for i in range(count)
        ]
