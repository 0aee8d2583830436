"""Elastic Green's functions for static GNSS displacement.

MudPy computes station Green's functions with a frequency-wavenumber
code (fk) against a layered Earth model — a heavy external dependency.
We replace it with an analytic model that keeps the properties the
workflow and validation care about:

* 3-component static displacement per (station, subfault) pair,
* correct 1/R^2 geometric decay of the static field,
* the standard double-couple radiation pattern (strike/dip/rake and
  azimuth/takeoff dependence, Aki & Richards eqs. 4.84-4.86),
* a free-surface amplification factor of 2, and
* per-pair S-wave travel times used to lag subfault contributions in
  the kinematic synthesis.

Computing a bank is O(n_stations * n_subfaults) with real vector math,
so its cost scales with the station-list length exactly as the paper's
Phase B does ("can span multiple hours depending on the length of a
required input list of GNSS stations").
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import GreensFunctionError
from repro.seismo.geometry import FaultGeometry
from repro.seismo.kinematics import DEFAULT_SHEAR_VELOCITY_KMS
from repro.seismo.stations import StationNetwork

__all__ = [
    "GreensFunctionBank",
    "compute_gf_bank",
    "compute_gf_bank_for_method",
    "radiation_patterns",
]

#: Default rake: pure thrust, the megathrust mechanism.
DEFAULT_RAKE_DEG = 90.0


def radiation_patterns(
    strike_deg: np.ndarray,
    dip_deg: np.ndarray,
    rake_deg: np.ndarray | float,
    azimuth_deg: np.ndarray,
    takeoff_deg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double-couple radiation pattern coefficients (F_P, F_SV, F_SH).

    Standard far-field expressions (Aki & Richards, Quantitative
    Seismology, eqs. 4.84-4.86). All angles in degrees; inputs broadcast.

    ``azimuth`` is measured from strike (phi = station azimuth - strike);
    ``takeoff`` is the angle of the source-receiver ray from vertical.
    """
    lam = np.radians(np.asarray(rake_deg, dtype=float))
    dlt = np.radians(np.asarray(dip_deg, dtype=float))
    phi = np.radians(np.asarray(azimuth_deg, dtype=float) - np.asarray(strike_deg, dtype=float))
    inc = np.radians(np.asarray(takeoff_deg, dtype=float))

    sin_i, cos_i = np.sin(inc), np.cos(inc)
    sin_2i = np.sin(2.0 * inc)
    cos_2i = np.cos(2.0 * inc)

    f_p = (
        np.cos(lam) * np.sin(dlt) * sin_i**2 * np.sin(2.0 * phi)
        - np.cos(lam) * np.cos(dlt) * sin_2i * np.cos(phi)
        + np.sin(lam) * np.sin(2.0 * dlt) * (cos_i**2 - sin_i**2 * np.sin(phi) ** 2)
        + np.sin(lam) * np.cos(2.0 * dlt) * sin_2i * np.sin(phi)
    )
    f_sv = (
        np.sin(lam) * np.cos(2.0 * dlt) * cos_2i * np.sin(phi)
        - np.cos(lam) * np.cos(dlt) * cos_2i * np.cos(phi)
        + 0.5 * np.cos(lam) * np.sin(dlt) * sin_2i * np.sin(2.0 * phi)
        - 0.5 * np.sin(lam) * np.sin(2.0 * dlt) * sin_2i * (1.0 + np.sin(phi) ** 2)
    )
    f_sh = (
        np.cos(lam) * np.cos(dlt) * cos_i * np.sin(phi)
        + np.cos(lam) * np.sin(dlt) * sin_i * np.cos(2.0 * phi)
        + np.sin(lam) * np.cos(2.0 * dlt) * cos_i * np.cos(phi)
        - 0.5 * np.sin(lam) * np.sin(2.0 * dlt) * sin_i * np.sin(2.0 * phi)
    )
    return f_p, f_sv, f_sh


@dataclass(frozen=True)
class GreensFunctionBank:
    """Precomputed static GFs and travel times for a network/fault pair.

    Attributes
    ----------
    statics:
        (n_stations, n_subfaults, 3) static displacement in metres at
        each station for **1 m of slip** on each subfault, components
        ordered (east, north, up).
    travel_time_s:
        (n_stations, n_subfaults) S-wave travel time in seconds.
    station_names:
        Network order matching axis 0.
    fault_name:
        Name of the geometry the bank was computed for.
    """

    statics: np.ndarray
    travel_time_s: np.ndarray
    station_names: tuple[str, ...]
    fault_name: str

    def __post_init__(self) -> None:
        s = self.statics
        t = self.travel_time_s
        if s.ndim != 3 or s.shape[2] != 3:
            raise GreensFunctionError(f"statics must be (nsta, nsub, 3), got {s.shape}")
        if t.shape != s.shape[:2]:
            raise GreensFunctionError(
                f"travel_time shape {t.shape} != statics leading dims {s.shape[:2]}"
            )
        if len(self.station_names) != s.shape[0]:
            raise GreensFunctionError("station_names length != statics stations axis")
        if not np.all(np.isfinite(s)) or not np.all(np.isfinite(t)):
            raise GreensFunctionError("GF bank contains non-finite values")
        if np.any(t < 0):
            raise GreensFunctionError("travel times must be non-negative")

    @property
    def n_stations(self) -> int:
        """Number of stations (axis 0)."""
        return self.statics.shape[0]

    @property
    def n_subfaults(self) -> int:
        """Number of subfaults (axis 1)."""
        return self.statics.shape[1]

    @property
    def nbytes(self) -> int:
        """Physical size of the bank arrays in bytes.

        What storage layers (:mod:`repro.core.gfcache` shared-memory
        publishing, :mod:`repro.vdc.storage` placement) charge for.
        Dtype-aware: a float32 bank reports half the bytes of its
        float64 twin.
        """
        return int(self.statics.nbytes) + int(self.travel_time_s.nbytes)

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the bank arrays (float64 unless opted in)."""
        return self.statics.dtype

    def astype(self, dtype: str | np.dtype) -> "GreensFunctionBank":
        """Return a copy of the bank cast to ``dtype``.

        ``float32`` halves :attr:`nbytes` (and therefore Stash/OSDF
        transfer bytes in the VDC model) at the cost of ~1e-7 relative
        error in synthesized waveforms — see DESIGN.md for the measured
        budget. A no-op cast still returns a new bank.
        """
        out = np.dtype(dtype)
        if out not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise GreensFunctionError(
                f"GF bank dtype must be float64 or float32, got {out}"
            )
        return GreensFunctionBank(
            statics=self.statics.astype(out),
            travel_time_s=self.travel_time_s.astype(out),
            station_names=self.station_names,
            fault_name=self.fault_name,
        )

    def station_index(self, name: str) -> int:
        """Index of a station by code."""
        try:
            return self.station_names.index(name)
        except ValueError:
            raise GreensFunctionError(f"station {name!r} not in GF bank") from None

    # -- persistence (the .mseed-archive stand-in) --------------------------

    def save(self, path: str | Path) -> Path:
        """Write the bank to a compressed ``.npz`` archive.

        This plays the role of the large ``.mseed`` archives Phase B
        produces (possibly exceeding 1 GB in the paper's runs).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            statics=self.statics,
            travel_time_s=self.travel_time_s,
            station_names=np.array(self.station_names),
            fault_name=np.array(self.fault_name),
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "GreensFunctionBank":
        """Read a bank written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise GreensFunctionError(f"GF bank not found: {path}")
        with np.load(path, allow_pickle=False) as data:
            return cls(
                statics=data["statics"],
                travel_time_s=data["travel_time_s"],
                station_names=tuple(str(n) for n in data["station_names"]),
                fault_name=str(data["fault_name"]),
            )


def compute_gf_bank(
    geometry: FaultGeometry,
    network: StationNetwork,
    rake_deg: float = DEFAULT_RAKE_DEG,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
    min_distance_km: float = 1.0,
    dtype: str | np.dtype = "float64",
) -> GreensFunctionBank:
    """Compute the static GF bank for every (station, subfault) pair.

    The static field for unit slip on a subfault of area ``A`` is::

        u = 2 * (mu * A * 1 / (4 pi mu R^2)) * (F_P * rhat + F_SV * vhat + F_SH * hhat)

    i.e. moment ``mu*A*u_slip`` with ``u_slip = 1 m``, double-couple
    radiation pattern, 1/R^2 static decay, and free-surface factor 2.
    The rigidity cancels in the displacement amplitude, leaving the
    area/geometry dependence — which is the behaviour the validation
    checks (amplitude grows with moment, decays with distance).

    Parameters
    ----------
    min_distance_km:
        Distances are floored at this value to keep the near-field
        amplitude finite for stations nearly atop a subfault.
    dtype:
        Output dtype of the bank arrays; the computation itself always
        runs in float64 and ``"float32"`` casts the finished bank.
    """
    if min_distance_km <= 0:
        raise GreensFunctionError(f"min_distance_km must be positive, got {min_distance_km}")
    if shear_velocity_kms <= 0:
        raise GreensFunctionError("shear velocity must be positive")

    east_f, north_f, depth_f = geometry.enu()
    east_s, north_s = geometry.projection.to_enu(network.lons, network.lats)

    # Pairwise source->receiver vectors in km; receivers at the surface.
    dx = east_s[:, None] - east_f[None, :]  # east
    dy = north_s[:, None] - north_f[None, :]  # north
    dz = 0.0 - (-depth_f[None, :])  # up (source depth is positive-down)
    dz = np.broadcast_to(dz, dx.shape).copy()

    r = np.sqrt(dx**2 + dy**2 + dz**2)
    r = np.maximum(r, min_distance_km)

    # Unit ray vector components.
    gx, gy, gz = dx / r, dy / r, dz / r

    # Azimuth of the ray (degrees from north, clockwise) and takeoff
    # angle from vertical.
    azimuth = np.degrees(np.arctan2(gx, gy))
    takeoff = np.degrees(np.arccos(np.clip(gz, -1.0, 1.0)))

    f_p, f_sv, f_sh = radiation_patterns(
        geometry.strike_deg[None, :],
        geometry.dip_deg[None, :],
        rake_deg,
        azimuth,
        takeoff,
    )

    # Basis vectors: rhat along the ray; hhat horizontal transverse;
    # vhat completes the right-handed set (SV polarization).
    horiz = np.maximum(np.sqrt(gx**2 + gy**2), 1e-12)
    hx, hy, hz = gy / horiz, -gx / horiz, np.zeros_like(gx)
    # vhat = rhat x hhat
    vx = gy * hz - gz * hy
    vy = gz * hx - gx * hz
    vz = gx * hy - gy * hx

    # Amplitude: potency (A * 1m) / (4 pi R^2), R in metres, A in m^2.
    area_m2 = geometry.area_km2[None, :] * 1e6
    r_m = r * 1e3
    amp = 2.0 * area_m2 / (4.0 * np.pi * r_m**2)

    ue = amp * (f_p * gx + f_sv * vx + f_sh * hx)
    un = amp * (f_p * gy + f_sv * vy + f_sh * hy)
    uz = amp * (f_p * gz + f_sv * vz + f_sh * hz)

    statics = np.stack([ue, un, uz], axis=-1)
    travel = r / shear_velocity_kms

    bank = GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=tuple(network.names),
        fault_name=geometry.name,
    )
    if np.dtype(dtype) != np.dtype(np.float64):
        bank = bank.astype(dtype)
    return bank


def compute_gf_bank_for_method(
    geometry: FaultGeometry,
    network: StationNetwork,
    gf_method: str = "point",
    rake_deg: float = DEFAULT_RAKE_DEG,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
    min_distance_km: float = 1.0,
    dtype: str | np.dtype = "float64",
) -> GreensFunctionBank:
    """Compute the bank of one GF flavour: the point-source kernel
    (:func:`compute_gf_bank`, the default) or, for ``gf_method="okada"``,
    the finite-fault :func:`~repro.seismo.okada.compute_okada_gf_bank`
    (which has no distance floor, so ``min_distance_km`` does not apply).
    """
    if gf_method == "okada":
        # Imported here: repro.seismo.okada builds on this module.
        from repro.seismo.okada import compute_okada_gf_bank

        return compute_okada_gf_bank(
            geometry,
            network,
            rake_deg=rake_deg,
            shear_velocity_kms=shear_velocity_kms,
            dtype=dtype,
        )
    return compute_gf_bank(
        geometry,
        network,
        rake_deg=rake_deg,
        shear_velocity_kms=shear_velocity_kms,
        min_distance_km=min_distance_km,
        dtype=dtype,
    )
