"""Reference Okada GF bank: the per-subfault loop.

:func:`reference_okada_gf_bank` builds the same
:class:`~repro.seismo.greens.GreensFunctionBank` as
:func:`repro.seismo.okada.compute_okada_gf_bank` with one ``okada85``
call per subfault instead of one broadcast corner tensor — the oracle
the production builder is pinned against bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.seismo.geometry import FaultGeometry
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.kinematics import DEFAULT_SHEAR_VELOCITY_KMS
from repro.seismo.okada import okada85
from repro.seismo.stations import StationNetwork

__all__ = ["reference_okada_gf_bank"]


def _reference_bank_arrays(
    geometry: FaultGeometry,
    network: StationNetwork,
    ss: float,
    ds: float,
    shear_velocity_kms: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-subfault Python loop — the original bank builder.

    One :func:`~repro.seismo.okada.okada85` call per subfault, vectorized
    only over stations; the production corner-tensor build must match
    it bit for bit.
    """
    east_f, north_f, depth_f = geometry.enu()
    east_s, north_s = geometry.projection.to_enu(network.lons, network.lats)
    n_sta = len(network)
    n_sub = geometry.n_subfaults
    statics = np.zeros((n_sta, n_sub, 3))
    travel = np.zeros((n_sta, n_sub))

    for j in range(n_sub):
        strike = np.radians(geometry.strike_deg[j])
        dip = float(geometry.dip_deg[j])
        length = float(geometry.length_km[j])
        width = float(geometry.width_km[j])
        # Bottom-edge depth of the subfault plane (center + half the
        # vertical extent of the dipping rectangle).
        half_dz = 0.5 * width * np.sin(np.radians(dip))
        bottom_depth = float(depth_f[j]) + half_dz

        # Station offsets from the subfault center, rotated into the
        # fault frame (x along strike, y up-dip horizontal). Strike phi
        # measured clockwise from north; along-strike unit vector is
        # (sin phi, cos phi) in (east, north).
        de = east_s - east_f[j]
        dn = north_s - north_f[j]
        sx = de * np.sin(strike) + dn * np.cos(strike)
        sy_updip = -(de * np.cos(strike) - dn * np.sin(strike))
        # Okada origin: bottom-left corner -> shift by half length along
        # strike and by the horizontal reach of the lower half width.
        x_loc = sx + 0.5 * length
        y_loc = sy_updip + 0.5 * width * np.cos(np.radians(dip))

        ux, uy, uz = okada85(
            x_loc,
            y_loc,
            depth_km=bottom_depth,
            dip_deg=dip,
            length_km=length,
            width_km=width,
            strike_slip_m=ss,
            dip_slip_m=ds,
        )
        # Rotate fault-local (x: along strike, y: horizontal up-dip
        # normal) back to east/north. The up-dip horizontal direction
        # is 90 deg counterclockwise... defined consistently with the
        # sy_updip projection above.
        ue = ux * np.sin(strike) - uy * np.cos(strike)
        un = ux * np.cos(strike) + uy * np.sin(strike)
        statics[:, j, 0] = ue
        statics[:, j, 1] = un
        statics[:, j, 2] = uz
        # Square the depth by multiplication: ``depth_f[j] ** 2`` on a
        # numpy scalar goes through libm ``pow``, which can differ by one
        # ulp from the exact ``x * x`` of an array square.
        slant = np.sqrt(de**2 + dn**2 + depth_f[j] * depth_f[j])
        travel[:, j] = slant / shear_velocity_kms

    return statics, travel


def reference_okada_gf_bank(
    geometry: FaultGeometry,
    network: StationNetwork,
    rake_deg: float = 90.0,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
) -> GreensFunctionBank:
    """The float64 bank :func:`compute_okada_gf_bank` must reproduce."""
    rake = np.radians(rake_deg)
    statics, travel = _reference_bank_arrays(
        geometry, network, float(np.cos(rake)), float(np.sin(rake)), shear_velocity_kms
    )
    return GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=tuple(network.names),
        fault_name=geometry.name,
    )
