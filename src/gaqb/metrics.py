"""Battery performance indicators computed from trajectory snapshots.

Energy is Tr[rho_B H_B] with H_B = |e><e| the battery's bare Hamiltonian
in units of the transition frequency, so the stored energy is the
excited-state population p and never exceeds 1; ergotropy is the energy
above the passive state (descending populations paired with ascending
energy levels).  The fluctuation is the change of the standard
deviation of H_B relative to the start of charging, and the average power
divides ergotropy by elapsed time.  Because a two-level battery charged
through the waveguide from a bare excited charger never develops 0-1
coherence, an energy-based power E/t is also recorded; the published
transient-power figures for the dissipative working points correspond to
that quantity.  Each is a closed form of the trajectory's real coordinates.
"""
from __future__ import annotations

import numpy as np

from .integrator import ChargingTrajectory
from .liouville import lower_eigenvalue


def compute_records(traj: ChargingTrajectory) -> np.recarray:
    """Per-snapshot indicators as one record array, a field per indicator.

    All values are in units of the transition frequency.  Works on (T,17)
    and batched (N,T,17) coordinates alike: the array has their leading
    shape.  The battery's state [[a, c*], [c, p]] and its smaller eigenvalue,
    the passive state's energy, are read from the coordinates x
    (rho_00..rho_33, then Re and Im of rho_01 .. rho_23).
    """
    x = traj.coordinates
    times = np.broadcast_to(traj.times, x.shape[:-1])
    p = x[..., 1] + x[..., 3]
    a = x[..., 0] + x[..., 2]
    c = np.hypot(x[..., 4] + x[..., 14], x[..., 5] + x[..., 15])
    value = p - lower_eigenvalue(a, p, c)
    erg = np.where(value > 0.0, value, 0.0)
    var = p - p * p
    std = np.sqrt(np.where(var > 0.0, var, 0.0))
    fields = {
        "t": times,
        "E": p,
        "ergotropy": erg,
        "sigma": std - std[..., :1],
        "power": np.divide(erg, times, out=np.zeros_like(p), where=times > 0.0),
        "energy_power": np.divide(p, times, out=np.zeros_like(p), where=times > 0.0),
        "p_a": x[..., 2] + x[..., 3],
        "p_b": p,
        "purity": (x[..., :4] ** 2).sum(axis=-1) + 2.0 * (x[..., 4:16] ** 2).sum(axis=-1),
    }
    return np.rec.fromarrays(list(fields.values()), names=list(fields))
