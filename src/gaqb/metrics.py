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
that quantity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import ChargingTrajectory


@dataclass(frozen=True)
class BatteryState:
    """Reduced 2x2 state of the battery atom.

    ``p`` is the excited-state population, ``c`` the coherence <e|rho_B|g>.
    """

    rho: np.ndarray
    p: float
    c: complex


def partial_trace_battery(rho: np.ndarray) -> BatteryState:
    """Trace out the charger: sum of the two diagonal 2x2 blocks."""
    rho = np.asarray(rho)
    rb = rho[0:2, 0:2] + rho[2:4, 2:4]
    return BatteryState(rho=rb, p=float(rb[1, 1].real), c=complex(rb[1, 0]))


def charger_population(rho: np.ndarray) -> float:
    """Excited-state population of the charger atom."""
    return float(rho[2, 2].real + rho[3, 3].real)


def energy(b: BatteryState) -> float:
    """Stored energy Tr[rho_B H_B] = p."""
    return b.p


def ergotropy(b: BatteryState) -> float:
    """Maximal unitarily extractable work, via the passive state (eigen path)."""
    evals = np.linalg.eigvalsh(0.5 * (b.rho + b.rho.conj().T))  # ascending
    # descending populations paired with ascending levels (0, 1)
    return max(0.0, b.p - float(evals[0]))


def fluctuation(b_t: BatteryState, b_0: BatteryState) -> float:
    """Change of the H_B standard deviation between start and time t.

    May be negative if the initial state had the larger variance.
    """

    def std(b):
        # <H_B> = <H_B^2> = p, since H_B^2 = H_B for a qubit
        return math.sqrt(max(0.0, b.p - b.p * b.p))

    return std(b_t) - std(b_0)


def average_power(ergotropy_t: float, t: float) -> float:
    """Ergotropy divided by elapsed time; defined as 0 at t = 0."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    return ergotropy_t / t


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def compute_records(traj: ChargingTrajectory) -> np.recarray:
    """Per-snapshot indicators as one record array, a field per indicator.

    All values are in units of the transition frequency.  Works on (T,4,4)
    and batched (N,T,4,4) states alike: the array has the states' leading
    shape, and each field holds, bit for bit, the value the per-state
    functions above give for that snapshot.
    """
    states = traj.states
    times = np.broadcast_to(traj.times, states.shape[:-2])
    rb = states[..., 0:2, 0:2] + states[..., 2:4, 2:4]
    p = rb[..., 1, 1].real
    passive = np.linalg.eigvalsh(0.5 * (rb + rb.conj().swapaxes(-1, -2)))[..., 0]
    value = p - passive
    erg = np.where(value > 0.0, value, 0.0)
    var = p - p * p
    std = np.sqrt(np.where(var > 0.0, var, 0.0))
    elapsed = times - traj.times[0]
    fields = {
        "t": times,
        "E": p,
        "ergotropy": erg,
        "sigma": std - std[..., :1],
        "power": np.divide(erg, elapsed, out=np.zeros_like(p), where=elapsed != 0.0),
        "energy_power": np.divide(p, elapsed, out=np.zeros_like(p), where=elapsed > 0.0),
        "p_a": states[..., 2, 2].real + states[..., 3, 3].real,
        "p_b": p,
        "purity": np.trace(states @ states, axis1=-2, axis2=-1).real,
    }
    return np.rec.fromarrays(list(fields.values()), names=list(fields))
