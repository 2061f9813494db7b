"""Remote chiral charging: unidirectional pitch-catch energy transfer.

Both atoms sit in the separated layout with per-point phases tuned so that
emission into the left-passing modes interferes destructively; the master
equation then carries a single right-passing collective jump operator and
the matching cascaded exchange term.  Modulating the two emission rates in
a mirror-symmetric way lets the charger launch a time-symmetric photon
that the battery absorbs without reflection (a dark state of the
collective jump), so the stored energy never reenters the waveguide.

Rate profiles: the pitch rate follows

    f(t) = Gamma_max * exp(Gamma_max (t - tau)) / (2 - exp(Gamma_max (t - tau)))

for t < tau and stays at Gamma_max afterwards; the catch rate mirrors it
across the protocol midpoint, f(2 tau - t), i.e. the absorber is fully
open while the photon builds up and ramps down as the emitter empties.
This pairing satisfies the dark-state condition exactly; mirroring about
tau/2 instead (absorber closing during emission) provably does not and
loses essentially the whole excitation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .geometry import CouplingParams
from .integrator import DEFAULT_DT, ChargingTrajectory, TimeGrid, evolve
from .liouville import (
    CASCADED_LEFT,
    CASCADED_RIGHT,
    LiouvillianSpec,
    jump_operator,  # noqa: F401 -- perfbench/tracer.py times gaqb.chiral.jump_operator
    projector,
)
from .metrics import compute_records

RIGHT_TO_BATTERY = "right"
LEFT_TO_CHARGER = "left"


@dataclass(frozen=True)
class ChiralProtocol:
    """Pitch-catch schedule: peak rate, protocol time, working phase, direction."""

    gamma_max: float
    tau: float
    theta: float = math.pi / 2
    direction: str = RIGHT_TO_BATTERY

    def __post_init__(self):
        if not (math.isfinite(self.gamma_max) and self.gamma_max > 0.0):
            raise ValueError(f"gamma_max must be finite and positive, got {self.gamma_max}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if abs(math.sin(self.theta)) < 1e-12:
            raise ValueError("sin(theta) = 0 decouples both atoms; pick another phase")
        if self.direction not in (RIGHT_TO_BATTERY, LEFT_TO_CHARGER):
            raise ValueError(f"unknown direction {self.direction!r}")


# math.exp element by element: numpy's vectorized exp differs from it by an
# ulp on about 0.5% of arguments, which x / (2 - x) grows to 3 ulp; with
# libm's exp an array call returns the scalar formula's bits
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def rate_profile(t, gamma_max: float, tau: float):
    """Pitch-rate function: exponential rise saturating at gamma_max for t >= tau.

    ``t`` may be an array of times; the exponent is capped at 0, so no time
    overflows.
    """
    x = np.asarray(_libm_exp(gamma_max * (np.minimum(t, tau) - tau)), dtype=float)
    return np.where(np.less(t, tau), gamma_max * x / (2.0 - x), gamma_max)[()]


def pitch_catch_rates(t, p: ChiralProtocol) -> Tuple[float, float]:
    """Modulated emission rates (Gamma_a, Gamma_b) at time t (or an array of times).

    The emitter follows :func:`rate_profile`; the absorber runs the same
    profile mirrored across the midpoint tau, so it sits at gamma_max
    through the pitch phase and rolls off afterwards.  Both are continuous
    at t = tau.  For the reversed direction the roles are swapped.
    """
    pitch = rate_profile(t, p.gamma_max, p.tau)
    catch = rate_profile(2.0 * p.tau - t, p.gamma_max, p.tau)
    if p.direction == RIGHT_TO_BATTERY:
        return pitch, catch
    return catch, pitch


def chiral_coupling_params(t, p: ChiralProtocol) -> CouplingParams:
    """Master-equation coefficients of the chiral generator at time t.

    For an array of times every field but ``Gamma_coll`` is an array.

    The profiled rates enter the jump operator as kappa_j = Gamma_j/2, so
    the generator-level Gamma_j is twice the profile value; the coherent
    magnitude is the cascade-exact (1/2) sqrt(kappa_a kappa_b) and the
    Lamb shifts follow -gamma_j sin(2 theta) with the per-point rate
    gamma_j = Gamma_j / (4 sin^2 theta).  At the default theta = pi/2 the
    shifts vanish identically.
    """
    fa, fb = pitch_catch_rates(t, p)
    Gamma_a = 2.0 * fa
    Gamma_b = 2.0 * fb
    g = 0.25 * np.sqrt(Gamma_a * Gamma_b)
    s2 = math.sin(p.theta) ** 2
    shift = -math.sin(2.0 * p.theta) / (4.0 * s2)
    return CouplingParams(
        delta_a=shift * Gamma_a,
        delta_b=shift * Gamma_b,
        g_ab=g,
        Gamma_a=Gamma_a,
        Gamma_b=Gamma_b,
        Gamma_coll=0.0,
    )


def chiral_spec(p: ChiralProtocol) -> LiouvillianSpec:
    """Time-dependent cascaded LiouvillianSpec for the protocol."""
    kind = CASCADED_RIGHT if p.direction == RIGHT_TO_BATTERY else CASCADED_LEFT
    return LiouvillianSpec(lambda t: chiral_coupling_params(t, p), dissipator_kind=kind)


@dataclass(frozen=True)
class TransferSummary:
    """Outcome of a pitch-catch run.

    Energies are excited-state populations, i.e. in units of the
    transition frequency; the run starts with one excitation, so
    ``efficiency`` is the final energy of the receiving atom.
    """

    final_battery_energy: float
    final_charger_energy: float
    leakage: float
    efficiency: float


def transfer_step(p: ChiralProtocol, grid: TimeGrid) -> float:
    """The step :func:`run_transfer` takes on ``grid``, never longer than ``grid.dt``.

    It is (edge - t_start) / ceil((edge - t_start) / dt), with ``edge`` = tau
    if tau lies inside the window and t_end otherwise.
    """
    edge = p.tau if grid.t_start < p.tau < grid.t_end else grid.t_end
    # evolve's own slack, floor(span / dt + 1e-9), so a whole count stays whole
    n = max(1, math.ceil((edge - grid.t_start) / grid.dt - 1e-9))
    return (edge - grid.t_start) / n


def default_stride(p: ChiralProtocol, grid: TimeGrid) -> int:
    """Snapshot stride giving about 600 snapshots over ``grid`` at :func:`transfer_step`."""
    return max(1, round((grid.t_end - grid.t_start) / transfer_step(p, grid) / 600))


def default_grid(p: ChiralProtocol, dt: float = DEFAULT_DT) -> TimeGrid:
    """Window [0, 3 tau] with the stride of :func:`default_stride`."""
    grid = TimeGrid(0.0, 3.0 * p.tau, dt=dt)
    return replace(grid, sample_stride=default_stride(p, grid))


def run_transfer(
    p: ChiralProtocol,
    rho0: Optional[np.ndarray] = None,
    grid: Optional[TimeGrid] = None,
) -> Tuple[ChargingTrajectory, TransferSummary]:
    """Evolve the cascaded master equation and track the leaked excitation.

    Leakage accumulates the photon flux past the absorber,
    integral of Tr[L rho L^dag] dt, which :func:`evolve` integrates with
    the state into ``traj.aux``.  The default initial state puts the
    excitation on the sending atom for the chosen direction.  The run is
    one :func:`evolve` call at :func:`transfer_step`, which lands the rate
    profiles' slope kink at t = tau on a step boundary; the rest of the
    window keeps that step, plus :class:`TimeGrid`'s short last one.
    """
    if rho0 is None:
        rho0 = projector("eg" if p.direction == RIGHT_TO_BATTERY else "ge")
    if grid is None:
        grid = default_grid(p)
    traj = evolve(chiral_spec(p), rho0, replace(grid, dt=transfer_step(p, grid)))
    last = compute_records(traj)[-1]
    summary = TransferSummary(
        final_battery_energy=float(last.p_b),
        final_charger_energy=float(last.p_a),
        leakage=float(traj.aux[-1]),
        efficiency=float(last.p_b if p.direction == RIGHT_TO_BATTERY else last.p_a),
    )
    return traj, summary
