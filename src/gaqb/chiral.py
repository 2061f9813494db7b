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

from .geometry import CouplingParams, check_theta
from .integrator import DEFAULT_DT, MAX_STEPS, ChargingTrajectory, TimeGrid, evolve
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
        for name, value in (("gamma_max", self.gamma_max), ("tau", self.tau)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        check_theta(self.theta)
        if abs(math.sin(self.theta)) < 1e-12:
            raise ValueError("sin(theta) = 0 decouples both atoms; pick another phase")
        if self.direction not in (RIGHT_TO_BATTERY, LEFT_TO_CHARGER):
            raise ValueError(f"unknown direction {self.direction!r}")


def rate_profile(t, gamma_max: float, tau: float):
    """Pitch-rate function: exponential rise saturating at gamma_max for t >= tau.

    ``t`` may be an array of times; the exponent is capped at 0, so no time
    overflows.
    """
    x = np.exp(gamma_max * (np.minimum(t, tau) - tau))
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


def default_grid(p: ChiralProtocol, dt: float = DEFAULT_DT, t_end: Optional[float] = None,
                 sample_stride: Optional[int] = None) -> TimeGrid:
    """The grid a run of ``p`` steps: the one home of its window, step, budget and stride.

    In this order: the window [0, t_end], by default [0, 3 tau]; :class:`TimeGrid`'s
    checks at ``dt``; the step edge / ceil(edge / dt - 1e-9), with ``edge`` = tau if
    tau lies inside the window and t_end otherwise, at most ``dt * (1 + 1e-9)``; the
    budget at that step; and only then the stride, by default ~600 snapshots.
    """
    if t_end is None and not math.isfinite(3.0 * p.tau):
        raise ValueError(f"the window [0, 3 tau] is not finite at tau = tau_scaled / gamma_max = {p.tau:g}")
    grid = TimeGrid(3.0 * p.tau if t_end is None else t_end, dt=dt)
    edge = min(p.tau, grid.t_end)
    # evolve's own slack, floor(t_end / dt + 1e-9), so a whole count stays whole
    step = edge / max(1, math.ceil(edge / dt - 1e-9))
    try:
        grid = replace(grid, dt=step)
    except ValueError as err:  # the budget at the step: the value it refuses is tau's, not dt's
        raise ValueError(f"the step {step:g} that lands on tau = tau_scaled / gamma_max = {p.tau:g} "
                         f"needs {grid.t_end / step:.4g} steps over [0, {grid.t_end:g}]; "
                         f"at most {MAX_STEPS} are allowed") from err
    stride = max(1, round(grid.t_end / step / 600)) if sample_stride is None else sample_stride
    return replace(grid, sample_stride=stride)


def run_transfer(
    p: ChiralProtocol,
    rho0: Optional[np.ndarray] = None,
    dt: float = DEFAULT_DT,
    t_end: Optional[float] = None,
    sample_stride: Optional[int] = None,
) -> Tuple[ChargingTrajectory, TransferSummary]:
    """Evolve the cascaded master equation and track the leaked excitation.

    Leakage accumulates the photon flux past the absorber,
    integral of Tr[L rho L^dag] dt, which :func:`evolve` integrates with
    the state into ``traj.aux``.  The default initial state puts the
    excitation on the sending atom for the chosen direction.  The run is
    one :func:`evolve` call on the grid of :func:`default_grid`, whose step
    lands the rate profiles' slope kink at t = tau on a step boundary; the
    rest of the window keeps that step, plus :class:`TimeGrid`'s short last one.
    """
    if rho0 is None:
        rho0 = projector("eg" if p.direction == RIGHT_TO_BATTERY else "ge")
    traj = evolve(chiral_spec(p), rho0, default_grid(p, dt, t_end, sample_stride))
    last = compute_records(traj)[-1]
    summary = TransferSummary(
        final_battery_energy=float(last.p_b),
        final_charger_energy=float(last.p_a),
        leakage=float(traj.aux[-1]),
        efficiency=float(last.p_b if p.direction == RIGHT_TO_BATTERY else last.p_a),
    )
    return traj, summary
