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
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import CouplingParams
from .integrator import ChargingTrajectory, TimeGrid, evolve
from .liouville import (
    CASCADED_LEFT,
    CASCADED_RIGHT,
    LiouvillianSpec,
    jump_operator,  # noqa: F401 -- perfbench/tracer.py times gaqb.chiral.jump_operator
    projector,
)
from .metrics import (
    charger_population,
    compute_records,  # noqa: F401 -- perfbench/tracer.py times gaqb.chiral.compute_records
    partial_trace_battery,
)

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
        if not self.gamma_max > 0.0:
            raise ValueError(f"gamma_max must be positive, got {self.gamma_max}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
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


def default_stride(t_end: float, dt: float) -> int:
    """Snapshot stride giving about 600 snapshots over [0, t_end]."""
    return max(1, round(t_end / dt / 600))


def default_grid(p: ChiralProtocol, dt: float = 0.005) -> TimeGrid:
    """Window [0, 3 tau] with the stride of :func:`default_stride`."""
    t_end = 3.0 * p.tau
    return TimeGrid(0.0, t_end, dt=dt, sample_stride=default_stride(t_end, dt))


def run_transfer(
    p: ChiralProtocol,
    rho0: Optional[np.ndarray] = None,
    grid: Optional[TimeGrid] = None,
) -> Tuple[ChargingTrajectory, TransferSummary]:
    """Evolve the cascaded master equation and track the leaked excitation.

    Leakage accumulates the photon flux past the absorber,
    integral of Tr[L rho L^dag] dt, which :func:`evolve` integrates as the
    17th component of the cascaded state.  The default initial state puts the
    excitation on the sending atom for the chosen direction.  Integration
    is split at t = tau so the rate profiles' slope kink lands exactly on
    a step boundary.
    """
    if rho0 is None:
        rho0 = projector("eg" if p.direction == RIGHT_TO_BATTERY else "ge")
    if grid is None:
        grid = default_grid(p)
    spec = chiral_spec(p)
    edges = [grid.t_start, *([p.tau] if grid.t_start < p.tau < grid.t_end else []), grid.t_end]
    pieces = []
    rho, acc = rho0, 0.0
    for t0, t1 in zip(edges, edges[1:]):
        # step size adjusted per piece so the boundary is hit exactly
        n = max(1, round((t1 - t0) / grid.dt))
        piece_grid = TimeGrid(t0, t1, dt=(t1 - t0) / n, sample_stride=grid.sample_stride)
        pieces.append(evolve(spec, rho, piece_grid, aux0=acc))
        rho, acc = pieces[-1].states[-1], float(pieces[-1].aux[-1])

    def joined(name):
        # each later piece starts at the snapshot its predecessor ended on
        return np.concatenate([getattr(q, name)[int(i > 0):] for i, q in enumerate(pieces)])

    out = ChargingTrajectory(
        times=joined("times"),
        states=joined("states"),
        aux=joined("aux"),
        max_trace_drift=max(q.max_trace_drift for q in pieces),
        min_eigenvalue=min(q.min_eigenvalue for q in pieces),
        step_count=sum(q.step_count for q in pieces),
    )
    p_b, p_a = partial_trace_battery(rho).p, charger_population(rho)
    summary = TransferSummary(
        final_battery_energy=p_b,
        final_charger_energy=p_a,
        leakage=acc,
        efficiency=p_b if p.direction == RIGHT_TO_BATTERY else p_a,
    )
    return out, summary
