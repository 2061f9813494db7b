"""Deterministic time-stepping of the master equation.

The method is classical fixed-step RK4.  After every step the state is
re-Hermitized by averaging with its conjugate transpose, and the trace is
renormalized only if the drift exceeds 1e-12.  Identical inputs produce bit-identical trajectories.

An optional scalar integrand (used for leakage bookkeeping in the chiral
protocol) is advanced through the same Runge-Kutta stages as the state, so
it inherits the integrator's order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .liouville import (
    LiouvillianSpec,
    SimulationError,
    make_generator,
    validate_density_matrix,
)

DEFAULT_DT = 0.005  # resolves the fastest rate scales used here with wide margin


class PositivityError(SimulationError):
    """State developed an eigenvalue below the allowed floor."""


class DivergenceError(SimulationError):
    """State developed non-finite entries."""


@dataclass(frozen=True)
class TimeGrid:
    """Integration window and sampling.

    Steps of size ``dt`` (plus one shorter step to land on ``t_end``);
    snapshots are recorded every ``sample_stride`` steps plus the final
    time.
    """

    t_start: float
    t_end: float
    dt: float = DEFAULT_DT
    sample_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("time window must be finite")
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")


@dataclass
class ChargingTrajectory:
    """Snapshots of the evolving state plus integrator diagnostics.

    ``aux`` holds the co-integrated scalar (e.g. accumulated leakage) at
    the snapshot times; ``records`` is filled by the metrics module.
    """

    times: np.ndarray
    states: np.ndarray  # (n, 4, 4) complex
    aux: Optional[np.ndarray] = None
    max_trace_drift: float = 0.0
    min_eigenvalue: float = 1.0
    step_count: int = 0
    records: list = field(default_factory=list)


def _check_snapshot(rho: np.ndarray, t: float, eig_floor: float = 1e-6) -> float:
    if not np.isfinite(rho).all():
        raise DivergenceError(f"non-finite state at t = {t:.6g}")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -eig_floor:
        raise PositivityError(
            f"positivity violated at t = {t:.6g}: min eigenvalue {min_eig:.3e}"
        )
    return min_eig


def evolve(
    spec: LiouvillianSpec,
    rho0: np.ndarray,
    grid: TimeGrid,
    aux: Optional[Callable[[float, np.ndarray], float]] = None,
    aux0: float = 0.0,
) -> ChargingTrajectory:
    """Integrate the master equation over the grid.

    Raises :class:`PositivityError` if any recorded state has an eigenvalue
    below -1e-6 and :class:`DivergenceError` on non-finite values; both
    errors name the failing time.
    """
    validate_density_matrix(rho0)
    rho = np.array(rho0, dtype=complex)
    gen = make_generator(spec)
    acc = aux0
    drift_max = 0.0

    def rk4_step(t, rho, h):
        """One RK4 step, then re-Hermitization and trace renormalization."""
        nonlocal acc, drift_max
        k1 = gen(t, rho)
        y2 = rho + (0.5 * h) * k1
        k2 = gen(t + 0.5 * h, y2)
        y3 = rho + (0.5 * h) * k2
        k3 = gen(t + 0.5 * h, y3)
        y4 = rho + h * k3
        k4 = gen(t + h, y4)
        if aux is not None:
            acc += (h / 6.0) * (
                aux(t, rho) + 2.0 * aux(t + 0.5 * h, y2) + 2.0 * aux(t + 0.5 * h, y3)
                + aux(t + h, y4)
            )
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        drift = abs(rho.trace().real - 1.0)
        drift_max = max(drift_max, drift)
        if drift > 1e-12:
            rho = rho / rho.trace().real
        return rho

    times = [grid.t_start]
    states = [rho.copy()]
    aux_vals = [aux0] if aux is not None else None
    min_eig = _check_snapshot(rho, grid.t_start)

    def record(t, rho):
        nonlocal min_eig
        times.append(t)
        states.append(rho.copy())
        if aux_vals is not None:
            aux_vals.append(acc)
        min_eig = min(min_eig, _check_snapshot(rho, t))

    span = grid.t_end - grid.t_start
    n_full = int(math.floor(span / grid.dt + 1e-9))
    rem = span - n_full * grid.dt
    if rem < 1e-12 * max(1.0, abs(grid.t_end)):
        rem = 0.0
    t = grid.t_start
    for i in range(n_full):
        rho = rk4_step(t, rho, grid.dt)
        t = grid.t_start + (i + 1) * grid.dt
        is_last = i + 1 == n_full and rem == 0.0
        if (i + 1) % grid.sample_stride == 0 and not is_last:
            record(t, rho)
    if rem > 0.0:
        rho = rk4_step(t, rho, rem)
    record(grid.t_end, rho)

    return ChargingTrajectory(
        times=np.array(times),
        states=np.array(states),
        aux=np.array(aux_vals) if aux_vals is not None else None,
        max_trace_drift=drift_max,
        min_eigenvalue=min_eig,
        step_count=n_full + int(rem > 0.0),
    )


def convergence_order(
    spec: LiouvillianSpec,
    rho0: np.ndarray,
    t_end: float,
    dt: float = 0.1,
) -> float:
    """Empirical Richardson order of the fixed-step method.

    Integrates to ``t_end`` at dt, dt/2 and dt/4 and returns
    log2(|rho_dt - rho_dt/2| / |rho_dt/2 - rho_dt/4|) measured in the max
    norm of the final states.
    """
    finals = []
    for k in range(3):
        grid = TimeGrid(0.0, t_end, dt=dt / (2**k), sample_stride=10**9)
        finals.append(evolve(spec, rho0, grid).states[-1])
    e1 = float(np.abs(finals[0] - finals[1]).max())
    e2 = float(np.abs(finals[1] - finals[2]).max())
    if e2 == 0.0:
        return float("inf")
    return math.log2(e1 / e2)
