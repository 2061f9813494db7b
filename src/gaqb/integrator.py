"""Deterministic time-stepping of the master equation.

The method is classical fixed-step RK4.  After every step the state is
re-Hermitized by averaging with its conjugate transpose, and the trace is
renormalized only if the drift exceeds 1e-12.  Identical inputs produce
bit-identical trajectories.  A batch of time-independent specs is advanced
as one (N,4,4) stack, with the same operations per cell, so batching never
changes a cell's bits.  Snapshots are checked for finiteness and
positivity once, after the run.

An optional scalar integrand (used for leakage bookkeeping in the chiral
protocol) is advanced through the same Runge-Kutta stages as the state, so
it inherits the integrator's order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .liouville import (
    LiouvillianSpec,
    SimulationError,
    make_generator,
    validate_density_matrix,
)

DEFAULT_DT = 0.005  # resolves the fastest rate scales used here with wide margin
MAX_STEPS = 10**7  # a window needing more steps is a configuration error, not a long run
EIG_FLOOR = 1e-6  # a snapshot eigenvalue below -EIG_FLOOR is a positivity failure


class PositivityError(SimulationError):
    """State developed an eigenvalue below the allowed floor."""


class DivergenceError(SimulationError):
    """State developed non-finite entries."""


@dataclass(frozen=True)
class TimeGrid:
    """Integration window and sampling.

    Steps of size ``dt`` (plus one shorter step to land on ``t_end``);
    snapshots are recorded every ``sample_stride`` steps plus the final
    time.  A window needing more than :data:`MAX_STEPS` steps is rejected.
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
        steps = (self.t_end - self.t_start) / self.dt
        if steps > MAX_STEPS:
            raise ValueError(
                f"dt = {self.dt:g} needs {steps:.4g} steps over [{self.t_start:g}, "
                f"{self.t_end:g}]; at most {MAX_STEPS} are allowed"
            )


@dataclass
class ChargingTrajectory:
    """Snapshots of the evolving state plus integrator diagnostics.

    ``states`` is (T,4,4) for a single spec and (N,T,4,4) for a batch of
    N specs, whose ``max_trace_drift`` and ``min_eigenvalue`` are then
    per-cell arrays.  ``aux`` holds the co-integrated scalar (e.g.
    accumulated leakage) at the snapshot times; ``records`` is filled by
    the metrics module.
    """

    times: np.ndarray
    states: np.ndarray
    aux: Optional[np.ndarray] = None
    max_trace_drift: Union[float, np.ndarray] = 0.0
    min_eigenvalue: Union[float, np.ndarray] = 1.0
    step_count: int = 0
    records: list = field(default_factory=list)


def _check_snapshots(times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Per-cell minimum eigenvalue over the snapshots of an (N,T,4,4) stack.

    A failure is reported for the lowest-index failing cell at its earliest
    failing time; the error's ``cell`` attribute holds that index.
    """
    finite = np.isfinite(states).all(axis=(2, 3))
    if finite.all():
        eigs = np.linalg.eigvalsh(states).min(axis=2)
    else:
        eigs = np.full(finite.shape, -np.inf)
        eigs[finite] = np.linalg.eigvalsh(states[finite]).min(axis=1)
    bad = eigs < -EIG_FLOOR
    if bad.any():
        cell = int(bad.any(axis=1).argmax())
        k = int(bad[cell].argmax())
        if not finite[cell, k]:
            err = DivergenceError(f"non-finite state at t = {times[k]:.6g}")
        else:
            err = PositivityError(
                f"positivity violated at t = {times[k]:.6g}: min eigenvalue {eigs[cell, k]:.3e}"
            )
        err.cell = cell
        raise err
    return eigs.min(axis=1)


def evolve(
    spec: Union[LiouvillianSpec, Sequence[LiouvillianSpec]],
    rho0: np.ndarray,
    grid: TimeGrid,
    aux: Optional[Callable[[float, np.ndarray], float]] = None,
    aux0: float = 0.0,
) -> ChargingTrajectory:
    """Integrate the master equation over the grid.

    ``spec`` is one spec, or a sequence of N time-independent bidirectional
    specs integrated as one (N,4,4) stack from the common ``rho0``; every
    cell of the stack gets the bits it would get alone.  ``aux`` needs a
    single spec.

    Raises :class:`PositivityError` if any recorded state has an eigenvalue
    below -1e-6 and :class:`DivergenceError` on non-finite values; both
    errors name the failing time.
    """
    single = isinstance(spec, LiouvillianSpec)
    n_cells = 1 if single else len(spec)
    if aux is not None and not single:
        raise ValueError("aux needs a single spec")
    validate_density_matrix(rho0)
    rho = np.repeat(np.array(rho0, dtype=complex)[None], n_cells, axis=0)
    gen = make_generator(spec)
    acc = aux0
    drift_max = np.zeros(n_cells)

    def rk4_step(t, rho, h):
        """One RK4 step, then re-Hermitization and trace renormalization."""
        nonlocal acc
        k1 = gen(t, rho)
        y2 = rho + (0.5 * h) * k1
        k2 = gen(t + 0.5 * h, y2)
        y3 = rho + (0.5 * h) * k2
        k3 = gen(t + 0.5 * h, y3)
        y4 = rho + h * k3
        k4 = gen(t + h, y4)
        if aux is not None:
            acc += (h / 6.0) * (
                aux(t, rho[0]) + 2.0 * aux(t + 0.5 * h, y2[0])
                + 2.0 * aux(t + 0.5 * h, y3[0]) + aux(t + h, y4[0])
            )
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
        trace = rho.trace(0, 1, 2).real
        drift = np.abs(trace - 1.0)
        np.fmax(drift_max, drift, out=drift_max)
        renorm = drift > 1e-12
        if renorm.any():
            np.divide(rho, trace[:, None, None], out=rho, where=renorm[:, None, None])
        return rho

    span = grid.t_end - grid.t_start
    n_full = int(math.floor(span / grid.dt + 1e-9))
    rem = span - n_full * grid.dt
    if rem < 1e-12 * max(1.0, abs(grid.t_end)):
        rem = 0.0
    # every stride-th full step, except a last one that lands on t_end
    n_snap = 2 + len(range(grid.sample_stride, n_full + (rem > 0.0), grid.sample_stride))
    times = np.empty(n_snap)
    states = np.empty((n_cells, n_snap, 4, 4), dtype=complex)
    aux_vals = np.empty(n_snap) if aux is not None else None
    k = 0

    def record(t, rho):
        nonlocal k
        times[k] = t
        states[:, k] = rho
        if aux_vals is not None:
            aux_vals[k] = acc
        k += 1

    record(grid.t_start, rho)
    t = grid.t_start
    # a cell that blows up keeps stepping quietly; the snapshot check names it
    with np.errstate(all="ignore"):
        for i in range(n_full):
            rho = rk4_step(t, rho, grid.dt)
            t = grid.t_start + (i + 1) * grid.dt
            is_last = i + 1 == n_full and rem == 0.0
            if (i + 1) % grid.sample_stride == 0 and not is_last:
                record(t, rho)
        if rem > 0.0:
            rho = rk4_step(t, rho, rem)
    record(grid.t_end, rho)

    min_eig = _check_snapshots(times, states)
    if single:
        states, drift_max, min_eig = states[0], float(drift_max[0]), float(min_eig[0])
    return ChargingTrajectory(
        times=times,
        states=states,
        aux=aux_vals,
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
