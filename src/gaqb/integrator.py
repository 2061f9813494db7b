"""Deterministic fixed-step RK4 for the master equation.

Identical inputs produce bit-identical trajectories, and the trace is
renormalized only if its drift exceeds 1e-12.  A single spec, of either
kind, is marched in real Hermitian coordinates with the emitted energy as
a 17th component, so it stays Hermitian with no re-Hermitization: each
step is v + D v with a real RK4 increment map D: one per step size for a
time-independent spec, :data:`CHUNK` steps' maps at a time otherwise.  A
batch of time-independent bidirectional specs is advanced as one (N,4,4)
stack, re-Hermitized after every step, with the same operations per
cell, so a cell gets the same bits in any batch, batch of one included.
Snapshots are checked for finiteness and positivity once, after the run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence, Union

import numpy as np

from .liouville import (
    LiouvillianSpec,
    SimulationError,
    coordinates,
    density_matrices,
    generators,
    make_generator,
    validate_density_matrix,
)

DEFAULT_DT = 0.005  # resolves the fastest rate scales used here with wide margin
MAX_STEPS = 10**7  # a window needing more steps is a configuration error, not a long run
EIG_FLOOR = 1e-6  # a snapshot eigenvalue below -EIG_FLOOR is a positivity failure
CHUNK = 64  # time-dependent steps whose RK4 increments are built at once: a real (64,17,17) stack, 148 kB


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
    per-cell arrays.  For a single spec ``aux`` holds the energy emitted
    into the waveguide by each snapshot time; for a batch it is None.
    """

    times: np.ndarray
    states: np.ndarray
    aux: Optional[np.ndarray] = None
    max_trace_drift: Union[float, np.ndarray] = 0.0
    min_eigenvalue: Union[float, np.ndarray] = 1.0
    step_count: int = 0


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


def _march_stack(gen, rho, grid, n_full, rem, snaps):
    """RK4 on an (N,4,4) stack of states under the rhs ``gen``.

    Each step is re-Hermitized and its trace renormalized.  Returns the
    (N,T,4,4) snapshots and the per-cell maximum trace drift.
    """
    drift_max = np.zeros(len(rho))
    states = np.empty((len(rho), len(snaps), 4, 4), dtype=complex)
    states[:, 0] = rho
    k = 1
    for i in range(snaps[-1]):
        t, h = grid.t_start + i * grid.dt, grid.dt if i < n_full else rem
        k1 = gen(t, rho)
        k2 = gen(t + 0.5 * h, rho + (0.5 * h) * k1)
        k3 = gen(t + 0.5 * h, rho + (0.5 * h) * k2)
        k4 = gen(t + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
        trace = rho.trace(0, 1, 2).real
        drift = np.abs(trace - 1.0)
        np.fmax(drift_max, drift, out=drift_max)
        renorm = drift > 1e-12
        if renorm.any():
            np.divide(rho, trace[:, None, None], out=rho, where=renorm[:, None, None])
        if i + 1 == snaps[k]:
            states[:, k] = rho
            k += 1
    # a window too short for any step still ends in a snapshot
    states[:, -1] = rho
    return states, drift_max


def _stage(L, A, c):
    """L (I + c A), formed in place: temporaries of a chunk's size are slow to allocate."""
    out = L @ A
    return np.add(np.multiply(out, c, out=out), L, out=out)


def _march_single(spec, rho0, aux0, grid, n_full, rem, snaps):
    """RK4 on (real coordinates of rho, emitted energy), one matvec per step.

    A step's increment map D = h/6 (L1 + 2 A2 + 2 A3 + A4) is built from the
    generators at the stage times t, t + h/2, t + h: A2 = L2 (I + h/2 L1),
    A3 = L2 (I + h/2 A2) and A4 = L4 (I + h A3); a time-independent spec has
    one per step size, a time-dependent one CHUNK at a time.  Each step is
    v + D v, and only the trace is renormalized.  Returns the (1,T,4,4)
    snapshots, the (T,) emitted energy and the maximum trace drift.
    """
    def maps(i):  # the increment maps of steps i
        t, h = grid.t_start + i * grid.dt, np.where(i < n_full, grid.dt, rem)
        L1, L2, L4 = generators(spec, np.stack([t, t + 0.5 * h, t + h]))
        h = h[:, None, None]
        A2 = _stage(L2, L1, 0.5 * h)
        A3 = _stage(L2, A2, 0.5 * h)
        A4 = _stage(L4, A3, h)
        incs = A2  # h/6 (L1 + 2 A2 + 2 A3 + A4), built in place
        incs += A3
        incs *= 2.0
        incs += L1
        incs += A4
        incs *= h / 6.0
        return incs

    n = snaps[-1]
    if callable(spec.params):
        steps = chain.from_iterable(maps(np.arange(s, min(s + CHUNK, n))) for s in range(0, n, CHUNK))
    else:
        D = maps(np.array([0, n_full]))  # the maps of a step of dt and of rem
        steps = chain(repeat(D[0], n_full), D[1:n + 1 - n_full])
    v = np.append(coordinates(rho0), aux0)
    out = np.empty((len(snaps), 17))
    out[0] = v
    drift_max, k = 0.0, 1
    for step, d in enumerate(steps, 1):
        v += d @ v
        trace = sum(v[:4].tolist())
        drift = abs(trace - 1.0)
        drift_max = max(drift_max, drift)
        if drift > 1e-12:
            v[:16] /= trace
        if step == snaps[k]:
            out[k] = v
            k += 1
    out[-1] = v
    # the flux is copied out, so the (T,17) array is freed before the snapshot check
    return density_matrices(out[None, :, :16]), out[:, 16].copy(), np.array([drift_max])


def evolve(
    spec: Union[LiouvillianSpec, Sequence[LiouvillianSpec]],
    rho0: np.ndarray,
    grid: TimeGrid,
    aux: None = None,
    aux0: float = 0.0,
) -> ChargingTrajectory:
    """Integrate the master equation over the grid.

    ``spec`` is one spec, or a sequence of N time-independent bidirectional
    specs integrated as one (N,4,4) stack from the common ``rho0``; a cell
    gets the same bits in any batch, batch of one included.  A single spec
    is marched in real coordinates and integrates the energy it emits into
    the waveguide, Tr[L^dag L rho] for a cascaded spec, into ``traj.aux``,
    starting from ``aux0``.  ``aux`` takes no value but None: there is no
    co-integrated callback.

    Raises :class:`PositivityError` if any recorded state has an eigenvalue
    below -1e-6 and :class:`DivergenceError` on non-finite values; both
    errors name the failing time.
    """
    single = isinstance(spec, LiouvillianSpec)
    if aux is not None:
        raise ValueError("evolve co-integrates no aux callback; pass aux=None")
    validate_density_matrix(rho0)

    span = grid.t_end - grid.t_start
    n_full = int(math.floor(span / grid.dt + 1e-9))
    rem = span - n_full * grid.dt
    if rem < 1e-12 * max(1.0, abs(grid.t_end)):
        rem = 0.0
    n_steps = n_full + (rem > 0.0)
    # snapshot after these steps: every stride-th, and the last one on t_end
    snaps = [0, *range(grid.sample_stride, n_steps, grid.sample_stride), n_steps]
    times = grid.t_start + np.array(snaps) * grid.dt
    times[-1] = grid.t_end
    # a state that blows up keeps stepping quietly; the snapshot check names it
    with np.errstate(all="ignore"):
        if single:
            states, aux_vals, drift_max = _march_single(spec, rho0, aux0, grid, n_full, rem, snaps)
        else:
            rho = np.repeat(np.array(rho0, dtype=complex)[None], len(spec), axis=0)
            states, drift_max = _march_stack(make_generator(spec), rho, grid, n_full, rem, snaps)
            aux_vals = None

    min_eig = _check_snapshots(times, states)
    if single:
        states, drift_max, min_eig = states[0], float(drift_max[0]), float(min_eig[0])
    return ChargingTrajectory(
        times=times,
        states=states,
        aux=aux_vals,
        max_trace_drift=drift_max,
        min_eigenvalue=min_eig,
        step_count=n_steps,
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
