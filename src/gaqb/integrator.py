"""Deterministic fixed-step RK4 for the master equation.

Identical inputs produce bit-identical trajectories, and the trace is
renormalized only if its drift exceeds 1e-12.  One march serves a single
spec and a batch of N specs of either kind: an (N, m) batch of real
Hermitian coordinates, the |Delta n| blocks the initial state fills plus
the emitted energy, so it stays Hermitian with no re-Hermitization.  Each
step is v + D v with a real RK4 increment map D: one per step size for
time-independent specs, :data:`CHUNK` steps' maps at a time otherwise.  A
time-independent run sampled at every step jumps instead: up to
:data:`JUMP` full steps from x are one product, x + E_j x with
E_j = (I + D)^j - I.  Every cell sees the same operations, so it gets the
same bits in any batch.  Snapshots are checked for finiteness and
positivity once, after the run.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Sequence, Union

import numpy as np

from .liouville import (
    EIG_TOL,
    LiouvillianSpec,
    SimulationError,
    block_basis,
    coordinates,
    density_matrices,
    lower_eigenvalue,
    make_generator,
    validate_density_matrix,
)

DEFAULT_DT = 0.005  # resolves the fastest rate scales used here with wide margin
MAX_STEPS = 10**7  # a window needing more steps is a configuration error, not a long run
CHUNK = 256  # steps per march block; time-dependent maps come a block at once: (N,256,m,m), 592 kB a cell at m = 17
JUMP = 64  # full steps per product in a stride-1 time-independent run: (64,N,m,m) powers, 148 kB a cell at m = 17


class PositivityError(SimulationError):
    """State developed an eigenvalue below the allowed floor."""


class DivergenceError(SimulationError):
    """State developed non-finite entries."""


@dataclass(frozen=True)
class TimeGrid:
    """Integration window [0, t_end] and sampling.

    Steps of size ``dt`` (plus one shorter step to land on ``t_end``);
    snapshots are recorded every ``sample_stride`` steps plus the final
    time.  A window needing more than :data:`MAX_STEPS` steps is rejected.
    """

    t_end: float
    dt: float = DEFAULT_DT
    sample_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (isinstance(self.sample_stride, numbers.Integral) and self.sample_stride >= 1):
            raise ValueError(f"sample_stride must be an integer >= 1, got {self.sample_stride!r}")
        steps = self.t_end / self.dt
        if steps > MAX_STEPS:
            raise ValueError(
                f"dt = {self.dt:g} needs {steps:.4g} steps over [0, {self.t_end:g}]; "
                f"at most {MAX_STEPS} are allowed"
            )


@dataclass
class ChargingTrajectory:
    """Snapshots of the evolving state plus integrator diagnostics.

    ``coordinates`` is (T,17) for a single spec and (N,T,17) for a batch of
    N specs, whose ``max_trace_drift``, ``min_eigenvalue`` and
    ``renormalizations`` (the number of renormalized steps) are then
    per-cell arrays: the real coordinates of rho, then the energy emitted
    into the waveguide by each snapshot time, which ``aux`` reads.
    """

    times: np.ndarray
    coordinates: np.ndarray
    max_trace_drift: Union[float, np.ndarray] = 0.0
    min_eigenvalue: Union[float, np.ndarray] = 1.0
    step_count: int = 0
    renormalizations: Union[int, np.ndarray] = 0

    @property
    def aux(self) -> np.ndarray:
        return self.coordinates[..., 16]


def _check_snapshots(times: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Per-cell minimum eigenvalue of the states of (N,T,17) snapshot coordinates.

    ``m`` is the march's block size: at 7, the Delta n = 0 block, a state is
    rho_00 (+) its {ge, eg} 2x2 block (+) rho_33, read in closed form; a
    fuller state goes through ``eigvalsh``.  A non-finite state counts as
    -inf.  A failure is reported for the lowest-index failing cell at its
    earliest failing time; the error's ``cell`` attribute holds that index.
    """
    finite = np.isfinite(x[..., :16]).all(axis=2)
    if m == 7:
        with np.errstate(all="ignore"):  # a non-finite state reads -inf below
            lower = lower_eigenvalue(x[..., 1], x[..., 2], np.hypot(x[..., 10], x[..., 11]))
            eigs = np.minimum(np.minimum(x[..., 0], x[..., 3]), lower)
    else:
        states = density_matrices(np.where(finite[..., None], x[..., :16], 0.0))
        eigs = np.linalg.eigvalsh(states).min(axis=2)
    eigs = np.where(finite, eigs, -np.inf)
    bad = eigs < -EIG_TOL  # a positivity failure, as for an input state
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


def _march(specs, rho0, aux0, grid, n_full, rem, snaps):
    """RK4 on an (N, m) batch of block coordinates, CHUNK steps per block.

    Every cell starts from (coordinates of rho0, aux0) and marches the m
    coordinates of :func:`block_basis`: 7 from |eg>, 17 from a full-rank
    state.  A step's increment map D = h/6 (L1 + 2 A2 + 2 A3 + A4) is built
    from the generators at the stage times t, t + h/2, t + h:
    A2 = L2 (I + h/2 L1), A3 = L2 (I + h/2 A2) and A4 = L4 (I + h A3).  A
    time-independent batch has one per step size, a time-dependent one
    CHUNK steps' at a time.  Each step is v + D v, except in a
    time-independent batch sampled at every step: there the powers
    E_1 = D, E_{j+1} = (E_j + D) + D E_j are built once for j <= JUMP, and
    each stretch of up to JUMP full steps from x is x + E_j x in one
    product.  After a block, the trace drift of every step and cell is
    checked at once; a cell whose drift exceeds 1e-12 is stepped again
    from its first such step one step at a time with D, renormalizing each
    drifting step, so its bits do not depend on its neighbours and a block
    costs at most twice its steps.  Returns the (N,T,17) snapshot
    coordinates, the emitted energy last, the per-cell maximum trace drift
    (NaN drifts skipped) and count of renormalized steps, and m.
    """
    x0 = coordinates(rho0)
    idx, basis = block_basis(x0)
    n, cells, m = snaps[-1], len(specs), len(idx)
    coefficients = make_generator(specs)

    def maps(i):  # the increment maps of steps i, (len(i), N, m, m)
        t, h = i * grid.dt, np.where(i < n_full, grid.dt, rem)
        L = (coefficients(np.stack([t, t + 0.5 * h, t + h])) @ basis).reshape(cells, 3, len(i), m, m)
        L1, L2, L4 = L.swapaxes(0, 1)
        h = h[:, None, None]
        A2 = L2 + (L2 @ L1) * (0.5 * h)
        A3 = L2 + (L2 @ A2) * (0.5 * h)
        A4 = L4 + (L4 @ A3) * h
        return (((A2 + A3) * 2.0 + L1 + A4) * (h / 6.0)).swapaxes(0, 1)

    E = None  # a stride-1 time-independent run's power maps E_1..E_JUMP
    if any(callable(spec.params) for spec in specs):
        steps = chain.from_iterable(maps(np.arange(s, min(s + CHUNK, n))) for s in range(0, n, CHUNK))
    else:
        D = maps(np.array([0, n_full]))  # the maps of a step of dt and of rem
        steps = chain(repeat(D[0], n_full), D[1:n + 1 - n_full])
        if grid.sample_stride == 1:
            E = np.empty((JUMP, cells, m, m))
            E[0] = D[0]
            for j in range(1, JUMP):  # E_{j+1} = (E_j + D) + D E_j, with no I
                np.add(E[j - 1] + D[0], D[0] @ E[j - 1], out=E[j])

    def trace(p):  # of the states in p's leading rows, in a fixed order, unlike .sum()
        p = p[..., :4, 0]
        return ((p[..., 0] + p[..., 1]) + p[..., 2]) + p[..., 3]

    buf = np.empty((CHUNK + 1, cells, m, 1))  # a block's start state, then its steps
    buf[0] = np.append(x0, aux0)[idx, None]
    rows = list(buf)
    full = np.zeros((cells, len(snaps), 17))
    full[:, 0, idx] = buf[0, ..., 0]
    drift_max, renorms, snaps = np.zeros(cells), np.zeros(cells, dtype=int), np.array(snaps)
    for s in range(0, n, CHUNK):
        ds = list(islice(steps, CHUNK))
        k = len(ds)
        a = 0 if E is None else min(k, max(n_full - s, 0))  # full steps jumped, buf[0] to buf[a]
        for b in range(0, a, JUMP):
            j = min(JUMP, a - b)
            np.add(buf[b], E[:j] @ buf[b], out=buf[b + 1:b + 1 + j])
        for x, y, d in zip(rows[a:], rows[a + 1:k + 1], ds[a:]):
            np.add(x, d @ x, out=y)
        tr = trace(buf[1:k + 1])
        drift = np.abs(tr - 1.0)
        over = drift > 1e-12
        first = np.where(over.any(axis=0), over.argmax(axis=0), k)  # each cell's first drifting step
        for i in range(first.min(), k):  # from there on, each cell one step at a time
            late = first < i
            if late.any():
                np.copyto(rows[i + 1], np.add(rows[i], ds[i] @ rows[i]), where=late[:, None, None])
                tr[i] = trace(buf[i + 1])
                drift[i] = np.abs(tr[i] - 1.0)
            hit = drift[i] > 1e-12
            buf[i + 1, hit, :-1] /= tr[i, hit, None, None]
            renorms += hit
        drift_max = np.fmax(drift_max, np.fmax.reduce(drift))  # a NaN drift is skipped
        lo, hi = snaps.searchsorted([s, s + k], side="right")
        full[:, lo:hi, idx] = buf[snaps[lo:hi] - s, ..., 0].swapaxes(0, 1)
        buf[0] = buf[k]
    full[:, -1, idx] = buf[0, ..., 0]  # the last block wrote it, unless the window takes no step
    return full, drift_max, renorms, m


def evolve(
    spec: Union[LiouvillianSpec, Sequence[LiouvillianSpec]],
    rho0: np.ndarray,
    grid: TimeGrid,
    aux: None = None,
    aux0: float = 0.0,
) -> ChargingTrajectory:
    """Integrate the master equation over the grid.

    ``spec`` is one spec, or a sequence of N specs integrated as one batch
    from the common ``rho0``; a cell gets the same bits in any batch, a
    single spec included.  Each cell also integrates the energy it emits
    into the waveguide, Tr[L^dag L rho] for a cascaded spec, into
    ``traj.aux``, starting from ``aux0``.  ``aux`` takes no value but None:
    there is no co-integrated callback.

    Raises :class:`PositivityError` if any recorded state has an eigenvalue
    below -1e-6 and :class:`DivergenceError` on non-finite values; both
    errors name the failing time.
    """
    single = isinstance(spec, LiouvillianSpec)
    if aux is not None:
        raise ValueError("evolve co-integrates no aux callback; pass aux=None")
    validate_density_matrix(rho0)

    n_full = int(math.floor(grid.t_end / grid.dt + 1e-9))
    rem = grid.t_end - n_full * grid.dt
    if rem < 1e-12 * max(1.0, grid.t_end):
        rem = 0.0
    n_steps = n_full + (rem > 0.0)
    # snapshot after these steps: every stride-th, and the last one on t_end
    snaps = [0, *range(grid.sample_stride, n_steps, grid.sample_stride), n_steps]
    times = np.array(snaps) * grid.dt
    times[-1] = grid.t_end
    # a state that blows up keeps stepping quietly; the snapshot check names it
    with np.errstate(all="ignore"):
        full, drift_max, renorms, m = _march([spec] if single else spec, rho0, aux0, grid, n_full, rem, snaps)
    min_eig = _check_snapshots(times, full, m)
    if single:
        full, drift_max, min_eig, renorms = full[0], float(drift_max[0]), float(min_eig[0]), int(renorms[0])
    return ChargingTrajectory(times=times, coordinates=full, max_trace_drift=drift_max,
                              min_eigenvalue=min_eig, step_count=n_steps, renormalizations=renorms)
