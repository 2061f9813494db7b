import math
from dataclasses import dataclass

import numpy as np
import pytest

from gaqb.chiral import ChiralProtocol, default_grid, run_transfer
from gaqb.cli import RunConfig, run_sweep
from gaqb.geometry import CouplingLayout, closed_form_params
from gaqb.integrator import TimeGrid, evolve
from gaqb.liouville import (
    BIDIRECTIONAL,
    CASCADED_RIGHT,
    EXCHANGE,
    EXCHANGE_CHIRAL,
    NUMBER_A,
    NUMBER_B,
    SIGMA_MINUS_A,
    SIGMA_MINUS_B,
    LiouvillianSpec,
    coordinates,
    cross_dissipator,
    dissipator,
    jump_operator,
)


@pytest.fixture(scope="session")
def sweep():
    """Cached theta x t sweeps per topology (the expensive shared inputs)."""
    cache = {}

    def get(topology):
        if topology not in cache:
            cfg = RunConfig(topology=topology, dt=0.04, sample_stride=5, theta_steps=201)
            cache[topology] = run_sweep(cfg)
        return cache[topology]

    return get


@pytest.fixture(scope="session")
def chiral_forward():
    """Reference pitch-catch run at Gamma_max * tau = 10."""
    p = ChiralProtocol(gamma_max=0.1, tau=100.0)
    traj, summary = run_transfer(p, grid=default_grid(p, dt=0.02))
    return p, traj, summary


def spec_for(topo, theta, gamma=0.1):
    """Bidirectional spec of a topology at phase theta, closed-form coefficients."""
    return LiouvillianSpec(closed_form_params(CouplingLayout(topo, theta, gamma)))


def effective_hamiltonian(spec, t=0.0):
    """Coherent part of the generator at time t (exactly Hermitian).

    Bidirectional: sum_j delta_j n_j + g_ab (sigma_a^+ sigma_b^- + h.c.).
    Cascaded: sum_j delta_j n_j +/- |g_ab| * i(sigma_a^+ sigma_b^- - h.c.),
    '+' when atom a is upstream (right-passing), '-' when atom b is.
    """
    p = spec.params_at(t)
    H = p.delta_a * NUMBER_A + p.delta_b * NUMBER_B
    if spec.dissipator_kind == BIDIRECTIONAL:
        return H + p.g_ab * EXCHANGE
    sign = 1.0 if spec.dissipator_kind == CASCADED_RIGHT else -1.0
    return H + sign * abs(p.g_ab) * EXCHANGE_CHIRAL


def textbook_rhs(spec, t, rho):
    """drho/dt and the emitted-energy rate Tr[L^dag L rho] at time t,
    composed as the master equation is written: the commutator with H, and
    dissipator and cross_dissipator terms (the jump operator for a
    cascaded spec)."""
    H = effective_hamiltonian(spec, t)
    p = spec.params_at(t)
    if spec.dissipator_kind == BIDIRECTIONAL:
        sa, sb = SIGMA_MINUS_A, SIGMA_MINUS_B
        jumps = (p.Gamma_a * dissipator(sa, rho) + p.Gamma_b * dissipator(sb, rho)
                 + p.Gamma_coll * cross_dissipator(sa, sb, rho))
        loss = p.Gamma_a * NUMBER_A + p.Gamma_b * NUMBER_B + p.Gamma_coll * EXCHANGE
    else:
        L = jump_operator(p, spec.dissipator_kind)
        jumps, loss = dissipator(L, rho), L.conj().T @ L
    return -1j * (H @ rho - rho @ H) + jumps, np.trace(loss @ rho).real


# |Delta n| of each real coordinate of rho (the populations, then Re and Im
# of rho_ij for i < j): the change of excitation number, 0, 1, 1, 2 in
# gg, ge, eg, ee, across the entry
_EXCITATIONS = (0, 1, 1, 2)
_PAIR_DELTA_N = [abs(_EXCITATIONS[j] - _EXCITATIONS[i]) for i, j in zip(*np.triu_indices(4, 1))]
DELTA_N = np.array([0, 0, 0, 0, *np.repeat(_PAIR_DELTA_N, 2)])


def moving_coordinates(rho):
    """Indices of the |Delta n| blocks where rho has a nonzero entry, then
    the flux (16): the coordinates an excitation-conserving generator moves."""
    x = coordinates(rho)
    return np.append(np.flatnonzero(np.isin(DELTA_N, DELTA_N[x != 0])), 16)


def random_density(rng, pure=False):
    """Random valid 4x4 density matrix."""
    if pure:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / rho.trace().real


# the eigen-path oracle of compute_records: per-state functions on 4x4
# states, by partial trace and a 2x2 eigvalsh


@dataclass(frozen=True)
class BatteryState:
    """Reduced 2x2 state of the battery atom.

    ``p`` is the excited-state population, ``c`` the coherence <e|rho_B|g>.
    """

    rho: np.ndarray
    p: float
    c: complex


def partial_trace_battery(rho):
    """Trace out the charger: sum of the two diagonal 2x2 blocks."""
    rho = np.asarray(rho)
    rb = rho[0:2, 0:2] + rho[2:4, 2:4]
    return BatteryState(rho=rb, p=float(rb[1, 1].real), c=complex(rb[1, 0]))


def charger_population(rho):
    """Excited-state population of the charger atom."""
    return float(rho[2, 2].real + rho[3, 3].real)


def energy(b):
    """Stored energy Tr[rho_B H_B] = p."""
    return b.p


def ergotropy(b):
    """Maximal unitarily extractable work, via the passive state (eigen path)."""
    evals = np.linalg.eigvalsh(0.5 * (b.rho + b.rho.conj().T))  # ascending
    # descending populations paired with ascending levels (0, 1)
    return max(0.0, b.p - float(evals[0]))


def fluctuation(b_t, b_0):
    """Change of the H_B standard deviation between start and time t.

    May be negative if the initial state had the larger variance.
    """

    def std(b):
        # <H_B> = <H_B^2> = p, since H_B^2 = H_B for a qubit
        return math.sqrt(max(0.0, b.p - b.p * b.p))

    return std(b_t) - std(b_0)


def average_power(ergotropy_t, t):
    """Ergotropy divided by elapsed time; defined as 0 at t = 0."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    return ergotropy_t / t


def purity(rho):
    return float(np.trace(rho @ rho).real)


def charger_state(rho):
    """Reduced 2x2 state of the charger (trace over the battery)."""
    rho = np.asarray(rho)
    return rho[0::2, 0::2] + rho[1::2, 1::2]


def ergotropy_closed_form(b):
    """Qubit closed form p - 1/2 + sqrt((p - 1/2)^2 + |c|^2) of a BatteryState."""
    half = b.p - 0.5
    return max(0.0, half + math.sqrt(half * half + abs(b.c) ** 2))


def richardson_order(final_state, dt):
    """Empirical Richardson order of a fixed-step run.

    ``final_state(h)`` integrates at step h and returns the final state; it
    is called at dt, dt/2 and dt/4, and the result is
    log2(|rho_dt - rho_dt/2| / |rho_dt/2 - rho_dt/4|) in the max norm.
    """
    finals = [final_state(dt / 2**k) for k in range(3)]
    e1 = float(np.abs(finals[0] - finals[1]).max())
    e2 = float(np.abs(finals[1] - finals[2]).max())
    if e2 == 0.0:
        return float("inf")
    return math.log2(e1 / e2)


def convergence_order(spec, rho0, t_end, dt=0.1):
    """:func:`richardson_order` of evolve's fixed-step method up to ``t_end``."""
    return richardson_order(
        lambda h: evolve(spec, rho0, TimeGrid(0.0, t_end, dt=h, sample_stride=10**9)).states[-1], dt)
