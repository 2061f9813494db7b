import math

import numpy as np
import pytest

from gaqb.chiral import ChiralProtocol, default_grid, run_transfer
from gaqb.cli import RunConfig, run_sweep
from gaqb.geometry import CouplingLayout, closed_form_params
from gaqb.integrator import TimeGrid, evolve
from gaqb.liouville import (
    BIDIRECTIONAL,
    EXCHANGE,
    NUMBER_A,
    NUMBER_B,
    SIGMA_MINUS_A,
    SIGMA_MINUS_B,
    LiouvillianSpec,
    cross_dissipator,
    dissipator,
    effective_hamiltonian,
    jump_operator,
)


@pytest.fixture(scope="session")
def sweep():
    """Cached theta x t sweeps per topology (the expensive shared inputs)."""
    cache = {}

    def get(topology):
        if topology not in cache:
            cfg = RunConfig(topology=topology, dt=0.04, sample_stride=5,
                            theta_steps=201, workers=0)
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


def k_form(spec):
    """K = -iH - 1/2 (Gamma_a n_a + Gamma_b n_b + Gamma_coll X) of a
    bidirectional spec, so drho/dt = K rho + rho K^dag + jumps, and the
    three jump rates (Gamma_a, Gamma_b, Gamma_coll)."""
    p = spec.params
    K = -1j * effective_hamiltonian(spec) - 0.5 * (
        p.Gamma_a * NUMBER_A + p.Gamma_b * NUMBER_B + p.Gamma_coll * EXCHANGE
    )
    return K, (p.Gamma_a, p.Gamma_b, p.Gamma_coll)


def random_density(rng, pure=False):
    """Random valid 4x4 density matrix."""
    if pure:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def charger_state(rho):
    """Reduced 2x2 state of the charger (trace over the battery)."""
    rho = np.asarray(rho)
    return rho[0::2, 0::2] + rho[1::2, 1::2]


def ergotropy_closed_form(b):
    """Qubit closed form p - 1/2 + sqrt((p - 1/2)^2 + |c|^2) of a BatteryState."""
    half = b.p - 0.5
    return max(0.0, half + math.sqrt(half * half + abs(b.c) ** 2))


def convergence_order(spec, rho0, t_end, dt=0.1):
    """Empirical Richardson order of evolve's fixed-step method.

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
