import ast
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from gaqb.chiral import ChiralProtocol, run_transfer
from gaqb.cli import RunConfig, run_sweep
from gaqb.geometry import BRAIDED, NESTED, SEPARATED, CouplingParams, closed_form_params
from gaqb.integrator import TimeGrid, evolve
from gaqb.liouville import (
    _BASIS,
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
    density_matrices,
    jump_operator,
    make_generator,
    validate_density_matrix,
)


README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The README's python quick-start block."""
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def quick_start_imports():
    """The names the quick start imports from the package root."""
    return {alias.name for node in ast.walk(ast.parse(quick_start()))
            if isinstance(node, ast.ImportFrom) and node.module == "gaqb"
            for alias in node.names}


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
    traj, summary = run_transfer(p, dt=0.02)
    return p, traj, summary


def spec_for(topo, theta, gamma=0.1):
    """Bidirectional spec of a topology at phase theta, closed-form coefficients."""
    return LiouvillianSpec(closed_form_params(topo, theta, gamma))


def states_of(traj):
    """The (T,4,4) or (N,T,4,4) density matrices of a trajectory's snapshots."""
    return density_matrices(traj.coordinates[..., :16])


# the general coupling sums and the generator matrices: oracles the tests
# check the package's closed forms and march against


# connection points (x_a1, x_a2, x_b1, x_b2) of each built-in layout, in
# units of the neighbor spacing d
COORDS = {
    BRAIDED: (0.0, 2.0, 1.0, 3.0),
    SEPARATED: (0.0, 1.0, 2.0, 3.0),
    NESTED: (0.0, 3.0, 1.0, 2.0),
}


def positional_params(topology, theta, gamma, coords=None):
    """Coefficients from the general sums over connection-point pairs.

    Gamma_j    = gamma * sum_{n,m} cos(theta |x_jn - x_jm|)
    delta_j    = gamma/2 * sum_{n,m} sin(theta |x_jn - x_jm|)
    Gamma_coll = gamma * sum_{n,m} cos(theta |x_an - x_bm|)
    g_ab       = gamma/2 * sum_{n,m} sin(theta |x_an - x_bm|)

    with n, m running over both connection points of each atom.  Valid for
    any ``coords`` (x_a1, x_a2, x_b1, x_b2); by default the topology's
    entry in :data:`COORDS`, where it reproduces :func:`closed_form_params`.
    """
    if coords is None:
        coords = COORDS[topology]
    th = theta
    g = gamma
    xa = coords[0:2]
    xb = coords[2:4]

    def self_sums(xs):
        cos_sum = 0.0
        sin_sum = 0.0
        for xn in xs:
            for xm in xs:
                d = th * abs(xn - xm)
                cos_sum += math.cos(d)
                sin_sum += math.sin(d)
        return cos_sum, sin_sum

    cos_a, sin_a = self_sums(xa)
    cos_b, sin_b = self_sums(xb)
    cos_ab = 0.0
    sin_ab = 0.0
    for xn in xa:
        for xm in xb:
            d = th * abs(xn - xm)
            cos_ab += math.cos(d)
            sin_ab += math.sin(d)

    return CouplingParams(
        delta_a=0.5 * g * sin_a,
        delta_b=0.5 * g * sin_b,
        g_ab=0.5 * g * sin_ab,
        Gamma_a=g * cos_a,
        Gamma_b=g * cos_b,
        Gamma_coll=g * cos_ab,
    )


def decoherence_free_phases(topology):
    """Phases in [0, 2*pi) where all decay rates vanish but g_ab does not.

    Atom a's decay rate 2 gamma (1 + cos(theta d_a)), with d_a its
    connection-point spacing, vanishes exactly at theta d_a = (2k+1) pi,
    so only these candidates (k < d_a; the built-in spacings are
    integers) can be decoherence-free.  A candidate is kept if the total
    decay Gamma_a + Gamma_b + |Gamma_coll| vanishes there (to 1e-9) and
    the exchange coupling survives (|g_ab| > 1e-6).
    """
    x_a1, x_a2 = COORDS[topology][0:2]
    d_a = abs(x_a2 - x_a1)
    phases = []
    for k in range(int(d_a)):
        theta = (2 * k + 1) * math.pi / d_a
        p = closed_form_params(topology, theta, 1.0)
        if p.Gamma_a + p.Gamma_b + abs(p.Gamma_coll) <= 1e-9 and abs(p.g_ab) > 1e-6:
            phases.append(theta)
    return phases


def dissipator(A, rho):
    """D[A] rho = A rho A^dag - 1/2 (A^dag A rho + rho A^dag A)."""
    Ad = A.conj().T
    AdA = Ad @ A
    return A @ rho @ Ad - 0.5 * (AdA @ rho + rho @ AdA)


def cross_dissipator(A, B, rho):
    """Hermitian cross-damping pair D[A,B] rho + (A <-> B, conjugated).

    D[A,B] rho = A rho B^dag - 1/2 (A^dag B rho + rho A^dag B).  For A = B
    this collapses to 2 D[A] rho.  The collective term of the bidirectional
    generator is cross_dissipator(sigma_a^-, sigma_b^-, rho).
    """
    Bd = B.conj().T
    AdB = A.conj().T @ B
    first = A @ rho @ Bd - 0.5 * (AdB @ rho + rho @ AdB)
    BdA = AdB.conj().T
    second = B @ rho @ A.conj().T - 0.5 * (BdA @ rho + rho @ BdA)
    return first + second


def generators(spec, times):
    """Real generators of a spec at each of an array of times, (..., 17, 17).

    The 16x16 block maps the :func:`coordinates` of rho to those of its
    time derivative; row 16 is the rate at which energy leaves the atoms
    into the waveguide.  All times are one matmul of their seven
    coefficients with the fixed basis.
    """
    c = make_generator([spec])(times)[0]
    return (c @ _BASIS).reshape(*c.shape[:-1], 17, 17)


def rhs(spec, t, rho):
    """drho/dt for a validated input state. Traceless, Hermiticity-preserving.

    Applies the state block of :func:`generators` to the coordinates of rho.
    """
    validate_density_matrix(rho)
    return density_matrices(generators(spec, t)[:16, :16] @ coordinates(rho))


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


def no_jump_amplitudes(p, t):
    """psi(t) = exp(-i H_eff t) (1, 0) on (|eg>, |ge>) at the times ``t``, (T, 2).

    From |eg> a bidirectional generator fills only the one-excitation block
    and |gg>: rho(t) = (1 - |psi|^2) |gg><gg| + |psi><psi| (the no-jump
    evolution of Dalibard, Castin and Molmer, PRL 68, 580 (1992)), with

        H_eff = [[delta_a - i Gamma_a/2, g_ab - i Gamma_coll/2],
                 [g_ab - i Gamma_coll/2, delta_b - i Gamma_b/2]]

    from the coefficients ``p``.  The closed form is
    exp(-i H t) = e^{-i tr t/2} (cos(W t) I - i sin(W t)/W (H - tr/2 I)),
    W^2 = ((H_aa - H_bb)/2)^2 + H_ab^2; sin(W t)/W -> t at W = 0, so it
    stays finite at exceptional points.
    """
    h_aa = p.delta_a - 0.5j * p.Gamma_a
    h_bb = p.delta_b - 0.5j * p.Gamma_b
    h_ab = p.g_ab - 0.5j * p.Gamma_coll
    half_trace = 0.5 * (h_aa + h_bb)
    w = np.sqrt(complex(0.25 * (h_aa - h_bb) ** 2 + h_ab ** 2))
    sin_over_w = np.sin(w * t) / w if w != 0 else t
    phase = np.exp(-1j * half_trace * t)
    eg = phase * (np.cos(w * t) - 1j * sin_over_w * (h_aa - half_trace))
    ge = phase * (-1j * sin_over_w * h_ab)
    return np.stack([eg, ge], axis=-1)


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
        lambda h: states_of(evolve(spec, rho0, TimeGrid(t_end, dt=h, sample_stride=10**9)))[-1], dt)
