"""Two-qubit states and the master-equation right-hand side.

Basis convention: product states |n_a n_b> with n = 0 (ground) or 1
(excited), ordered by index = 2*n_a + n_b:

    0 -> |g_a g_b>,  1 -> |g_a e_b>,  2 -> |e_a g_b>,  3 -> |e_a e_b>

so the partial trace over atom a is the sum of the two diagonal 2x2 blocks.

Two dissipator structures are supported: the bidirectional generator
(individual decay of each atom plus a collective cross-decay term) and the
cascaded chiral generator (a single right- or left-passing collective jump
operator, with the matching anti-Hermitian exchange term in the
Hamiltonian).  The bare transition frequency is rotated away; only the
Lamb shifts appear in the coherent part.  The cascaded generator is built
in Liouville space, from six fixed superoperators on row-major vec(rho)
with the emitted flux as a 17th row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .geometry import CouplingParams


class SimulationError(Exception):
    """Base class for numerical/physical failures during a run."""


class StateValidationError(SimulationError):
    """Input state violates the density-matrix invariants."""


_I2 = np.eye(2, dtype=complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|

SIGMA_MINUS_A = np.kron(_LOWER, _I2)
SIGMA_MINUS_B = np.kron(_I2, _LOWER)
SIGMA_PLUS_A = SIGMA_MINUS_A.conj().T
SIGMA_PLUS_B = SIGMA_MINUS_B.conj().T
NUMBER_A = SIGMA_PLUS_A @ SIGMA_MINUS_A
NUMBER_B = SIGMA_PLUS_B @ SIGMA_MINUS_B
# sigma_a^+ sigma_b^- + sigma_b^+ sigma_a^-
EXCHANGE = SIGMA_PLUS_A @ SIGMA_MINUS_B + SIGMA_PLUS_B @ SIGMA_MINUS_A
# i (sigma_a^+ sigma_b^- - sigma_b^+ sigma_a^-); Hermitian
EXCHANGE_CHIRAL = 1j * (SIGMA_PLUS_A @ SIGMA_MINUS_B - SIGMA_PLUS_B @ SIGMA_MINUS_A)

_BASIS_INDEX = {"gg": 0, "ge": 1, "eg": 2, "ee": 3}


def ket(label: str) -> np.ndarray:
    """Basis ket for a label like 'eg' (= atom a excited, atom b ground)."""
    v = np.zeros(4, dtype=complex)
    v[_BASIS_INDEX[label]] = 1.0
    return v


def projector(label: str) -> np.ndarray:
    """|label><label| as a 4x4 density matrix."""
    v = ket(label)
    return np.outer(v, v.conj())


def sigma_minus(which_atom: str) -> np.ndarray:
    """Lowering operator of atom 'a' or 'b', tensored with identity."""
    if which_atom == "a":
        return SIGMA_MINUS_A.copy()
    if which_atom == "b":
        return SIGMA_MINUS_B.copy()
    raise ValueError(f"which_atom must be 'a' or 'b', got {which_atom!r}")


# input-validation tolerances, looser than the construction-level
# invariants so that integrator drift is tolerated
HERM_TOL = 1e-10
TRACE_TOL = 1e-8
EIG_TOL = 1e-6


def validate_density_matrix(rho: np.ndarray) -> None:
    """Check shape, Hermiticity, unit trace and positivity of a state."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise StateValidationError(f"density matrix must be 4x4, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise StateValidationError("density matrix has non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERM_TOL:
        raise StateValidationError(f"not Hermitian: max|rho - rho^dag| = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateValidationError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < -EIG_TOL:
        raise StateValidationError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")


ParamsLike = Union[CouplingParams, Callable[[float], CouplingParams]]

BIDIRECTIONAL = "bidirectional"
CASCADED_RIGHT = "cascaded_right"
CASCADED_LEFT = "cascaded_left"
_DISSIPATOR_KINDS = (BIDIRECTIONAL, CASCADED_RIGHT, CASCADED_LEFT)


@dataclass(frozen=True)
class LiouvillianSpec:
    """Full right-hand-side description of the master equation.

    ``params`` is either a :class:`CouplingParams` or, for the cascaded
    kinds, a callable ``t -> CouplingParams``.  For cascaded kinds
    ``params.g_ab`` is the magnitude of the coherent exchange term; its
    anti-Hermitian structure and sign are fixed by the dissipator kind.
    """

    params: ParamsLike
    dissipator_kind: str = BIDIRECTIONAL

    def __post_init__(self):
        if self.dissipator_kind not in _DISSIPATOR_KINDS:
            raise ValueError(f"unknown dissipator kind {self.dissipator_kind!r}")
        if self.dissipator_kind == BIDIRECTIONAL and callable(self.params):
            raise ValueError("bidirectional spec must be time-independent")

    def params_at(self, t: float) -> CouplingParams:
        return self.params(t) if callable(self.params) else self.params


def dissipator(A: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[A] rho = A rho A^dag - 1/2 (A^dag A rho + rho A^dag A)."""
    Ad = A.conj().T
    AdA = Ad @ A
    return A @ rho @ Ad - 0.5 * (AdA @ rho + rho @ AdA)


def cross_dissipator(A: np.ndarray, B: np.ndarray, rho: np.ndarray) -> np.ndarray:
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


def jump_operator(params: CouplingParams, kind: str) -> np.ndarray:
    """Collective jump operator of the cascaded generator.

    L = i (sqrt(Gamma_a/2) sigma_a^- + sqrt(Gamma_b/2) sigma_b^-); for the
    left-passing kind the same operator applies (direction enters through
    the coherent term's sign only).
    """
    if kind not in (CASCADED_RIGHT, CASCADED_LEFT):
        raise ValueError(f"jump operator only defined for cascaded kinds, got {kind!r}")
    ka = max(params.Gamma_a, 0.0) / 2.0
    kb = max(params.Gamma_b, 0.0) / 2.0
    return 1j * (np.sqrt(ka) * SIGMA_MINUS_A + np.sqrt(kb) * SIGMA_MINUS_B)


def effective_hamiltonian(spec: LiouvillianSpec, t: float = 0.0) -> np.ndarray:
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


_UNITS = np.eye(16, dtype=complex).reshape(16, 4, 4)  # |i><j| at row-major index 4 i + j


def _superoperator(action: Callable[[np.ndarray], np.ndarray], flux=None) -> np.ndarray:
    """17x17 matrix of a linear map on rho, acting on row-major vec(rho).

    Row 16 is Tr[flux rho] (zero without ``flux``); column 16 is zero, so
    the 17th component only integrates that trace.
    """
    out = np.zeros((17, 17), dtype=complex)
    out[:16, :16] = np.stack([action(u).ravel() for u in _UNITS], axis=1)
    if flux is not None:
        out[16, :16] = flux.T.ravel()
    return out


def _commutator(H: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rho: -1j * (H @ rho - rho @ H)


# the cascaded generator is sum_k c_k B_k with coefficients
# (kappa_a, kappa_b, sqrt(kappa_a kappa_b), delta_a, delta_b, +/-|g_ab|):
# D[L] = kappa_a D[sigma_a] + kappa_b D[sigma_b] + sqrt(kappa_a kappa_b) D[sigma_a, sigma_b]
# for L = i (sqrt(kappa_a) sigma_a^- + sqrt(kappa_b) sigma_b^-), and the
# flux row Tr[L^dag L rho] splits the same way
_CASCADED_BASIS = np.stack([
    _superoperator(lambda rho: dissipator(SIGMA_MINUS_A, rho), NUMBER_A),
    _superoperator(lambda rho: dissipator(SIGMA_MINUS_B, rho), NUMBER_B),
    _superoperator(lambda rho: cross_dissipator(SIGMA_MINUS_A, SIGMA_MINUS_B, rho), EXCHANGE),
    _superoperator(_commutator(NUMBER_A)),
    _superoperator(_commutator(NUMBER_B)),
    _superoperator(_commutator(EXCHANGE_CHIRAL)),
]).reshape(6, 17 * 17)


def cascaded_generators(spec: LiouvillianSpec, times) -> np.ndarray:
    """Generators of a cascaded spec at each of an array of times, (..., 17, 17).

    The 16x16 block maps row-major vec(rho) to vec(-i[H, rho] + D[L] rho);
    row 16 is the emitted flux Tr[L^dag L rho].  All times are built as
    one matmul of their six coefficients with the fixed basis.
    """
    p = spec.params_at(times)
    ka = 0.5 * np.maximum(p.Gamma_a, 0.0)
    kb = 0.5 * np.maximum(p.Gamma_b, 0.0)
    sign = 1.0 if spec.dissipator_kind == CASCADED_RIGHT else -1.0
    coeffs = np.empty((*np.shape(times), 6))
    for k, c in enumerate((ka, kb, np.sqrt(ka * kb), p.delta_a, p.delta_b, sign * np.abs(p.g_ab))):
        coeffs[..., k] = c
    return (coeffs @ _CASCADED_BASIS).reshape(*coeffs.shape[:-1], 17, 17)


def _bidirectional_parts(spec: LiouvillianSpec):
    """K = -iH - 1/2 (Gamma_a n_a + Gamma_b n_b + Gamma_coll X) and the three jump rates."""
    p = spec.params_at(0.0)
    H = effective_hamiltonian(spec)
    K = -1j * H - 0.5 * (
        p.Gamma_a * NUMBER_A + p.Gamma_b * NUMBER_B + p.Gamma_coll * EXCHANGE
    )
    return K, (p.Gamma_a, p.Gamma_b, p.Gamma_coll)


def make_generator(
    spec: Union[LiouvillianSpec, Sequence[LiouvillianSpec]],
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Compile a bidirectional spec into a fast rhs closure (no per-call validation).

    The returned function computes drho/dt = K rho + rho K^dag + jumps,
    where K folds the Hamiltonian and the anticommutator halves together.
    It maps a 4x4 state, or an (N,4,4) stack, to its derivative.  A
    cascaded spec raises ValueError: its generator is
    :func:`cascaded_generators`.

    ``spec`` may also be a sequence of N bidirectional specs; the closure
    then advances an (N,4,4) stack, cell i under spec i.  Each cell sees
    the floating-point operations of its own single-spec closure: a jump
    term is added only where its rate is nonzero, and skipped altogether
    when no cell has it.
    """
    single = isinstance(spec, LiouvillianSpec)
    if any(s.dissipator_kind != BIDIRECTIONAL for s in ([spec] if single else spec)):
        raise ValueError("make_generator takes bidirectional specs; see cascaded_generators")
    if single:
        K, rates = _bidirectional_parts(spec)
    else:
        parts = [_bidirectional_parts(s) for s in spec]
        K = np.stack([k for k, _ in parts])
        rates = np.array([r for _, r in parts]).T[:, :, None, None]  # (3, N, 1, 1)

    Kd = K.conj().swapaxes(-1, -2)
    # each atom's (ground, excited) rows of rho in the index 2 n_a + n_b:
    # sigma^- moves the excited rows onto the ground rows, so each jump term
    # is a block copy.  Its matmul form multiplies only by 0 and 1 and sums
    # at most one nonzero product, so the copies give the same bits (up to
    # the sign of a zero).  The K products stay matmuls: reordering them
    # (einsum, say) changes the rounding.
    a, b = (slice(0, 2), slice(2, 4)), (slice(0, None, 2), slice(1, None, 2))
    jumps = [(g, np.not_equal(g, 0.0), xy) for g, xy in zip(rates, ((a, a), (b, b), (a, b)))
             if np.any(g != 0.0)]

    def rhs_const(t, rho):
        out = K @ rho + rho @ Kd
        for g, nonzero, (x, y) in jumps:  # g sigma_x^- rho sigma_y^+ (+ the x <-> y term)
            term = np.zeros_like(rho)
            term[..., x[0], y[0]] = rho[..., x[1], y[1]]
            if x is not y:  # Gamma_coll's two blocks share (0,0): rho_21 + rho_12
                term[..., y[0], x[0]] += rho[..., y[1], x[1]]
            np.add(out, g * term, out=out, where=nonzero)
        return out

    return rhs_const


def rhs(spec: LiouvillianSpec, t: float, rho: np.ndarray) -> np.ndarray:
    """drho/dt for a validated input state. Traceless, Hermiticity-preserving.

    A cascaded spec applies the state block of :func:`cascaded_generators`.
    """
    validate_density_matrix(rho)
    rho = np.asarray(rho, dtype=complex)
    if spec.dissipator_kind == BIDIRECTIONAL:
        return make_generator(spec)(t, rho)
    return (rho.reshape(16) @ cascaded_generators(spec, t)[:16, :16].T).reshape(4, 4)
