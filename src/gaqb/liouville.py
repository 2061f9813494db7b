"""Two-qubit states and the master-equation generator.

Basis convention: product states |n_a n_b> with n = 0 (ground) or 1
(excited), ordered by index = 2*n_a + n_b:

    0 -> |g_a g_b>,  1 -> |g_a e_b>,  2 -> |e_a g_b>,  3 -> |e_a e_b>

so the partial trace over atom a is the sum of the two diagonal 2x2 blocks.

Two dissipator structures are supported: the bidirectional generator
(individual decay of each atom plus a collective cross-decay term) and the
cascaded chiral generator (a single right- or left-passing collective jump
operator, with the matching anti-Hermitian exchange term in the
Hamiltonian).  The bare transition frequency is rotated away; only the
Lamb shifts appear in the coherent part.  Either kind's generator is a real
17x17 matrix on real Hermitian coordinates of rho, with the emitted flux
as a 17th component, so a state marched in them stays Hermitian.  Both
kinds conserve the excitation number, so from |eg> only the 7 coordinates
of the Delta n = 0 block move (:func:`block_basis`).
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


def _superoperator(action: Callable[[np.ndarray], np.ndarray], flux=np.zeros((4, 4))) -> np.ndarray:
    """17x17 matrix of a map on row-major vec(rho); row 16 is Tr[flux rho], column 16 is zero."""
    out = np.zeros((17, 17), dtype=complex)
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # |i><j| at row-major index 4 i + j
    out[:16, :16] = np.stack([action(u).ravel() for u in units], axis=1)
    out[16, :16] = flux.T.ravel()
    return out


def _commutator(H: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rho: -1j * (H @ rho - rho @ H)


# real coordinates (rho_00..rho_33, Re rho_ij, Im rho_ij for i < j, flux):
# P maps them to (vec(rho), flux), and Q = P^+ maps a Hermitian rho back
_UPPER = np.triu_indices(4, 1)
_P = np.zeros((17, 17), dtype=complex)
_P[[0, 5, 10, 15, 16], [0, 1, 2, 3, 16]] = 1.0
for _k, (_i, _j) in enumerate(zip(*_UPPER)):  # rho_ij and rho_ji
    _P[[4 * _i + _j, 4 * _j + _i], 4 + 2 * _k] = 1.0, 1.0
    _P[[4 * _i + _j, 4 * _j + _i], 5 + 2 * _k] = 1j, -1j
_Q = _P.conj().T / np.abs(_P).sum(axis=0)[:, None]
# |Delta n| of each coordinate: the change of excitation number (0, 1, 1, 2
# in gg, ge, eg, ee) across rho_ij
_EXCITATIONS = np.array([0, 1, 1, 2])
_DELTA_N = np.concatenate([np.zeros(4, dtype=int),
                           np.repeat(_EXCITATIONS[_UPPER[1]] - _EXCITATIONS[_UPPER[0]], 2)])


def coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (16,) of a Hermitian 4x4 state."""
    return (_Q[:16, :16] @ np.ravel(rho)).real


def density_matrices(x: np.ndarray) -> np.ndarray:
    """Exactly Hermitian (..., 4, 4) states from their real coordinates (..., 16)."""
    return (x @ _P[:16, :16].T).reshape(*x.shape[:-1], 4, 4)


# either generator is sum_k c_k B_k over one fixed real basis, each B_k a
# real Q B P.  Bidirectional: (Gamma_a, Gamma_b, Gamma_coll, delta_a,
# delta_b, 0, g_ab).  Cascaded: (kappa_a, kappa_b, sqrt(kappa_a kappa_b),
# delta_a, delta_b, +/-|g_ab|, 0), since
# D[L] = kappa_a D[sigma_a] + kappa_b D[sigma_b] + sqrt(kappa_a kappa_b) D[sigma_a, sigma_b]
# for L = i (sqrt(kappa_a) sigma_a^- + sqrt(kappa_b) sigma_b^-).  The flux
# row (the emitted energy) splits over the dissipators the same way.
_BASIS = (_Q @ np.stack([
    _superoperator(lambda rho: dissipator(SIGMA_MINUS_A, rho), NUMBER_A),
    _superoperator(lambda rho: dissipator(SIGMA_MINUS_B, rho), NUMBER_B),
    _superoperator(lambda rho: cross_dissipator(SIGMA_MINUS_A, SIGMA_MINUS_B, rho), EXCHANGE),
    _superoperator(_commutator(NUMBER_A)),
    _superoperator(_commutator(NUMBER_B)),
    _superoperator(_commutator(EXCHANGE_CHIRAL)),
    _superoperator(_commutator(EXCHANGE)),
]) @ _P).real.reshape(7, 17 * 17)


def block_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates a state with :func:`coordinates` x moves on, and the basis on them.

    Every generator here conserves the excitation number, so it never
    couples coordinates of different |Delta n|.  Returns the indices of the
    |Delta n| blocks where x is nonzero, then 16 (the flux), and the
    (7, m * m) basis maps between those m coordinates; the others stay 0.
    """
    idx = np.append(np.flatnonzero(np.isin(_DELTA_N, _DELTA_N[x != 0])), 16)
    return idx, _BASIS.reshape(7, 17, 17)[:, idx[:, None], idx].reshape(7, -1)


def make_generator(specs: Sequence[LiouvillianSpec]) -> Callable[[np.ndarray], np.ndarray]:
    """Coefficients of N specs on the fixed basis, as a function of time.

    The returned function maps an array of times to the (N, *times.shape, 7)
    coefficients, cell i under spec i; cell i's generator at a time is its
    seven coefficients times the basis.  A time-independent spec repeats
    its coefficients at every time.
    """
    def coefficients(times):
        c = np.empty((len(specs), *np.shape(times), 7))
        for cell, spec in zip(c, specs):
            p = spec.params_at(times)
            if spec.dissipator_kind == BIDIRECTIONAL:
                values = (p.Gamma_a, p.Gamma_b, p.Gamma_coll, p.delta_a, p.delta_b, 0.0, p.g_ab)
            else:
                ka = 0.5 * np.maximum(p.Gamma_a, 0.0)
                kb = 0.5 * np.maximum(p.Gamma_b, 0.0)
                sign = 1.0 if spec.dissipator_kind == CASCADED_RIGHT else -1.0
                values = (ka, kb, np.sqrt(ka * kb), p.delta_a, p.delta_b, sign * np.abs(p.g_ab), 0.0)
            for k, value in enumerate(values):
                cell[..., k] = value
        return c

    return coefficients
