import math

import numpy as np
import pytest

from conftest import random_density
from gaqb.chiral import ChiralProtocol, chiral_coupling_params, chiral_spec
from gaqb.geometry import (
    BRAIDED, NESTED, SEPARATED, CouplingLayout, CouplingParams, closed_form_params,
)
from gaqb.liouville import (
    BIDIRECTIONAL,
    SIGMA_MINUS_A,
    SIGMA_MINUS_B,
    SIGMA_PLUS_A,
    SIGMA_PLUS_B,
    CASCADED_LEFT,
    CASCADED_RIGHT,
    LiouvillianSpec,
    StateValidationError,
    cascaded_generators,
    cross_dissipator,
    dissipator,
    effective_hamiltonian,
    jump_operator,
    ket,
    make_generator,
    projector,
    rhs,
    sigma_minus,
    validate_density_matrix,
    _bidirectional_parts,
)

RNG = np.random.default_rng(20240817)


def spec_for(topo, theta, gamma=0.1):
    return LiouvillianSpec(closed_form_params(CouplingLayout(topo, theta, gamma)))


def cascaded_spec(kind=CASCADED_RIGHT):
    p = ChiralProtocol(gamma_max=0.1, tau=50.0)
    params = chiral_coupling_params(30.0, p)
    return LiouvillianSpec(params, dissipator_kind=kind)


ALL_SPECS = [
    spec_for(BRAIDED, 0.7),
    spec_for(SEPARATED, 2.1),
    spec_for(NESTED, 1.1),
    cascaded_spec(CASCADED_RIGHT),
    cascaded_spec(CASCADED_LEFT),
]


# --- operators -------------------------------------------------------------

def test_sigma_minus_action():
    sm_a, sm_b = sigma_minus("a"), sigma_minus("b")
    np.testing.assert_array_equal(sm_a @ ket("eg"), ket("gg"))
    np.testing.assert_array_equal(sm_b @ ket("gg"), np.zeros(4))
    np.testing.assert_array_equal(sm_a @ sm_a, np.zeros((4, 4)))
    np.testing.assert_array_equal(sm_b @ ket("ee"), ket("eg"))
    with pytest.raises(ValueError):
        sigma_minus("c")


def test_dissipator_identity_is_zero():
    rho = random_density(RNG)
    np.testing.assert_allclose(dissipator(np.eye(4), rho), np.zeros((4, 4)), atol=1e-15)


def test_dissipator_decay_of_excited_charger():
    rho = projector("eg")
    out = dissipator(sigma_minus("a"), rho)
    np.testing.assert_allclose(out, projector("gg") - rho, atol=1e-15)


def test_dissipator_traceless():
    for _ in range(20):
        rho = random_density(RNG)
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert abs(np.trace(dissipator(a, rho))) <= 1e-13


def test_cross_dissipator_equal_args_collapse():
    rho = random_density(RNG)
    a = sigma_minus("a")
    np.testing.assert_allclose(cross_dissipator(a, a, rho), 2 * dissipator(a, rho), atol=1e-14)


def test_cross_dissipator_physical_pairing_on_eg():
    # direct matrix evaluation: only the anticommutator halves survive,
    # damping the one-excitation coherence
    rho = projector("eg")
    out = cross_dissipator(sigma_minus("a"), sigma_minus("b"), rho)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 1] = -0.5
    expected[1, 2] = -0.5
    np.testing.assert_allclose(out, expected, atol=1e-15)
    assert abs(np.trace(out)) <= 1e-14


def test_cross_dissipator_raising_pairing_on_eg():
    # with the literal (sigma_a^-, sigma_b^+) arguments the printed formula
    # produces a pure gg<->ee coherence; traceless and Hermitian but not the
    # Lindblad cross term (that one pairs two lowering operators)
    rho = projector("eg")
    out = cross_dissipator(sigma_minus("a"), sigma_minus("b").conj().T, rho)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1.0
    expected[3, 0] = 1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)
    assert abs(np.trace(out)) <= 1e-14


def test_cross_dissipator_hermiticity():
    a, b = sigma_minus("a"), sigma_minus("b")
    for _ in range(20):
        out = cross_dissipator(a, b, random_density(RNG))
        assert np.abs(out - out.conj().T).max() <= 1e-14


# --- effective Hamiltonian -------------------------------------------------

def test_hamiltonian_braided_df_point():
    H = effective_hamiltonian(spec_for(BRAIDED, math.pi / 2))
    assert H[1, 2] == pytest.approx(0.1, abs=1e-15)
    assert H[2, 1] == pytest.approx(0.1, abs=1e-15)
    np.testing.assert_allclose(np.diag(H), np.zeros(4), atol=1e-15)


def test_hamiltonian_zero_params():
    H = effective_hamiltonian(spec_for(SEPARATED, math.pi))
    assert np.abs(H).max() <= 1e-15


def test_hamiltonian_nested_shifts():
    H = effective_hamiltonian(spec_for(NESTED, math.pi / 3))
    assert abs(H[2, 2]) < 1e-12            # delta_a = gamma sin(pi) ~ 0
    assert H[1, 1] == pytest.approx(0.086602540378443865, abs=1e-14)


def test_hamiltonian_hermitian_all_kinds():
    for spec in ALL_SPECS:
        H = effective_hamiltonian(spec, t=0.0)
        np.testing.assert_array_equal(H, H.conj().T)


def test_cascaded_hamiltonian_antisymmetric_exchange():
    H = effective_hamiltonian(cascaded_spec(CASCADED_RIGHT))
    assert H[2, 1].imag > 0 and H[1, 2].imag < 0
    H_left = effective_hamiltonian(cascaded_spec(CASCADED_LEFT))
    np.testing.assert_allclose(H_left[2, 1], -H[2, 1])


# --- right-hand side -------------------------------------------------------

def test_rhs_separated_pi_is_zero():
    spec = spec_for(SEPARATED, math.pi)
    for _ in range(5):
        out = rhs(spec, 0.0, random_density(RNG))
        assert np.abs(out).max() <= 1e-15


def test_rhs_braided_df_pure_commutator():
    spec = spec_for(BRAIDED, math.pi / 2)
    rho = projector("eg")
    H = effective_hamiltonian(spec)
    np.testing.assert_allclose(rhs(spec, 0.0, rho), -1j * (H @ rho - rho @ H), atol=1e-15)


def test_rhs_matches_textbook_composition():
    # K-form assembly against the explicit dissipator composition
    spec = spec_for(BRAIDED, 0.7)
    p = spec.params
    sa, sb = sigma_minus("a"), sigma_minus("b")
    H = effective_hamiltonian(spec)
    for _ in range(10):
        rho = random_density(RNG)
        expected = (
            -1j * (H @ rho - rho @ H)
            + p.Gamma_a * dissipator(sa, rho)
            + p.Gamma_b * dissipator(sb, rho)
            + p.Gamma_coll * cross_dissipator(sa, sb, rho)
        )
        np.testing.assert_allclose(rhs(spec, 0.0, rho), expected, atol=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.dissipator_kind)
def test_rhs_trace_and_hermiticity_preserving(spec):
    for _ in range(100):
        rho = random_density(RNG)
        out = rhs(spec, 0.0, rho)
        assert abs(np.trace(out)) <= 1e-14
        assert np.abs(out - out.conj().T).max() <= 1e-13


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.dissipator_kind)
def test_rhs_no_excitation_raising(spec):
    # states supported on {gg, ge, eg} never gain ee population
    for _ in range(20):
        w = RNG.random(3)
        w /= w.sum()
        phase = np.exp(1j * RNG.uniform(0, 2 * math.pi))
        c = 0.9 * math.sqrt(w[1] * w[2]) * phase  # keeps the state positive
        rho = w[0] * projector("gg") + w[1] * projector("ge") + w[2] * projector("eg")
        rho[1, 2] += c
        rho[2, 1] += np.conj(c)
        out = rhs(spec, 0.0, rho)
        assert abs(out[3, 3]) <= 1e-12


@pytest.mark.parametrize("theta", [math.pi / 2, 1.2])  # 1.2: nonzero Lamb shifts
@pytest.mark.parametrize("direction", ["right", "left"])
def test_cascaded_superoperator_matches_textbook(theta, direction):
    spec = chiral_spec(ChiralProtocol(gamma_max=0.1, tau=50.0, theta=theta, direction=direction))
    ts = np.array([0.0, 30.0, 50.0, 80.0])  # rising, on and past the kink, falling
    G = cascaded_generators(spec, ts)
    assert G.shape == (4, 17, 17)
    assert not G[:, :, 16].any()  # the flux never feeds back
    for t, g in zip(ts.tolist(), G):
        H = effective_hamiltonian(spec, t)
        L = jump_operator(spec.params_at(t), spec.dissipator_kind)
        assert np.abs(g - cascaded_generators(spec, t)).max() <= 1e-15
        for _ in range(10):
            rho = random_density(RNG)
            expected = -1j * (H @ rho - rho @ H) + dissipator(L, rho)
            out = g @ np.append(rho.ravel(), 0.0)
            assert np.abs(out[:16].reshape(4, 4) - expected).max() <= 1e-14
            assert abs(out[16] - np.trace(L.conj().T @ L @ rho)) <= 1e-14
            assert np.abs(rhs(spec, t, rho) - expected).max() <= 1e-14


def matmul_generator(specs):
    """The jump terms as stacked matmuls, in the order make_generator adds them."""
    parts = [_bidirectional_parts(s) for s in specs]
    K = np.stack([k for k, _ in parts])
    Kd = K.conj().swapaxes(-1, -2)
    rates = np.array([r for _, r in parts]).T[:, :, None, None]
    sa, sb, sad, sbd = SIGMA_MINUS_A, SIGMA_MINUS_B, SIGMA_PLUS_A, SIGMA_PLUS_B

    def gen(rho):
        out = K @ rho + rho @ Kd
        a, b = sa @ rho, sb @ rho
        for g, term in zip(rates, (a @ sad, b @ sbd, a @ sbd + b @ sad)):
            if np.any(g != 0.0):
                np.add(out, g * term, out=out, where=g != 0.0)
        return out

    return gen


def test_generator_bits_match_matmul_form():
    # cell i drops rate i (Gamma_a, Gamma_b, Gamma_coll); Lamb shifts and
    # Gamma_coll take both signs
    specs = []
    for i in range(12):
        lamb = RNG.normal(size=2)
        rates = RNG.uniform(0.01, 1.0, size=3) * (1.0, 1.0, RNG.choice((-1.0, 1.0)))
        if i < 3:
            rates[i] = 0.0
        specs.append(LiouvillianSpec(CouplingParams(*lamb, RNG.normal(), *rates)))
    only_coherent = [LiouvillianSpec(CouplingParams(-0.3, 0.2, 0.5, 0.0, 0.0, 0.0))]
    for batch in (specs, specs[:1], specs[1:2], specs[2:3], only_coherent):
        gen, ref = make_generator(batch), matmul_generator(batch)
        for _ in range(5):
            rho = RNG.normal(size=(len(batch), 4, 4)) + 1j * RNG.normal(size=(len(batch), 4, 4))
            want = ref(rho).view(np.uint64)
            assert (gen(0.0, rho).view(np.uint64) == want).all()
            alone = make_generator(batch[-1])(0.0, rho[-1])  # the single-spec 4x4 path
            assert (alone.view(np.uint64) == want[-1]).all()


def test_rhs_linearity():
    spec = spec_for(NESTED, 1.1)
    gen = make_generator(spec)
    for _ in range(10):
        r1, r2 = random_density(RNG), random_density(RNG)
        a, b = 0.3 + 0.1j, -0.7 + 0.2j
        lhs = gen(0.0, a * r1 + b * r2)
        np.testing.assert_allclose(lhs, a * gen(0.0, r1) + b * gen(0.0, r2), atol=1e-13)
    # convex combinations stay valid states, exercising the public path
    mix = 0.25 * projector("eg") + 0.75 * projector("ge")
    np.testing.assert_allclose(
        rhs(spec, 0.0, mix),
        0.25 * rhs(spec, 0.0, projector("eg")) + 0.75 * rhs(spec, 0.0, projector("ge")),
        atol=1e-13,
    )


def test_rhs_rejects_invalid_states():
    spec = spec_for(BRAIDED, 0.7)
    bad = projector("eg").copy()
    bad[0, 1] = 0.5  # non-Hermitian
    with pytest.raises(StateValidationError):
        rhs(spec, 0.0, bad)
    with pytest.raises(StateValidationError):
        rhs(spec, 0.0, 2.0 * projector("eg"))  # trace 2
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateValidationError):
        rhs(spec, 0.0, neg)


def test_validate_density_matrix_accepts_valid():
    validate_density_matrix(projector("ee"))
    validate_density_matrix(random_density(RNG))


def test_spec_validation():
    p = closed_form_params(CouplingLayout(BRAIDED, 0.3, 0.1))
    with pytest.raises(ValueError):
        LiouvillianSpec(p, dissipator_kind="sideways")
    with pytest.raises(ValueError):
        LiouvillianSpec(lambda t: p, dissipator_kind=BIDIRECTIONAL)
    with pytest.raises(ValueError, match="bidirectional"):  # its generator is cascaded_generators
        make_generator(cascaded_spec())
