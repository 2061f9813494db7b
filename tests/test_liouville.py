import math

import numpy as np
import pytest

from conftest import effective_hamiltonian, generators, random_density, rhs, spec_for, textbook_rhs
from gaqb.chiral import ChiralProtocol, chiral_coupling_params, chiral_spec
from gaqb.geometry import (
    BRAIDED, NESTED, SEPARATED, CouplingLayout, CouplingParams, closed_form_params,
)
from gaqb.liouville import (
    BIDIRECTIONAL,
    SIGMA_MINUS_A,
    SIGMA_MINUS_B,
    CASCADED_LEFT,
    CASCADED_RIGHT,
    LiouvillianSpec,
    StateValidationError,
    block_basis,
    coordinates,
    cross_dissipator,
    density_matrices,
    dissipator,
    ket,
    make_generator,
    projector,
    validate_density_matrix,
)

RNG = np.random.default_rng(20240817)


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
    np.testing.assert_array_equal(SIGMA_MINUS_A @ ket("eg"), ket("gg"))
    np.testing.assert_array_equal(SIGMA_MINUS_B @ ket("gg"), np.zeros(4))
    np.testing.assert_array_equal(SIGMA_MINUS_A @ SIGMA_MINUS_A, np.zeros((4, 4)))
    np.testing.assert_array_equal(SIGMA_MINUS_B @ ket("ee"), ket("eg"))


def test_dissipator_identity_is_zero():
    rho = random_density(RNG)
    np.testing.assert_allclose(dissipator(np.eye(4), rho), np.zeros((4, 4)), atol=1e-15)


def test_dissipator_decay_of_excited_charger():
    rho = projector("eg")
    out = dissipator(SIGMA_MINUS_A, rho)
    np.testing.assert_allclose(out, projector("gg") - rho, atol=1e-15)


def test_dissipator_traceless():
    for _ in range(20):
        rho = random_density(RNG)
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert abs(np.trace(dissipator(a, rho))) <= 1e-13


def test_cross_dissipator_equal_args_collapse():
    rho = random_density(RNG)
    a = SIGMA_MINUS_A
    np.testing.assert_allclose(cross_dissipator(a, a, rho), 2 * dissipator(a, rho), atol=1e-14)


def test_cross_dissipator_physical_pairing_on_eg():
    # direct matrix evaluation: only the anticommutator halves survive,
    # damping the one-excitation coherence
    rho = projector("eg")
    out = cross_dissipator(SIGMA_MINUS_A, SIGMA_MINUS_B, rho)
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
    out = cross_dissipator(SIGMA_MINUS_A, SIGMA_MINUS_B.conj().T, rho)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1.0
    expected[3, 0] = 1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)
    assert abs(np.trace(out)) <= 1e-14


def test_cross_dissipator_hermiticity():
    a, b = SIGMA_MINUS_A, SIGMA_MINUS_B
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
    # real-basis assembly against the explicit dissipator composition; row
    # 16 of the generator is the rate of energy emission, Tr[loss rho]
    spec = spec_for(BRAIDED, 0.7)
    emitted = generators(spec, 0.0)[16]
    for _ in range(10):
        rho = random_density(RNG)
        expected, rate = textbook_rhs(spec, 0.0, rho)
        np.testing.assert_allclose(rhs(spec, 0.0, rho), expected, atol=1e-14)
        assert abs(emitted @ np.append(coordinates(rho), 0.0) - rate) <= 1e-14


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


def test_real_coordinates_round_trip():
    # populations, then Re and Im of rho_01, rho_02, rho_03, rho_12, rho_13, rho_23
    rng = np.random.default_rng(5)
    states = []
    for _ in range(18):
        rho = random_density(rng)
        rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian
        x = coordinates(rho)
        assert x.dtype == np.float64 and x.shape == (16,)
        assert x[:4].tolist() == np.diagonal(rho).real.tolist()
        assert x[4:6].tolist() == [rho[0, 1].real, rho[0, 1].imag]
        assert x[14:].tolist() == [rho[2, 3].real, rho[2, 3].imag]
        back = density_matrices(x)
        assert np.array_equal(back, rho)
        assert np.array_equal(back, back.conj().T)  # Hermitian bit for bit
        states.append((rho, x))
    # batched: (3, 6, 16) coordinates to (3, 6, 4, 4) states
    rhos, xs = (np.array(a).reshape(3, 6, *a[0].shape) for a in zip(*states))
    assert np.array_equal(density_matrices(xs), rhos)


@pytest.mark.parametrize("theta", [math.pi / 2, 1.2])  # 1.2: nonzero Lamb shifts
@pytest.mark.parametrize("direction", ["right", "left"])
def test_cascaded_superoperator_matches_textbook(theta, direction):
    spec = chiral_spec(ChiralProtocol(gamma_max=0.1, tau=50.0, theta=theta, direction=direction))
    ts = np.array([0.0, 30.0, 50.0, 80.0])  # rising, on and past the kink, falling
    G = generators(spec, ts)
    assert G.shape == (4, 17, 17) and G.dtype == np.float64  # real coordinates
    assert not G[:, :, 16].any()  # the flux never feeds back
    for t, g in zip(ts.tolist(), G):
        assert np.abs(g - generators(spec, t)).max() <= 1e-15
        for _ in range(10):
            rho = random_density(RNG)
            expected, rate = textbook_rhs(spec, t, rho)
            out = g @ np.append(coordinates(rho), 0.0)
            assert np.abs(density_matrices(out[:16]) - expected).max() <= 1e-14
            assert abs(out[16] - rate) <= 1e-14
            assert np.abs(rhs(spec, t, rho) - expected).max() <= 1e-14


def test_generator_bits_match_matmul_form():
    # random bidirectional cells (cell i < 3 drops rate i; Lamb shifts and
    # Gamma_coll take both signs) and cascaded cells, constant and
    # time-dependent: a cell's coefficients times the basis sliced to a
    # state's blocks are the same slice of its generators, bit for bit, and
    # a cell alone gets the coefficients it gets in the batch
    specs = []
    for i in range(12):
        lamb = RNG.normal(size=2)
        rates = RNG.uniform(0.01, 1.0, size=3) * (1.0, 1.0, RNG.choice((-1.0, 1.0)))
        if i < 3:
            rates[i] = 0.0
        specs.append(LiouvillianSpec(CouplingParams(*lamb, RNG.normal(), *rates)))
    specs += [cascaded_spec(CASCADED_RIGHT), cascaded_spec(CASCADED_LEFT),
              chiral_spec(ChiralProtocol(gamma_max=0.1, tau=50.0, theta=1.2, direction="left"))]
    times = np.array([[0.0, 30.0, 50.0], [80.0, 10.0, 49.5]])
    c = make_generator(specs)(times)
    assert c.shape == (len(specs), 2, 3, 7)
    blocks = [block_basis(coordinates(rho)) for rho in (projector("eg"), random_density(RNG))]
    assert [len(idx) for idx, _ in blocks] == [7, 17]
    for i, spec in enumerate(specs):
        alone = make_generator([spec])(times)
        assert (alone.view(np.uint64) == c[i:i + 1].view(np.uint64)).all()
        G = generators(spec, times)
        for idx, basis in blocks:
            got = (c[i] @ basis).reshape(2, 3, len(idx), len(idx))
            assert (got.view(np.uint64) == G[..., idx[:, None], idx].view(np.uint64)).all()


def test_rhs_linearity():
    spec = spec_for(NESTED, 1.1)
    G = generators(spec, 0.0)
    for _ in range(10):
        x1, x2 = (np.append(coordinates(random_density(RNG)), 0.0) for _ in range(2))
        a, b = 0.3, -0.7
        np.testing.assert_allclose(G @ (a * x1 + b * x2), a * (G @ x1) + b * (G @ x2), atol=1e-13)
    # and linear in the coefficients: the generators of the sum of two
    # parameter sets are the sum of their generators
    p, q = spec.params, spec_for(BRAIDED, 0.7).params
    pq = CouplingParams(*(getattr(p, f) + getattr(q, f) for f in p.__dataclass_fields__))
    c = make_generator([spec, LiouvillianSpec(q), LiouvillianSpec(pq)])(0.0)
    np.testing.assert_allclose(c[0] + c[1], c[2], atol=1e-16)
    np.testing.assert_allclose(G + generators(LiouvillianSpec(q), 0.0),
                               generators(LiouvillianSpec(pq), 0.0), atol=1e-15)
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
    # make_generator takes either kind, constant or time-dependent; a
    # constant cell repeats its coefficients at every time, and a cascaded
    # one weighs the basis by kappa_j = Gamma_j / 2
    casc = cascaded_spec(CASCADED_LEFT)
    c = make_generator([LiouvillianSpec(p), casc, chiral_spec(ChiralProtocol(0.1, 50.0))])(
        np.array([0.0, 30.0]))
    assert c.shape == (3, 2, 7)
    assert c[0].tolist() == [[p.Gamma_a, p.Gamma_b, p.Gamma_coll, p.delta_a, p.delta_b, 0.0, p.g_ab]] * 2
    q = casc.params
    ka, kb = q.Gamma_a / 2, q.Gamma_b / 2
    assert c[1].tolist() == [[ka, kb, math.sqrt(ka * kb), q.delta_a, q.delta_b, -abs(q.g_ab), 0.0]] * 2
    assert not np.array_equal(c[2, 0], c[2, 1])
