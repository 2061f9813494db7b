import math

import numpy as np
import pytest

from gaqb.chiral import ChiralProtocol, chiral_spec
from gaqb.geometry import (
    BRAIDED,
    NESTED,
    SEPARATED,
    CouplingLayout,
    CouplingParams,
    closed_form_params,
)
from gaqb.integrator import (
    DivergenceError,
    PositivityError,
    TimeGrid,
    convergence_order,
    evolve,
)
from gaqb.liouville import (
    EXCHANGE,
    NUMBER_A,
    NUMBER_B,
    SIGMA_MINUS_A,
    SIGMA_MINUS_B,
    LiouvillianSpec,
    StateValidationError,
    effective_hamiltonian,
    make_generator,
    projector,
)
from gaqb.metrics import compute_records


def spec_for(theta, gamma=0.1, topo=BRAIDED):
    return LiouvillianSpec(closed_form_params(CouplingLayout(topo, theta, gamma)))


EG = projector("eg")


def test_zero_generator_trajectory_constant_bitwise():
    spec = spec_for(math.pi, topo=SEPARATED)
    traj = evolve(spec, EG, TimeGrid(0.0, 50.0, dt=0.005, sample_stride=200))
    assert all(np.array_equal(s, EG) for s in traj.states)


def test_rabi_oracle_braided_df():
    traj = evolve(spec_for(math.pi / 2), EG, TimeGrid(0.0, 20.0, dt=0.02, sample_stride=10))
    pb = traj.states[:, 1, 1].real
    assert np.abs(pb - np.sin(0.1 * traj.times) ** 2).max() <= 1e-6


def test_dark_state_half_population_braided_zero():
    # initial |eg> overlaps the non-decaying antisymmetric state with weight 1/2
    traj = evolve(spec_for(0.0), EG, TimeGrid(0.0, 100.0, dt=0.02, sample_stride=100))
    pb = traj.states[:, 1, 1].real
    oracle = (1.0 - np.exp(-0.4 * traj.times)) ** 2 / 4.0
    assert np.abs(pb - oracle).max() <= 1e-6
    assert pb[-1] == pytest.approx(0.25, abs=1e-3)


def test_snapshot_times_and_first_state():
    grid = TimeGrid(0.0, 1.003, dt=0.01, sample_stride=7)
    traj = evolve(spec_for(0.7), EG, grid)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.003
    assert np.all(np.diff(traj.times) > 0)
    np.testing.assert_array_equal(traj.states[0], EG)


@pytest.mark.parametrize("t_end, dt, stride, times, steps", [
    (1.0, 0.25, 2, [0.0, 0.5, 1.0], 4),
    (1.1, 0.25, 2, [0.0, 0.5, 1.0, 1.1], 5),  # the short last step is not a stride step
    (1.0, 0.3, 10, [0.0, 1.0], 4),
    (1e-13, 0.01, 1, [0.0, 1e-13], 0),  # below the remainder floor: no step at all
])
def test_snapshot_schedule(t_end, dt, stride, times, steps):
    traj = evolve(spec_for(0.7), EG, TimeGrid(0.0, t_end, dt=dt, sample_stride=stride))
    assert traj.times.tolist() == times
    assert traj.step_count == steps
    if steps == 0:
        for state in traj.states:
            assert (state.view(np.uint64) == np.asarray(EG, dtype=complex).view(np.uint64)).all()


def test_purity_and_excitation_conserved_at_df_point():
    traj = evolve(spec_for(math.pi / 2), EG, TimeGrid(0.0, 100.0, dt=0.02, sample_stride=50))
    for rho in traj.states:
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-8
        assert abs(rho[1, 1].real + rho[2, 2].real + rho[3, 3].real * 2 - 1.0) <= 1e-8


def test_trace_drift_small():
    traj = evolve(spec_for(0.7), EG, TimeGrid(0.0, 100.0, dt=0.005, sample_stride=100))
    assert traj.max_trace_drift <= 1e-9
    assert traj.min_eigenvalue >= -1e-8


def test_determinism_bitwise():
    grid = TimeGrid(0.0, 30.0, dt=0.01, sample_stride=30)
    a = evolve(spec_for(1.1), EG, grid)
    b = evolve(spec_for(1.1), EG, grid)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_convergence_order_smooth():
    order = convergence_order(spec_for(math.pi / 2), EG, 20.0, dt=0.2)
    assert order == pytest.approx(4.0, abs=0.3)


def test_convergence_order_chiral_smooth_piece():
    # away from the profile kink at t = tau the order stays ~4
    p = ChiralProtocol(gamma_max=0.1, tau=100.0)
    spec = chiral_spec(p)
    order = convergence_order(spec, EG, 80.0, dt=2.0)
    assert order >= 3.7


def test_dt_halving_shrinks_error_16x():
    spec = spec_for(math.pi / 2)

    def err(dt):
        traj = evolve(spec, EG, TimeGrid(0.0, 20.0, dt=dt, sample_stride=10**9))
        pb = traj.states[-1][1, 1].real
        return abs(pb - math.sin(0.1 * 20.0) ** 2)

    ratio = err(0.2) / err(0.1)
    assert 12.0 <= ratio <= 20.0


def test_positivity_error_names_time():
    # an unphysical negative rate pumps the state out of the PSD cone
    bad = CouplingParams(0.0, 0.0, 0.0, -0.2, 0.0, 0.0)
    spec = LiouvillianSpec(bad)
    with pytest.raises(PositivityError, match="t = "):
        evolve(spec, EG, TimeGrid(0.0, 200.0, dt=0.05, sample_stride=100))
    # in a batch, the error names the first failing cell
    with pytest.raises(PositivityError, match="t = ") as err:
        evolve([spec_for(0.7), spec, spec], EG, TimeGrid(0.0, 200.0, dt=0.05, sample_stride=100))
    assert err.value.cell == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error():
    # only the final snapshot is checked, by which point RK4 at lambda*dt = 16
    # has overflowed to non-finite values
    with pytest.raises(DivergenceError):
        evolve(spec_for(0.0), EG, TimeGrid(0.0, 20000.0, dt=40.0, sample_stride=10**9))


def test_invalid_initial_state_rejected():
    with pytest.raises(StateValidationError):
        evolve(spec_for(0.7), 2.0 * EG, TimeGrid(0.0, 1.0, dt=0.01))


def test_matches_exact_propagator():
    # oracle: the 16x16 Liouville-space generator, assembled column by
    # column from the rhs on the basis matrices |i><j|, exponentiated by
    # eigendecomposition (cond(V) is about 8 here)
    spec = spec_for(1.1, topo=NESTED)
    gen = make_generator(spec)
    basis = np.eye(16, dtype=complex).reshape(16, 4, 4)
    L = np.stack([gen(0.0, b).ravel() for b in basis], axis=1)
    w, V = np.linalg.eig(L)
    t = 50.0
    exact = (V @ (np.exp(w * t) * np.linalg.solve(V, EG.ravel()))).reshape(4, 4)
    traj = evolve(spec, EG, TimeGrid(0.0, t, dt=0.05, sample_stride=10**9))
    assert np.abs(traj.states[-1] - exact).max() <= 1e-10


def test_aux_callback_rejected():
    # no co-integrated callback: only a cascaded spec's emitted flux fills traj.aux
    spec = spec_for(math.pi / 2)
    for other in (spec, [spec], chiral_spec(ChiralProtocol(gamma_max=0.1, tau=10.0))):
        with pytest.raises(ValueError, match="no aux callback"):
            evolve(other, EG, TimeGrid(0.0, 1.0, dt=0.02), aux=lambda t, rho: 0.0)
    assert evolve(spec, EG, TimeGrid(0.0, 1.0, dt=0.02), aux=None).aux is None


def reference_step(spec, rho, h):
    """One step of the per-cell path: a 4x4 RK4 step whose rhs skips a
    zero-rate jump term with an `if`, then re-Hermitization and the
    drift > 1e-12 renormalization."""
    p = spec.params
    K = -1j * effective_hamiltonian(spec) - 0.5 * (
        p.Gamma_a * NUMBER_A + p.Gamma_b * NUMBER_B + p.Gamma_coll * EXCHANGE
    )
    Kd = K.conj().T
    sa, sb = SIGMA_MINUS_A, SIGMA_MINUS_B
    sad, sbd = sa.conj().T, sb.conj().T

    def gen(r):
        out = K @ r + r @ Kd
        if p.Gamma_a != 0.0:
            out += p.Gamma_a * (sa @ r @ sad)
        if p.Gamma_b != 0.0:
            out += p.Gamma_b * (sb @ r @ sbd)
        if p.Gamma_coll != 0.0:
            out += p.Gamma_coll * (sa @ r @ sbd + sb @ r @ sad)
        return out

    k1 = gen(rho)
    k2 = gen(rho + (0.5 * h) * k1)
    k3 = gen(rho + (0.5 * h) * k2)
    k4 = gen(rho + h * k3)
    rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = 0.5 * (rho + rho.conj().T)
    if abs(rho.trace().real - 1.0) > 1e-12:
        rho = rho / rho.trace().real
    return rho


def test_batch_matches_per_cell_path_bitwise():
    # zero-rate (braided pi/2, separated pi) and dissipative cells, mirror
    # pairs included, from a mixed state with coherences in every entry
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = a @ a.conj().T
    rho0 /= rho0.trace().real
    specs = [spec_for(math.pi / 2), spec_for(1.1, topo=NESTED),
             spec_for(2 * math.pi - 1.1, topo=NESTED), spec_for(math.pi, topo=SEPARATED),
             spec_for(0.3, topo=SEPARATED)]
    grid = TimeGrid(0.0, 3.0, dt=0.07, sample_stride=4)  # 42 full steps plus 0.06
    batch = evolve(specs, rho0, grid)
    assert batch.states.shape == (5, len(batch.times), 4, 4)
    assert batch.max_trace_drift.shape == batch.min_eigenvalue.shape == (5,)
    for i, spec in enumerate(specs):
        alone = evolve(spec, rho0, grid)
        assert alone.states.shape == batch.states.shape[1:]
        assert (alone.states.view(np.uint64) == batch.states[i].view(np.uint64)).all()
        assert alone.max_trace_drift == batch.max_trace_drift[i]
        rho = np.array(rho0, dtype=complex)
        for _ in range(42):
            rho = reference_step(spec, rho, 0.07)
        rho = reference_step(spec, rho, 3.0 - 42 * 0.07)
        assert (rho.view(np.uint64) == alone.states[-1].view(np.uint64)).all()


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0)
    with pytest.raises(ValueError, match="dt = 1e-300 needs 1e\\+300 steps"):
        TimeGrid(0.0, 1.0, dt=1e-300)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, dt=0.1, sample_stride=0)


def test_records_attached_by_metrics():
    traj = evolve(spec_for(math.pi / 2), EG, TimeGrid(0.0, 10.0, dt=0.02, sample_stride=50))
    recs = compute_records(traj)
    assert len(recs) == len(traj.times)
    assert recs[0].p_a == pytest.approx(1.0)
