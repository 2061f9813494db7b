import itertools
import math

import numpy as np
import pytest

from conftest import (
    DELTA_N, convergence_order, generators, moving_coordinates, random_density, spec_for,
    textbook_rhs,
)
from gaqb.chiral import ChiralProtocol, chiral_spec
from gaqb.geometry import BRAIDED, NESTED, SEPARATED, CouplingParams
from gaqb import integrator
from gaqb.integrator import CHUNK, DivergenceError, PositivityError, TimeGrid, evolve
from gaqb.liouville import (
    CASCADED_RIGHT,
    LiouvillianSpec,
    StateValidationError,
    coordinates,
    density_matrices,
    projector,
)
from gaqb.metrics import compute_records

EG = projector("eg")


def test_zero_generator_trajectory_constant_bitwise():
    spec = spec_for(SEPARATED, math.pi)
    traj = evolve(spec, EG, TimeGrid(0.0, 50.0, dt=0.005, sample_stride=200))
    assert all(np.array_equal(s, EG) for s in traj.states)


def test_rabi_oracle_braided_df():
    traj = evolve(spec_for(BRAIDED, math.pi / 2), EG, TimeGrid(0.0, 20.0, dt=0.02, sample_stride=10))
    pb = traj.states[:, 1, 1].real
    assert np.abs(pb - np.sin(0.1 * traj.times) ** 2).max() <= 1e-6


def test_braided_decoherence_free_points_exactly_lossless():
    # every rate is exactly 0 at the decoherence-free phases and their ulp
    # neighbours, so the default charge window emits no energy at all
    for theta in (math.pi / 2, 3 * math.pi / 2):
        for th in (math.nextafter(theta, 0.0), theta, math.nextafter(theta, 7.0)):
            p = spec_for(BRAIDED, th).params
            assert p.Gamma_a == p.Gamma_b == p.Gamma_coll == 0.0
        traj = evolve(spec_for(BRAIDED, theta), EG, TimeGrid(0.0, 100.0, dt=0.005, sample_stride=50))
        assert not traj.aux.any()


def test_dark_state_half_population_braided_zero():
    # initial |eg> overlaps the non-decaying antisymmetric state with weight 1/2
    traj = evolve(spec_for(BRAIDED, 0.0), EG, TimeGrid(0.0, 100.0, dt=0.02, sample_stride=100))
    pb = traj.states[:, 1, 1].real
    oracle = (1.0 - np.exp(-0.4 * traj.times)) ** 2 / 4.0
    assert np.abs(pb - oracle).max() <= 1e-6
    assert pb[-1] == pytest.approx(0.25, abs=1e-3)


def test_snapshot_times_and_first_state():
    grid = TimeGrid(0.0, 1.003, dt=0.01, sample_stride=7)
    traj = evolve(spec_for(BRAIDED, 0.7), EG, grid)
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
    traj = evolve(spec_for(BRAIDED, 0.7), EG, TimeGrid(0.0, t_end, dt=dt, sample_stride=stride))
    assert traj.times.tolist() == times
    assert traj.step_count == steps
    if steps == 0:
        for state in traj.states:
            assert (state.view(np.uint64) == np.asarray(EG, dtype=complex).view(np.uint64)).all()


def test_purity_and_excitation_conserved_at_df_point():
    traj = evolve(spec_for(BRAIDED, math.pi / 2), EG, TimeGrid(0.0, 100.0, dt=0.02, sample_stride=50))
    for rho in traj.states:
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-8
        assert abs(rho[1, 1].real + rho[2, 2].real + rho[3, 3].real * 2 - 1.0) <= 1e-8


def test_trace_drift_small():
    traj = evolve(spec_for(BRAIDED, 0.7), EG, TimeGrid(0.0, 100.0, dt=0.005, sample_stride=100))
    assert traj.max_trace_drift <= 1e-9
    assert traj.min_eigenvalue >= -1e-8


def test_determinism_bitwise():
    grid = TimeGrid(0.0, 30.0, dt=0.01, sample_stride=30)
    a = evolve(spec_for(BRAIDED, 1.1), EG, grid)
    b = evolve(spec_for(BRAIDED, 1.1), EG, grid)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_convergence_order_smooth():
    order = convergence_order(spec_for(BRAIDED, math.pi / 2), EG, 20.0, dt=0.2)
    assert order == pytest.approx(4.0, abs=0.3)


def test_convergence_order_chiral_smooth_piece():
    # away from the profile kink at t = tau the order stays ~4
    p = ChiralProtocol(gamma_max=0.1, tau=100.0)
    spec = chiral_spec(p)
    order = convergence_order(spec, EG, 80.0, dt=2.0)
    assert order >= 3.7


def test_dt_halving_shrinks_error_16x():
    spec = spec_for(BRAIDED, math.pi / 2)

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
        evolve([spec_for(BRAIDED, 0.7), spec, spec], EG, TimeGrid(0.0, 200.0, dt=0.05, sample_stride=100))
    assert err.value.cell == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error():
    # only the final snapshot is checked, by which point RK4 at lambda*dt = 16
    # has overflowed to non-finite values
    with pytest.raises(DivergenceError):
        evolve(spec_for(BRAIDED, 0.0), EG, TimeGrid(0.0, 20000.0, dt=40.0, sample_stride=10**9))


def test_invalid_initial_state_rejected():
    with pytest.raises(StateValidationError):
        evolve(spec_for(BRAIDED, 0.7), 2.0 * EG, TimeGrid(0.0, 1.0, dt=0.01))


def test_matches_exact_propagator():
    # oracle: the 16x16 Liouville-space generator, assembled column by
    # column from the textbook rhs on the basis matrices |i><j|,
    # exponentiated by eigendecomposition (cond(V) is about 8 here)
    spec = spec_for(NESTED, 1.1)
    basis = np.eye(16, dtype=complex).reshape(16, 4, 4)
    L = np.stack([textbook_rhs(spec, 0.0, u)[0].ravel() for u in basis], axis=1)
    w, V = np.linalg.eig(L)
    t = 50.0
    exact = (V @ (np.exp(w * t) * np.linalg.solve(V, EG.ravel()))).reshape(4, 4)
    traj = evolve(spec, EG, TimeGrid(0.0, t, dt=0.05, sample_stride=10**9))
    assert np.abs(traj.states[-1] - exact).max() <= 1e-10


def test_aux_callback_rejected():
    # no co-integrated callback: the emitted energy fills traj.aux, (T,) for a
    # single run and (N,T) for a batch
    spec = spec_for(BRAIDED, math.pi / 2)
    for other in (spec, [spec], chiral_spec(ChiralProtocol(gamma_max=0.1, tau=10.0))):
        with pytest.raises(ValueError, match="no aux callback"):
            evolve(other, EG, TimeGrid(0.0, 1.0, dt=0.02), aux=lambda t, rho: 0.0)
    grid = TimeGrid(0.0, 1.0, dt=0.02)
    assert evolve([spec, spec], EG, grid, aux=None).aux.shape == (2, 51)
    assert evolve(spec, EG, grid, aux=None).aux.shape == (51,)


def per_stage_rk4(spec, rho, grid):
    """Complex 4x4 RK4 on the textbook rhs at every stage time, stepping
    as evolve does (full steps, then one short step onto t_end).  Returns
    the states and emitted energy after every step."""
    n_full = int(math.floor((grid.t_end - grid.t_start) / grid.dt + 1e-9))
    rem = grid.t_end - grid.t_start - n_full * grid.dt
    states, fluxes, flux = [rho], [0.0], 0.0
    for i in range(n_full + 1):
        t, h = grid.t_start + i * grid.dt, grid.dt if i < n_full else rem
        k1, f1 = textbook_rhs(spec, t, rho)
        k2, f2 = textbook_rhs(spec, t + 0.5 * h, rho + 0.5 * h * k1)
        k3, f3 = textbook_rhs(spec, t + 0.5 * h, rho + 0.5 * h * k2)
        k4, f4 = textbook_rhs(spec, t + h, rho + h * k3)
        rho = rho + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        flux += h / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        states.append(rho)
        fluxes.append(flux)
    return np.array(states), np.array(fluxes)


@pytest.mark.parametrize("direction", ["right", "left"])
def test_cascaded_general_state_matches_per_stage_rk4(direction):
    # a full-rank state fills every Delta n block of the real coordinates;
    # theta = 1.2 gives nonzero Lamb shifts, and the window crosses tau
    # (at 2.0) and ends on a short step
    proto = ChiralProtocol(gamma_max=1.0, tau=2.0, theta=1.2, direction=direction)
    spec = chiral_spec(proto)
    rho0 = random_density(np.random.default_rng(11))
    grid = TimeGrid(0.0, 5.003, dt=0.01, sample_stride=25)
    traj = evolve(spec, rho0, grid)
    oracle, flux = per_stage_rk4(spec, rho0, grid)
    steps = [0, *range(25, 501, 25), 501]
    assert traj.step_count == 501
    assert np.abs(traj.states - oracle[steps]).max() <= 1e-13
    assert np.abs(traj.aux - flux[steps]).max() <= 1e-13
    # Hermitian bit for bit, and a real emitted flux
    assert np.array_equal(traj.states, traj.states.conj().swapaxes(-1, -2))
    assert traj.aux.dtype == np.float64
    # the excitation ledger: n_a + n_b + emitted stays at its initial value
    recs = compute_records(traj)
    ledger = recs.p_a + recs.p_b + traj.aux
    assert np.abs(ledger - ledger[0]).max() <= 1e-12


# zero-rate (braided pi/2, separated pi) and dissipative cells, mirror pairs included
MIXED_SPECS = [spec_for(BRAIDED, math.pi / 2), spec_for(NESTED, 1.1),
               spec_for(NESTED, 2 * math.pi - 1.1), spec_for(SEPARATED, math.pi),
               spec_for(SEPARATED, 0.3)]
MIXED_GRID = TimeGrid(0.0, 3.0, dt=0.07, sample_stride=4)  # 42 full steps plus 0.06


def test_batch_matches_per_cell_path_bitwise():
    # from a mixed state with coherences in every entry
    rho0 = random_density(np.random.default_rng(5))
    batch = evolve(MIXED_SPECS, rho0, MIXED_GRID)
    assert batch.states.shape == (5, len(batch.times), 4, 4)
    assert batch.aux.shape == batch.states.shape[:2]
    assert batch.max_trace_drift.shape == batch.min_eigenvalue.shape == (5,)
    steps = [0, *range(4, 43, 4), 43]
    for i, spec in enumerate(MIXED_SPECS):
        alone = evolve([spec], rho0, MIXED_GRID)
        assert alone.states.shape == (1, *batch.states.shape[1:])
        assert (alone.states[0].view(np.uint64) == batch.states[i].view(np.uint64)).all()
        assert (alone.aux[0].view(np.uint64) == batch.aux[i].view(np.uint64)).all()
        assert alone.max_trace_drift[0] == batch.max_trace_drift[i]
        oracle, flux = per_stage_rk4(spec, rho0, MIXED_GRID)
        assert np.abs(batch.states[i] - oracle[steps]).max() <= 1e-13
        assert np.abs(batch.aux[i] - flux[steps]).max() <= 1e-13


def test_bidirectional_general_state_matches_per_stage_rk4():
    # a single run marches real coordinates: every Delta n block of a
    # full-rank state, and the emitted energy as a 17th component
    rho0 = random_density(np.random.default_rng(5))
    steps = [0, *range(4, 43, 4), 43]
    for spec in MIXED_SPECS:
        traj = evolve(spec, rho0, MIXED_GRID)
        oracle, flux = per_stage_rk4(spec, rho0, MIXED_GRID)
        assert traj.step_count == 43
        assert np.abs(traj.states - oracle[steps]).max() <= 1e-13
        assert np.abs(traj.aux - flux[steps]).max() <= 1e-13
        assert np.array_equal(traj.states, traj.states.conj().swapaxes(-1, -2))


def test_single_run_energy_ledger():
    # stored excitation n_a + n_b plus the energy emitted into the waveguide
    # stays at the one excitation of |eg>
    grid = TimeGrid(0.0, 100.0, dt=0.01, sample_stride=50)
    for topo, theta in itertools.product((BRAIDED, SEPARATED, NESTED), (0.4, 1.3, math.pi / 2, 2.2)):
        traj = evolve(spec_for(topo, theta), EG, grid)
        pops = np.diagonal(traj.states, axis1=1, axis2=2).real
        ledger = pops[:, 2] + pops[:, 1] + 2.0 * pops[:, 3] + traj.aux
        assert np.abs(ledger - 1.0).max() <= 1e-12, (topo.variant, theta)


def test_batch_energy_ledger():
    # the same ledger for every cell of a batch, as the sweep runs them:
    # traj.aux holds each cell's emitted energy
    specs = [spec_for(topo, theta) for topo in (BRAIDED, SEPARATED, NESTED)
             for theta in np.linspace(0.0, 2.0 * math.pi, 9)]
    traj = evolve(specs, EG, TimeGrid(0.0, 100.0, dt=0.04, sample_stride=5))
    recs = compute_records(traj)
    assert traj.aux.shape == recs.shape == (27, 501)
    assert np.abs(recs.p_a + recs.p_b + traj.aux - 1.0).max() <= 1e-12


def test_excitation_blocks_closed():
    # every generator conserves the excitation number: none couples two
    # coordinates of different |Delta n| (the flux counts as Delta n = 0),
    # and from |eg> every entry of rho outside the Delta n = 0 block stays
    # exactly 0, single run and batch alike
    delta_n = np.append(DELTA_N, 0)
    cross = delta_n[:, None] != delta_n
    chiral = chiral_spec(ChiralProtocol(gamma_max=1.0, tau=2.0, theta=1.2, direction="left"))
    specs = [spec_for(topo, theta) for topo in (BRAIDED, SEPARATED, NESTED) for theta in (0.4, 2.2)]
    specs += [LiouvillianSpec(CouplingParams(0.3, -0.2, 0.5, 0.7, 0.1, -0.4)), chiral,
              LiouvillianSpec(chiral.params(1.0), dissipator_kind=CASCADED_RIGHT)]
    for spec in specs:
        assert not generators(spec, np.array([0.0, 1.0, 2.0, 3.5]))[:, cross].any()
    excitations = np.array([0, 1, 1, 2])
    off_block = excitations[:, None] != excitations
    grid = TimeGrid(0.0, 5.003, dt=0.01, sample_stride=25)
    for states in (evolve(specs, EG, grid).states, evolve(chiral, EG, grid).states,
                   evolve(specs[0], EG, grid).states):
        assert not states[..., off_block].any()
        assert states[..., ~off_block].any()


def test_conjugate_phases_give_conjugate_states():
    # H and the jump operators are real, and theta -> -theta flips the sign
    # of every delta and g_ab and keeps the rates, so rho(-theta) = rho(theta)*
    # exactly, and every real metric is equal bit for bit
    thetas = (0.4, 1.3, math.pi / 2, 2.2, 3.0)
    specs = [spec_for(topo, sign * theta) for topo in (BRAIDED, SEPARATED, NESTED)
             for theta in thetas for sign in (1.0, -1.0)]
    traj = evolve(specs, EG, TimeGrid(0.0, 20.0, dt=0.04, sample_stride=5))
    states = traj.states.reshape(15, 2, *traj.states.shape[1:])
    assert states[:, 0].imag.any()
    assert (states[:, 1] == states[:, 0].conj()).all()
    recs = compute_records(traj).reshape(15, 2, -1)
    for name in ("E", "p_a", "sigma", "purity"):
        assert (recs[name][:, 0].view(np.uint64) == recs[name][:, 1].view(np.uint64)).all(), name


def chunked_march_coordinates(spec, rho0, grid):
    """The single-spec march with every step's own increment map: on the
    coordinates of the blocks rho0 fills plus the flux, the maps
    D = h/6 (L1 + 2 A2 + 2 A3 + A4) of 64 steps at a time from the
    generators at their stage times, each step v + D v with the trace,
    summed as ((x0 + x1) + x2) + x3, renormalized above 1e-12.  Returns the
    (T,17) snapshot coordinates, the maximum trace drift over the steps
    whose drift is not NaN, and the renormalized steps."""
    span = grid.t_end - grid.t_start
    n_full = int(math.floor(span / grid.dt + 1e-9))
    rem = span - n_full * grid.dt
    if rem < 1e-12 * max(1.0, abs(grid.t_end)):
        rem = 0.0
    n = n_full + (rem > 0.0)
    snaps = [0, *range(grid.sample_stride, n, grid.sample_stride), n]
    idx = moving_coordinates(rho0)
    v = np.append(coordinates(rho0), 0.0)[idx]
    out = np.zeros((len(snaps), 17))
    out[0, idx] = v
    drift_max, k, renormalized = 0.0, 1, []
    for start in range(0, n, 64):
        i = np.arange(start, min(start + 64, n))
        t = grid.t_start + i * grid.dt
        h = np.where(i < n_full, grid.dt, rem)
        L1, L2, L4 = generators(spec, np.stack([t, t + 0.5 * h, t + h]))[..., idx[:, None], idx]
        h = h[:, None, None]
        A2 = L2 + (L2 @ L1) * (0.5 * h)
        A3 = L2 + (L2 @ A2) * (0.5 * h)
        A4 = L4 + (L4 @ A3) * h
        for step, d in enumerate(((A2 + A3) * 2.0 + L1 + A4) * (h / 6.0), start + 1):
            v = v + d @ v
            trace = ((v[0] + v[1]) + v[2]) + v[3]
            drift_max = max(drift_max, abs(trace - 1.0))
            if abs(trace - 1.0) > 1e-12:
                v[:-1] /= trace
                renormalized.append(step)
            if step == snaps[k]:
                out[k, idx] = v
                k += 1
    out[-1, idx] = v
    return out, drift_max, renormalized


def chunked_march(spec, rho0, grid):
    """The states, emitted energy and maximum trace drift of
    :func:`chunked_march_coordinates`."""
    out, drift_max, _ = chunked_march_coordinates(spec, rho0, grid)
    return density_matrices(out[:, :16]), out[:, 16], drift_max


def test_single_march_matches_chunked_maps_bitwise():
    # a time-independent spec steps with one map per step size and must get
    # the bits of building each step's own map.  Every grid but the first
    # ends on a short step (501 x 0.02 + 0.01, 42 x 0.07 + 0.06, 500 x 0.01
    # + 0.003, 50 x 0.02 + 0.003); the chiral spec is time-dependent.  A
    # stride of 100 leaves blocks of 64 steps with no snapshot, and a window
    # of 51 steps is shorter than one block
    full_rank = random_density(np.random.default_rng(5))
    chiral = chiral_spec(ChiralProtocol(gamma_max=1.0, tau=2.0, theta=1.2))
    cases = [(spec_for(BRAIDED, math.pi / 2), EG, TimeGrid(0.0, 20.0, dt=0.005, sample_stride=1)),
             (spec_for(NESTED, 1.1), EG, TimeGrid(0.0, 10.03, dt=0.02, sample_stride=7)),
             (spec_for(NESTED, 1.1), EG, TimeGrid(0.0, 10.03, dt=0.02, sample_stride=100)),
             *((spec, full_rank, MIXED_GRID) for spec in MIXED_SPECS),
             (chiral, full_rank, TimeGrid(0.0, 5.003, dt=0.01, sample_stride=25)),
             (chiral, full_rank, TimeGrid(0.0, 5.003, dt=0.01, sample_stride=100)),
             *((spec, full_rank, TimeGrid(0.0, 1.003, dt=0.02, sample_stride=7))
               for spec in (spec_for(NESTED, 1.1), chiral))]
    for spec, rho0, grid in cases:
        traj = evolve(spec, rho0, grid)
        states, flux, drift = chunked_march(spec, rho0, grid)
        assert (traj.states.view(np.uint64) == states.view(np.uint64)).all()
        assert (traj.aux.view(np.uint64) == flux.view(np.uint64)).all()
        assert traj.max_trace_drift == drift


NEGATIVE_RATE = LiouvillianSpec(CouplingParams(0.0, 0.0, 0.0, -0.2, 0.0, 0.0))


def bits(x):
    return np.asarray(x).view(np.uint64)


@pytest.mark.parametrize("specs, rho0, grid, counts, diverged", [
    # the negative-rate cell first drifts past 1e-12 at step 242, inside a
    # block, then often several times in one block; its neighbours never do
    ([spec_for(BRAIDED, 0.4), NEGATIVE_RATE, spec_for(NESTED, 1.1)],
     random_density(np.random.default_rng(5)), TimeGrid(0.0, 100.0, dt=0.2, sample_stride=3),
     [0, 166, 0], []),
    # RK4 at lambda dt = 16 renormalizes braided 0 five times, then its state
    # goes non-finite and the NaN drifts are skipped; separated pi is the
    # zero generator, and braided pi/2 diverges after one renormalization
    ([spec_for(SEPARATED, math.pi), spec_for(BRAIDED, 0.0), spec_for(BRAIDED, math.pi / 2)], EG,
     TimeGrid(0.0, 20000.0, dt=40.0, sample_stride=7), [0, 5, 1], [1, 2]),
])
def test_renormalizing_march_matches_per_step_loop_bitwise(monkeypatch, specs, rho0, grid, counts,
                                                           diverged):
    # the snapshot check rejects these runs; skip it to compare the marches
    monkeypatch.setattr(integrator, "_check_snapshots", lambda times, x: np.zeros(len(x)))
    with np.errstate(all="ignore"):
        batch = evolve(specs, rho0, grid)
        assert batch.renormalizations.tolist() == counts
        assert np.isnan(batch.coordinates).any(axis=(1, 2)).nonzero()[0].tolist() == diverged
        assert np.isfinite(batch.max_trace_drift).all()
        for i, spec in enumerate(specs):
            alone = evolve(spec, rho0, grid)
            assert isinstance(alone.renormalizations, int)
            out, drift, steps = chunked_march_coordinates(spec, rho0, grid)
            assert len(steps) == counts[i]
            assert not steps or steps[0] % CHUNK  # the first renormalization is inside a block
            for traj, cell in ((alone, ...), (batch, i)):
                assert (bits(traj.states[cell]) == bits(density_matrices(out[:, :16]))).all()
                assert (bits(traj.aux[cell]) == bits(out[:, 16])).all()
                assert bits(np.asarray(traj.max_trace_drift)[cell]) == bits(drift)
                assert np.asarray(traj.renormalizations)[cell] == len(steps)


def long_double_rk4(specs, h, n_steps, stride):
    """p_a and p_b after every stride-th step of RK4 from |eg>, in long double.

    From |eg> the state stays in the one-excitation block R over (|eg>, |ge>)
    plus |gg>, and dR/dt = K R + R K^dag with K = -i H_eff,
    H_eff = [[delta_a - i Gamma_a/2, g_ab - i Gamma_coll/2],
             [g_ab - i Gamma_coll/2, delta_b - i Gamma_b/2]].
    R is marched in its real coordinates (R_aa, R_bb, Re R_ab, Im R_ab).
    """
    ld = np.longdouble
    K = np.zeros((len(specs), 2, 2), dtype=np.clongdouble)
    for k, spec in enumerate(specs):
        p = spec.params
        off = ld(p.g_ab) - 0.5j * ld(p.Gamma_coll)
        H = [[ld(p.delta_a) - 0.5j * ld(p.Gamma_a), off], [off, ld(p.delta_b) - 0.5j * ld(p.Gamma_b)]]
        K[k] = -1j * np.array(H, dtype=np.clongdouble)
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]],
                     dtype=np.clongdouble)
    images = K[:, None] @ basis + basis @ K[:, None].conj().swapaxes(-1, -2)  # (N,4,2,2)
    G = np.stack([images[..., 0, 0].real, images[..., 1, 1].real,
                  images[..., 0, 1].real, images[..., 0, 1].imag], axis=-2)  # (N,4,4)
    x = np.zeros((len(specs), 4, 1), dtype=ld)
    x[:, 0] = 1
    out = [x[:, :2, 0].copy()]
    for step in range(1, n_steps + 1):
        k1 = G @ x
        k2 = G @ (x + (h / 2) * k1)
        k3 = G @ (x + (h / 2) * k2)
        k4 = G @ (x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if step % stride == 0:
            out.append(x[:, :2, 0].copy())
    return np.stack(out, axis=1)  # (N,T,2): p_a, p_b


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than double here; the oracle needs eps < 1e-18")
def test_single_runs_match_long_double_rk4():
    # the rounding of the float64 march against the same RK4 recursion in
    # long double, on and off the decoherence-free points
    cells = [(BRAIDED, math.pi / 2), (BRAIDED, 0.4), (SEPARATED, math.pi), (SEPARATED, 1.3),
             (NESTED, 1.1), (NESTED, 2.2)]
    specs = [spec_for(topo, theta) for topo, theta in cells]
    grid = TimeGrid(0.0, 100.0, dt=0.005, sample_stride=50)
    oracle = long_double_rk4(specs, np.longdouble(grid.dt), 20000, 50)
    for spec, want in zip(specs, oracle):
        traj = evolve(spec, EG, grid)
        assert traj.step_count == 20000 and len(traj.times) == 401
        recs = compute_records(traj)
        got = np.stack([recs.p_a, recs.p_b], axis=-1)
        assert np.abs(got - want).max() <= 3e-14


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0)
    with pytest.raises(ValueError, match="dt = 1e-300 needs 1e\\+300 steps"):
        TimeGrid(0.0, 1.0, dt=1e-300)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, dt=0.1, sample_stride=0)


def test_grid_stride_must_be_an_integer():
    with pytest.raises(ValueError, match="sample_stride must be an integer"):
        TimeGrid(0.0, 1.0, dt=0.1, sample_stride=2.5)
    # numpy integers stay accepted and sample as ints do
    runs = [evolve(spec_for(BRAIDED, 0.7), EG, TimeGrid(0.0, 1.0, dt=0.1, sample_stride=s))
            for s in (2, np.int64(2))]
    assert np.array_equal(runs[0].times, runs[1].times) and len(runs[0].times) == 6


def test_records_attached_by_metrics():
    traj = evolve(spec_for(BRAIDED, math.pi / 2), EG, TimeGrid(0.0, 10.0, dt=0.02, sample_stride=50))
    recs = compute_records(traj)
    assert len(recs) == len(traj.times)
    assert recs[0].p_a == pytest.approx(1.0)
