import math

import numpy as np
import pytest

from conftest import charger_state, ergotropy_closed_form
from gaqb.geometry import BRAIDED, CouplingLayout, closed_form_params
from gaqb.integrator import TimeGrid, evolve
from gaqb.liouville import LiouvillianSpec, ket, projector
from gaqb.metrics import (
    BatteryState,
    average_power,
    charger_population,
    compute_records,
    energy,
    ergotropy,
    fluctuation,
    partial_trace_battery,
    purity,
)

RNG = np.random.default_rng(77)


def battery(p, c=0.0):
    rho = np.array([[1.0 - p, np.conj(c)], [c, p]], dtype=complex)
    return BatteryState(rho=rho, p=p, c=complex(c))


def random_battery():
    p = RNG.uniform(0.0, 1.0)
    r = math.sqrt(p * (1.0 - p)) * math.sqrt(RNG.uniform(0.0, 1.0))
    phi = RNG.uniform(0.0, 2 * math.pi)
    return battery(p, r * np.exp(1j * phi))


# --- partial trace ----------------------------------------------------------

def test_partial_trace_basis_states():
    b = partial_trace_battery(projector("eg"))
    np.testing.assert_allclose(b.rho, np.diag([1.0, 0.0]), atol=1e-15)
    assert b.p == 0.0
    b = partial_trace_battery(projector("ge"))
    np.testing.assert_allclose(b.rho, np.diag([0.0, 1.0]), atol=1e-15)
    assert b.p == 1.0


def test_partial_trace_dark_state_mixture():
    dark = (ket("eg") - ket("ge")) / math.sqrt(2)
    rho = 0.5 * np.outer(dark, dark.conj()) + 0.5 * projector("gg")
    b = partial_trace_battery(rho)
    np.testing.assert_allclose(b.rho, np.diag([0.75, 0.25]), atol=1e-15)
    assert charger_population(rho) == pytest.approx(0.25)


def test_charger_state_matches_index_loop():
    rng = np.random.default_rng(5)  # own stream: leaves RNG's draws to later tests
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= rho.trace().real
    loop = np.array([[rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1] for j in range(2)]
                     for i in range(2)])
    assert np.array_equal(charger_state(rho), loop)
    assert charger_state(rho)[1, 1].real == charger_population(rho)


def test_partial_trace_keeps_coherence():
    plus = (ket("gg") + ket("ge")) / math.sqrt(2)
    b = partial_trace_battery(np.outer(plus, plus.conj()))
    assert b.c == pytest.approx(0.5)
    assert abs(b.c) ** 2 <= b.p * (1 - b.p) + 1e-9


# --- energy / ergotropy ------------------------------------------------------

def test_energy_endpoints():
    assert energy(battery(0.0)) == 0.0
    assert energy(battery(0.25)) == pytest.approx(0.25)


def test_ergotropy_examples():
    assert ergotropy(battery(1.0)) == pytest.approx(1.0, abs=1e-14)
    assert ergotropy(battery(0.25)) == pytest.approx(0.0, abs=1e-14)  # passive
    assert ergotropy(battery(0.5, 0.5)) == pytest.approx(0.5, abs=1e-14)  # |+>


def test_ergotropy_eigen_vs_closed_form():
    for _ in range(1000):
        b = random_battery()
        assert abs(ergotropy(b) - ergotropy_closed_form(b)) <= 1e-12


def test_ergotropy_phase_invariant():
    for _ in range(100):
        b = random_battery()
        phi = RNG.uniform(0, 2 * math.pi)
        rotated = battery(b.p, b.c * np.exp(1j * phi))
        assert abs(ergotropy(b) - ergotropy(rotated)) <= 1e-12


def test_ergotropy_bounded_by_energy():
    for _ in range(200):
        b = random_battery()
        e, w = energy(b), ergotropy(b)
        assert -1e-12 <= w <= e + 1e-9 <= 1.0 + 2e-9


# --- fluctuation / power ------------------------------------------------------

def test_fluctuation_examples():
    b0 = battery(0.0)
    assert fluctuation(b0, b0) == 0.0
    assert fluctuation(battery(0.5), b0) == pytest.approx(0.5, abs=1e-14)
    assert fluctuation(battery(0.75), b0) == pytest.approx(0.43301270189221932, abs=1e-14)
    # can go negative when the initial state had more spread
    assert fluctuation(battery(0.999), battery(0.5)) < 0.0


def test_average_power():
    assert average_power(0.5, 10.0) == pytest.approx(0.05)
    assert average_power(0.7, 0.0) == 0.0
    with pytest.raises(ValueError):
        average_power(0.1, -1.0)


# --- full-record pipeline ------------------------------------------------------

def test_records_single_excitation_runs_stay_diagonal():
    # Charging from |e_a g_b> never creates 0-1 coherence on the battery,
    # so the ergotropy reduces to max(0, 2 p - 1).
    spec = LiouvillianSpec(closed_form_params(CouplingLayout(BRAIDED, 0.9, 0.1)))
    traj = evolve(spec, projector("eg"), TimeGrid(0.0, 60.0, dt=0.02, sample_stride=60))
    recs = compute_records(traj)
    for rho, rec in zip(traj.states, recs):
        b = partial_trace_battery(rho)
        assert abs(b.c) <= 1e-10
        assert rec.ergotropy == pytest.approx(max(0.0, 2 * rec.p_b - 1.0), abs=1e-9)
        assert 0.0 <= rec.ergotropy <= rec.E + 1e-9
        assert rec.power == (rec.ergotropy / rec.t if rec.t > 0 else 0.0)


def test_records_power_at_origin_is_zero():
    spec = LiouvillianSpec(closed_form_params(CouplingLayout(BRAIDED, math.pi / 2, 0.1)))
    traj = evolve(spec, projector("eg"), TimeGrid(0.0, 1.0, dt=0.01, sample_stride=100))
    recs = compute_records(traj)
    assert recs[0].t == 0.0
    assert recs[0].power == 0.0 and recs[0].energy_power == 0.0


def test_metric_arrays_match_per_state_functions_bitwise():
    # each field of the record array gives each snapshot the bits of the
    # per-state functions, for a single trajectory and for a batch of cells
    specs = [LiouvillianSpec(closed_form_params(CouplingLayout(BRAIDED, th, 0.1)))
             for th in (0.4, math.pi / 2, 2.2)]
    grid = TimeGrid(0.0, 30.0, dt=0.05, sample_stride=7)
    batch = evolve(specs, projector("eg"), grid)
    cells = compute_records(batch)
    assert cells.shape == batch.states.shape[:2]
    fields = ("t", "E", "ergotropy", "sigma", "power", "energy_power", "p_a", "p_b", "purity")
    assert cells.dtype.names == fields

    def per_state(times, states):
        b0 = partial_trace_battery(states[0])
        expected = []
        for t, rho in zip(times, states):
            b = partial_trace_battery(rho)
            erg = ergotropy(b)
            elapsed = t - times[0]
            expected.append((float(t), energy(b), erg, fluctuation(b, b0),
                             average_power(erg, elapsed),
                             energy(b) / elapsed if elapsed > 0.0 else 0.0,
                             charger_population(rho), b.p, purity(rho)))
        return np.array(expected).view(np.uint64)

    for i, spec in enumerate(specs):
        traj = evolve(spec, projector("eg"), grid)
        recs = compute_records(traj)
        got = np.stack([recs[f] for f in fields], axis=-1)
        assert (got.view(np.uint64) == per_state(traj.times, traj.states)).all()
        batched = np.stack([cells[f][i] for f in fields], axis=-1)
        assert (batched.view(np.uint64) == per_state(batch.times, batch.states[i])).all()
