import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import charger_state, richardson_order
from gaqb.chiral import (
    LEFT_TO_CHARGER,
    RIGHT_TO_BATTERY,
    ChiralProtocol,
    chiral_coupling_params,
    default_grid,
    pitch_catch_rates,
    rate_profile,
    run_transfer,
)
from gaqb.geometry import CouplingParams
from gaqb.integrator import TimeGrid, evolve
from gaqb.liouville import CASCADED_RIGHT, LiouvillianSpec, jump_operator, projector
from gaqb.metrics import compute_records

GMAX = 1.0
TAU = 10.0
PROTO = ChiralProtocol(gamma_max=GMAX, tau=TAU)
REVERSED = replace(PROTO, direction=LEFT_TO_CHARGER)
FAST_GRID = TimeGrid(0.0, 3 * TAU, dt=0.01, sample_stride=50)


# --- rate profiles -----------------------------------------------------------

def test_profile_continuity_and_plateau():
    assert rate_profile(TAU, GMAX, TAU) == GMAX            # e^0 / (2 - 1)
    assert rate_profile(TAU - 1e-9, GMAX, TAU) == pytest.approx(GMAX, abs=1e-8)
    assert rate_profile(5 * TAU, GMAX, TAU) == GMAX


def test_pitch_rate_at_zero_frozen_value():
    # direct evaluation of the profile at Gamma_max * tau = 10
    ga, gb = pitch_catch_rates(0.0, PROTO)
    assert ga == pytest.approx(2.2700480181345332e-05 * GMAX, rel=1e-12)
    assert gb == GMAX


def test_catch_mirrors_pitch_about_midpoint():
    for t in (0.0, 2.5, TAU, 17.0, 2 * TAU):
        ga, gb = pitch_catch_rates(t, PROTO)
        assert gb == rate_profile(2 * TAU - t, GMAX, TAU)
    ga0, _ = pitch_catch_rates(0.0, PROTO)
    _, gb_end = pitch_catch_rates(2 * TAU, PROTO)
    assert gb_end == ga0
    # both legs continuous at t = tau
    for eps in (1e-7, -1e-7):
        ga, gb = pitch_catch_rates(TAU + eps, PROTO)
        assert ga == pytest.approx(GMAX, abs=1e-6)
        assert gb == pytest.approx(GMAX, abs=1e-6)


def test_rates_swap_under_reversal():
    for t in (0.0, 3.0, TAU, 25.0):
        ga, gb = pitch_catch_rates(t, PROTO)
        ga_r, gb_r = pitch_catch_rates(t, REVERSED)
        assert (ga_r, gb_r) == (gb, ga)


def scalar_rate_profile(t, gamma_max, tau):
    """The profile's scalar formula, evaluated with the math module."""
    if t < tau:
        x = math.exp(gamma_max * (t - tau))
        return gamma_max * x / (2.0 - x)
    return gamma_max


@pytest.mark.parametrize("proto", [PROTO, REVERSED,
                                   ChiralProtocol(gamma_max=GMAX, tau=TAU, theta=1.2),
                                   ChiralProtocol(gamma_max=10 * GMAX, tau=TAU)])
def test_array_params_match_scalar_calls(proto):
    # the array runs to 10 tau, where Gamma_max (t - tau) reaches 900 on the
    # last protocol: the capped exponent must not overflow (the suite turns
    # any warning into an error)
    ts = np.concatenate([np.linspace(0.0, 10 * TAU, 1001), [TAU - 1e-9, 2 * TAU + 1e-9]])
    arr = chiral_coupling_params(ts, proto)
    for i, t in enumerate(ts.tolist()):
        one = chiral_coupling_params(t, proto)
        for name in ("delta_a", "delta_b", "g_ab", "Gamma_a", "Gamma_b"):
            assert getattr(arr, name)[i] == getattr(one, name)
        pitch = 2.0 * scalar_rate_profile(t, proto.gamma_max, proto.tau)
        catch = 2.0 * scalar_rate_profile(2.0 * proto.tau - t, proto.gamma_max, proto.tau)
        if proto.direction != RIGHT_TO_BATTERY:
            pitch, catch = catch, pitch
        assert (one.Gamma_a, one.Gamma_b) == (pitch, catch)
    assert arr.Gamma_coll == 0.0


# --- spec construction --------------------------------------------------------

def test_chiral_params_at_working_phase():
    p = chiral_coupling_params(TAU, PROTO)  # both profiles at the plateau here
    assert abs(p.delta_a) <= 1e-15 and abs(p.delta_b) <= 1e-15  # sin(2 theta) ~ 0
    assert p.Gamma_a == p.Gamma_b
    assert p.g_ab == pytest.approx(p.Gamma_a / 4.0, rel=1e-14)
    assert p.Gamma_coll == 0.0


def test_chiral_params_off_working_phase():
    proto = ChiralProtocol(gamma_max=GMAX, tau=TAU, theta=1.2)
    p = chiral_coupling_params(TAU, proto)
    gamma_a = p.Gamma_a / (4 * math.sin(1.2) ** 2)
    assert p.delta_a == pytest.approx(-gamma_a * math.sin(2.4), rel=1e-12)
    assert p.g_ab == pytest.approx(0.25 * math.sqrt(p.Gamma_a * p.Gamma_b), rel=1e-12)


def test_jump_operator_single_sided_when_catch_off():
    p = CouplingParams(0.0, 0.0, 0.0, 0.5, 0.0, 0.0)
    L = jump_operator(p, CASCADED_RIGHT)
    # acts as sigma_a^- only
    assert abs(L[0, 2]) > 0 and abs(L[1, 3]) > 0
    assert L[0, 1] == 0 and L[2, 3] == 0


def test_protocol_validation():
    with pytest.raises(ValueError):
        ChiralProtocol(gamma_max=0.0, tau=1.0)
    with pytest.raises(ValueError):
        ChiralProtocol(gamma_max=1.0, tau=-1.0)
    with pytest.raises(ValueError):
        ChiralProtocol(gamma_max=1.0, tau=1.0, theta=math.pi)  # sin(theta) = 0
    with pytest.raises(ValueError):
        ChiralProtocol(gamma_max=1.0, tau=1.0, direction="up")


@pytest.mark.parametrize("field, value", [("theta", math.nan), ("theta", math.inf),
                                          ("gamma_max", math.inf)])
def test_protocol_rejects_non_finite(field, value):
    # each would otherwise end the run in a non-finite state or a bare
    # math domain error
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(PROTO, **{field: value})


# --- transfer dynamics ----------------------------------------------------------

def test_transfer_is_nearly_lossless():
    traj, s = run_transfer(PROTO, grid=FAST_GRID)
    assert s.final_battery_energy >= 0.99
    assert s.leakage <= 0.01
    assert s.efficiency == pytest.approx(s.final_battery_energy)
    recs = compute_records(traj)
    assert np.abs(recs.p_a + recs.p_b + traj.aux - 1.0).max() <= 1e-12


def test_transfer_summary_matches_recorded_values():
    # recorded from the per-stage 4x4 integrator with a co-integrated leak
    # callback, which the Liouville-space march replaced
    _, s = run_transfer(PROTO, grid=FAST_GRID)
    recorded = {
        "final_battery_energy": "0x1.fffd06486b1e2p-1",
        "final_charger_energy": "0x1.1b4a0ad74fab5p-30",
        "leakage": "0x1.7cd75d49a6241p-16",
        "efficiency": "0x1.fffd06486b1e2p-1",
    }
    for name, value in recorded.items():
        assert getattr(s, name) == pytest.approx(float.fromhex(value), abs=1e-12)


def test_reversed_transfer_summary_matches_recorded_values():
    # the left-moving run, recorded from the complex Liouville-space march
    # that stepped with I + D and re-Hermitized after every step
    _, s = run_transfer(REVERSED, grid=FAST_GRID)
    recorded = {
        "final_battery_energy": "0x1.1b4a0ad74faa1p-30",
        "final_charger_energy": "0x1.fffd06486b1bfp-1",
        "leakage": "0x1.7cd75d499d0f9p-16",
        "efficiency": "0x1.fffd06486b1bfp-1",
    }
    for name, value in recorded.items():
        assert getattr(s, name) == pytest.approx(float.fromhex(value), abs=1e-12)


def test_transfer_energy_stays_put_after_catch():
    traj, _ = run_transfer(PROTO, grid=FAST_GRID)
    late = compute_records(traj).p_b[traj.times >= 2 * TAU]
    assert np.all(np.diff(late) >= -1e-9)  # no re-emission once caught


def test_catch_disabled_loses_everything():
    # battery decoupled: the excitation leaks past it entirely;
    # p_a follows the single-atom chiral decay exp(-integral of the rate)
    def params(t):
        f = rate_profile(t, GMAX, TAU)
        return CouplingParams(0.0, 0.0, 0.0, 2.0 * f, 0.0, 0.0)

    spec = LiouvillianSpec(params, dissipator_kind=CASCADED_RIGHT)
    traj = evolve(spec, projector("eg"), FAST_GRID)  # traj.aux: the emitted flux
    pa = traj.states[:, 2, 2].real + traj.states[:, 3, 3].real
    pb = traj.states[:, 1, 1].real + traj.states[:, 3, 3].real

    def integrated_rate(t):
        x = math.exp(GMAX * (min(t, TAU) - TAU))
        x0 = math.exp(-GMAX * TAU)
        return math.log((2 - x0) / (2 - x)) + GMAX * max(0.0, t - TAU)

    oracle = np.array([math.exp(-integrated_rate(t)) for t in traj.times])
    assert np.abs(pa - oracle).max() <= 1e-9
    assert pb.max() <= 1e-12
    assert traj.aux[-1] >= 0.999


def test_unidirectionality_pins_coherent_sign():
    # the charger's reduced trajectory must not depend on the battery state
    mixed_b = np.kron(np.diag([0.0, 1.0]).astype(complex), 0.5 * np.eye(2, dtype=complex))
    t1, _ = run_transfer(PROTO, rho0=projector("eg"), grid=FAST_GRID)
    t2, _ = run_transfer(PROTO, rho0=mixed_b, grid=FAST_GRID)
    dev = max(
        np.abs(charger_state(a) - charger_state(b)).max()
        for a, b in zip(t1.states, t2.states)
    )
    assert dev <= 1e-9


def test_wrong_cascade_direction_breaks_unidirectionality():
    # with the coherent term's sign flipped (left-passing kind) the battery
    # back-acts on the charger, so the same comparison must fail; constant
    # rates keep both couplings on while the battery still holds excitation
    const = CouplingParams(0.0, 0.0, 0.25, 1.0, 1.0, 0.0)
    grid = TimeGrid(0.0, 8.0, dt=0.002, sample_stride=40)
    mixed_b = np.kron(np.diag([0.0, 1.0]).astype(complex), 0.5 * np.eye(2, dtype=complex))
    devs = {}
    for kind in ("cascaded_right", "cascaded_left"):
        spec = LiouvillianSpec(const, dissipator_kind=kind)
        t1 = evolve(spec, projector("eg"), grid)
        t2 = evolve(spec, mixed_b, grid)
        devs[kind] = max(
            np.abs(charger_state(a) - charger_state(b)).max()
            for a, b in zip(t1.states, t2.states)
        )
    assert devs["cascaded_right"] <= 1e-9   # a upstream: marginal autonomous
    assert devs["cascaded_left"] > 1e-3     # a downstream: battery drives it


def test_reversal_mirrors_population_curves():
    fwd, s_fwd = run_transfer(PROTO, grid=FAST_GRID)
    rev, s_rev = run_transfer(REVERSED, grid=FAST_GRID)
    f, r = compute_records(fwd), compute_records(rev)
    assert np.abs(r.p_a - f.p_b).max() <= 1e-9
    assert np.abs(r.p_b - f.p_a).max() <= 1e-9
    assert s_rev.final_charger_energy == pytest.approx(s_fwd.final_battery_energy, abs=1e-9)
    assert s_rev.leakage == pytest.approx(s_fwd.leakage, abs=1e-9)


def test_kink_at_tau_lands_on_a_step():
    # tau / dt = 106.7: unless the step is shrunk so that tau is a whole
    # number of steps, a step straddles the profiles' slope kink and the
    # order drops (to about 3.3 for a plain evolve on this grid)
    stride = 7
    p = ChiralProtocol(gamma_max=1.0, tau=10.0)

    def run(dt):
        return run_transfer(p, grid=TimeGrid(0.0, 30.0, dt=dt, sample_stride=stride))[0]

    assert richardson_order(lambda dt: run(dt).states[-1], 0.0937) >= 3.7
    step = 10.0 / math.ceil(10.0 / 0.0937)
    gaps = np.diff(run(0.0937).times)
    assert gaps[:-1] == pytest.approx(stride * step, rel=1e-12)
    assert 0.0 < gaps[-1] <= stride * step * (1 + 1e-12)


def test_too_fast_protocol_degrades():
    fast = ChiralProtocol(gamma_max=GMAX, tau=0.1)  # Gamma_max * tau = 0.1
    _, s = run_transfer(fast, grid=TimeGrid(0.0, 60.0, dt=0.01, sample_stride=100))
    assert s.final_battery_energy < 0.9
    assert s.leakage > 0.1
    assert s.final_battery_energy + s.final_charger_energy + s.leakage == pytest.approx(1.0, abs=1e-6)


def test_default_grid_spans_three_tau():
    g = default_grid(PROTO)
    assert g.t_start == 0.0 and g.t_end == 3 * TAU
