import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import charger_state, richardson_order, states_of
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
FAST = dict(dt=0.01, t_end=3 * TAU, sample_stride=50)  # run_transfer's grid arguments
FAST_GRID = TimeGrid(**FAST)


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
        # numpy's exp and libm's may differ by an ulp, which x / (2 - x)
        # grows to a few
        assert abs(one.Gamma_a - pitch) <= 4 * np.spacing(pitch)
        assert abs(one.Gamma_b - catch) <= 4 * np.spacing(catch)
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
    # sin(2 theta) would overflow to a bare math domain error in the march
    with pytest.raises(ValueError, match=r"\|theta\| must be at most 5\.99231e\+307, got 1e\+308"):
        ChiralProtocol(0.1, 10.0, theta=1e308)


@pytest.mark.parametrize("field, value", [("theta", math.nan), ("theta", math.inf),
                                          ("gamma_max", math.inf), ("tau", math.inf),
                                          ("tau", math.nan)])
def test_protocol_rejects_non_finite(field, value):
    # each would otherwise end the run in a non-finite state or a bare
    # math domain error
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(PROTO, **{field: value})


# --- transfer dynamics ----------------------------------------------------------

def test_transfer_is_nearly_lossless():
    traj, s = run_transfer(PROTO, **FAST)
    assert s.final_battery_energy >= 0.99
    assert s.leakage <= 0.01
    assert s.efficiency == pytest.approx(s.final_battery_energy)
    recs = compute_records(traj)
    assert np.abs(recs.p_a + recs.p_b + traj.aux - 1.0).max() <= 1e-12


def test_transfer_summary_matches_recorded_values():
    # recorded from the per-stage 4x4 integrator with a co-integrated leak
    # callback, which the Liouville-space march replaced
    _, s = run_transfer(PROTO, **FAST)
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
    _, s = run_transfer(REVERSED, **FAST)
    recorded = {
        "final_battery_energy": "0x1.1b4a0ad74faa1p-30",
        "final_charger_energy": "0x1.fffd06486b1bfp-1",
        "leakage": "0x1.7cd75d499d0f9p-16",
        "efficiency": "0x1.fffd06486b1bfp-1",
    }
    for name, value in recorded.items():
        assert getattr(s, name) == pytest.approx(float.fromhex(value), abs=1e-12)


def cascade_oracle(p: ChiralProtocol, t_end: float, panels: int):
    """(p_sender, p_receiver, leakage) at t_end from the cascaded amplitudes.

    One excitation starts on the sender, which runs the pitch profile; the
    receiver runs the catch profile.  With kappa_j the profiled rates and
    Lamb shifts delta_j = 2 shift kappa_j, shift = -sin(2 theta) /
    (4 sin^2 theta), the no-jump amplitudes obey (Gardiner, PRL 70, 2269
    (1993))

        c_s' = -(kappa_s / 2 + i delta_s) c_s
        c_r' = -(kappa_r / 2 + i delta_r) c_r - sqrt(kappa_s kappa_r) c_s,

    so c_s is closed and c_r(t_end) is one integral, taken by 64-point
    Gauss-Legendre on ``panels`` equal panels of [0, tau] and of
    [tau, t_end]; tau splits off the profiles' slope kink.
    """
    G, tau = p.gamma_max, p.tau
    w = 0.5 - 0.5j * math.sin(2.0 * p.theta) / math.sin(p.theta) ** 2  # 1/2 + 2 i shift

    def kappa_pitch(t):
        x = np.exp(G * (np.minimum(t, tau) - tau))
        return np.where(t < tau, G * x / (2.0 - x), G)

    def integral_pitch(t):  # of kappa_pitch from 0
        x = np.exp(G * (np.minimum(t, tau) - tau))
        return math.log(2.0 - math.exp(-G * tau)) - np.log(2.0 - x) + G * np.maximum(t - tau, 0.0)

    def integral_catch(t):  # of kappa_pitch(2 tau - t) from 0
        return G * np.minimum(t, tau) + np.log(2.0 - np.exp(-G * np.maximum(t - tau, 0.0)))

    nodes, weights = np.polynomial.legendre.leggauss(64)
    c_r = 0.0
    for a, b in ((0.0, tau), (tau, t_end)):
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        s = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
        c_s = np.exp(-w * integral_pitch(s))
        coupling = np.sqrt(kappa_pitch(s) * kappa_pitch(2.0 * tau - s))
        propagate = np.exp(-w * (integral_catch(t_end) - integral_catch(s)))
        c_r -= np.sum(half * weights * propagate * coupling * c_s)
    p_s = math.exp(-integral_pitch(t_end))
    p_r = abs(c_r) ** 2
    return p_s, p_r, 1.0 - p_s - p_r


@pytest.mark.parametrize("direction", [RIGHT_TO_BATTERY, LEFT_TO_CHARGER])
@pytest.mark.parametrize("theta", [math.pi / 2, 1.2])
@pytest.mark.parametrize("gamma_tau", [1.0, 4.0, 10.0])
def test_transfer_matches_cascade_oracle(gamma_tau, theta, direction):
    # an accuracy check that does not depend on rounding order: the battery's
    # population in a real transfer, off theta = pi/2 with Lamb shifts too
    p = ChiralProtocol(gamma_max=0.1, tau=gamma_tau / 0.1, theta=theta, direction=direction)
    t_end = default_grid(p, dt=0.02).t_end
    oracle = cascade_oracle(p, t_end, 16)
    assert max(abs(a - b) for a, b in zip(cascade_oracle(p, t_end, 8), oracle)) <= 1e-14
    _, s = run_transfer(p, dt=0.02)
    run = (s.final_charger_energy, s.final_battery_energy, s.leakage)
    if direction == LEFT_TO_CHARGER:
        run = (run[1], run[0], run[2])
    assert max(abs(a - b) for a, b in zip(run, oracle)) <= 1e-12


def test_transfer_energy_stays_put_after_catch():
    traj, _ = run_transfer(PROTO, **FAST)
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
    pa = states_of(traj)[:, 2, 2].real + states_of(traj)[:, 3, 3].real
    pb = states_of(traj)[:, 1, 1].real + states_of(traj)[:, 3, 3].real

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
    t1, _ = run_transfer(PROTO, rho0=projector("eg"), **FAST)
    t2, _ = run_transfer(PROTO, rho0=mixed_b, **FAST)
    dev = max(
        np.abs(charger_state(a) - charger_state(b)).max()
        for a, b in zip(states_of(t1), states_of(t2))
    )
    assert dev <= 1e-9


def test_wrong_cascade_direction_breaks_unidirectionality():
    # with the coherent term's sign flipped (left-passing kind) the battery
    # back-acts on the charger, so the same comparison must fail; constant
    # rates keep both couplings on while the battery still holds excitation
    const = CouplingParams(0.0, 0.0, 0.25, 1.0, 1.0, 0.0)
    grid = TimeGrid(8.0, dt=0.002, sample_stride=40)
    mixed_b = np.kron(np.diag([0.0, 1.0]).astype(complex), 0.5 * np.eye(2, dtype=complex))
    devs = {}
    for kind in ("cascaded_right", "cascaded_left"):
        spec = LiouvillianSpec(const, dissipator_kind=kind)
        t1 = evolve(spec, projector("eg"), grid)
        t2 = evolve(spec, mixed_b, grid)
        devs[kind] = max(
            np.abs(charger_state(a) - charger_state(b)).max()
            for a, b in zip(states_of(t1), states_of(t2))
        )
    assert devs["cascaded_right"] <= 1e-9   # a upstream: marginal autonomous
    assert devs["cascaded_left"] > 1e-3     # a downstream: battery drives it


def test_reversal_mirrors_population_curves():
    fwd, s_fwd = run_transfer(PROTO, **FAST)
    rev, s_rev = run_transfer(REVERSED, **FAST)
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
        return run_transfer(p, dt=dt, t_end=30.0, sample_stride=stride)[0]

    assert richardson_order(lambda dt: states_of(run(dt))[-1], 0.0937) >= 3.7
    step = 10.0 / math.ceil(10.0 / 0.0937)
    gaps = np.diff(run(0.0937).times)
    assert gaps[:-1] == pytest.approx(stride * step, rel=1e-12)
    assert 0.0 < gaps[-1] <= stride * step * (1 + 1e-12)


def test_transfer_step_exceeds_dt_by_at_most_the_slack():
    # evolve's 1e-9 slack keeps 100 / 0.02 at 5,000 steps, so a step may
    # run over dt by up to that factor, as at tau = 10.000000001, dt = 1
    for tau in (1e-3, 2.0, 10.0, 10.000000001, 100.0):
        for dt in (0.005, 0.02, 0.03, 0.0937, 1.0):
            step = default_grid(replace(PROTO, tau=tau), dt=dt, t_end=3.0 * tau).dt
            assert step <= dt * (1 + 1e-9), (tau, dt)
    assert default_grid(replace(PROTO, tau=100.0), dt=0.02, t_end=300.0).dt == 100.0 / 5000
    assert default_grid(replace(PROTO, tau=10.000000001), dt=1.0, t_end=30.0).dt == 1.0000000001


def test_too_fast_protocol_degrades():
    fast = ChiralProtocol(gamma_max=GMAX, tau=0.1)  # Gamma_max * tau = 0.1
    _, s = run_transfer(fast, dt=0.01, t_end=60.0, sample_stride=100)
    assert s.final_battery_energy < 0.9
    assert s.leakage > 0.1
    assert s.final_battery_energy + s.final_charger_energy + s.leakage == pytest.approx(1.0, abs=1e-6)


def test_default_grid_spans_three_tau():
    g = default_grid(PROTO)
    assert (g.t_end, g.sample_stride) == (3 * TAU, 10)  # 6,000 steps of 0.005, ~600 snapshots
    # an explicit window and stride are both kept
    g = default_grid(PROTO, dt=0.02, t_end=7.0, sample_stride=3)
    assert (g.t_end, g.dt, g.sample_stride) == (7.0, 0.02, 3)
    # the grid's step is the one the run takes: tau / dt = 106.7 steps at 10 / 107
    assert default_grid(PROTO, dt=0.0937).dt == 10 / 107
    # 3 tau overflows: the refusal names the ratio that tau comes from
    with pytest.raises(ValueError, match="tau = tau_scaled / gamma_max = 1e\\+308"):
        default_grid(replace(PROTO, tau=1e308))
    # a subnormal tau is the step: its budget refuses it before any stride is
    # derived, naming tau and the step, not the dt it came from
    with pytest.raises(ValueError, match="^the step 4.94066e-324 that lands on tau = tau_scaled / gamma_max "
                                         "= 4.94066e-324 needs inf steps over \\[0, 1\\]; at most 10000000 "
                                         "are allowed$"):
        default_grid(replace(PROTO, tau=5e-324), t_end=1.0)
