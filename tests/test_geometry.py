import math

import numpy as np
import pytest

from conftest import decoherence_free_phases, positional_params
from gaqb.geometry import (
    BRAIDED,
    NESTED,
    SEPARATED,
    UnsupportedTopologyError,
    closed_form_params,
)

TOPOLOGIES = (BRAIDED, SEPARATED, NESTED)
FIELDS = ("delta_a", "delta_b", "g_ab", "Gamma_a", "Gamma_b", "Gamma_coll")


def params_dev(a, b):
    return max(abs(getattr(a, f) - getattr(b, f)) for f in FIELDS)


def test_braided_decoherence_free_point():
    p = closed_form_params(BRAIDED, math.pi / 2, 0.1)
    assert p.g_ab == pytest.approx(0.1, abs=1e-15)
    assert p.Gamma_a == 0.0 and p.Gamma_b == 0.0
    assert abs(p.Gamma_coll) < 1e-15
    assert abs(p.delta_a) < 1e-15 and abs(p.delta_b) < 1e-15


def test_separated_pi_fully_decoupled():
    p = closed_form_params(SEPARATED, math.pi, 0.37)
    # the rate/coupling zeros are exact by the factored evaluation
    assert p.g_ab == 0.0
    assert p.Gamma_a == 0.0 and p.Gamma_b == 0.0 and p.Gamma_coll == 0.0
    assert abs(p.delta_a) < 1e-15


def test_nested_pi_third_against_high_precision_oracle():
    # frozen from a 40-digit mpmath evaluation of the printed expressions
    p = closed_form_params(NESTED, math.pi / 3, 0.1)
    assert abs(p.delta_a) < 1e-12
    assert p.delta_b == pytest.approx(0.086602540378443865, abs=1e-15)
    assert p.g_ab == pytest.approx(0.17320508075688773, abs=1e-15)
    assert abs(p.Gamma_a) < 1e-12
    assert p.Gamma_b == pytest.approx(0.3, abs=1e-15)
    assert abs(p.Gamma_coll) < 1e-12


def test_separated_07_closed_vs_oracle():
    # frozen from a 40-digit mpmath evaluation of the printed expressions
    p = closed_form_params(SEPARATED, 0.7, 0.1)
    assert p.delta_a == pytest.approx(0.064421768723769105, abs=1e-15)
    assert p.g_ab == pytest.approx(0.17391632569317426, abs=1e-15)
    assert p.Gamma_a == pytest.approx(0.35296843745689769, abs=1e-15)
    assert p.Gamma_coll == pytest.approx(0.059993036848511285, abs=1e-15)


def test_closed_form_rejects_custom():
    with pytest.raises(UnsupportedTopologyError, match="braided, nested, separated"):
        closed_form_params("custom", 0.3, 0.1)


def test_positional_coincident_points():
    p = positional_params("custom", 1.3, 0.25, coords=(0.0, 0.0, 0.0, 0.0))
    assert p.Gamma_a == pytest.approx(4 * 0.25)
    assert p.Gamma_b == pytest.approx(4 * 0.25)
    assert p.Gamma_coll == pytest.approx(4 * 0.25)
    assert p.g_ab == 0.0 and p.delta_a == 0.0 and p.delta_b == 0.0


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_closed_vs_positional_equivalence(topo):
    worst = 0.0
    for th in np.linspace(0.0, 2 * math.pi, 1000, endpoint=False):
        args = (topo, float(th), 1.0)
        worst = max(worst, params_dev(closed_form_params(*args), positional_params(*args)))
    assert worst <= 1e-12


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_periodicity(topo):
    for th in np.linspace(0.0, 2 * math.pi, 101):
        a = closed_form_params(topo, float(th), 1.0)
        b = closed_form_params(topo, float(th) + 2 * math.pi, 1.0)
        assert params_dev(a, b) <= 1e-12


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_decay_matrix_positive_semidefinite(topo):
    for th in np.linspace(0.0, 2 * math.pi, 1000, endpoint=False):
        p = closed_form_params(topo, float(th), 1.0)
        assert p.Gamma_a >= 0.0 and p.Gamma_b >= 0.0
        m = np.array([[p.Gamma_a, p.Gamma_coll], [p.Gamma_coll, p.Gamma_b]])
        assert np.linalg.eigvalsh(m).min() >= -1e-12
        assert abs(p.Gamma_coll) <= math.sqrt(p.Gamma_a * p.Gamma_b) + 1e-12


@pytest.mark.parametrize("topo", (SEPARATED, NESTED))
def test_all_zero_at_pi(topo):
    p = closed_form_params(topo, math.pi, 1.0)
    assert all(abs(getattr(p, f)) <= 1e-12 for f in FIELDS)


def test_decoherence_free_phases():
    # exact: the candidates are (2k+1) pi / d_a, not a refined scan
    assert decoherence_free_phases(BRAIDED) == [math.pi / 2, 3 * math.pi / 2]
    assert decoherence_free_phases(SEPARATED) == []
    assert decoherence_free_phases(NESTED) == []


def test_layout_validation():
    with pytest.raises(ValueError, match=r"gamma must be finite and >= 0, got -1\.0"):
        closed_form_params(BRAIDED, 0.1, -1.0)
    with pytest.raises(ValueError, match="theta must be finite, got inf"):
        closed_form_params(BRAIDED, math.inf, 0.1)
    # sin(3 theta) would overflow to a bare math domain error
    with pytest.raises(ValueError, match=r"\|theta\| must be at most 5\.99231e\+307, got 1e\+308"):
        closed_form_params(BRAIDED, 1e308, 0.1)
