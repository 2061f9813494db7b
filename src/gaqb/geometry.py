"""Coupling geometry of two two-point giant atoms along a 1D waveguide.

Each atom touches the waveguide at two connection points.  The relative
ordering of the four points, a layout named by its string ("braided",
"nested" or "separated"), together with the phase ``theta`` accumulated
between neighboring points fixes all master-equation coefficients: the
individual and collective decay rates, Lamb shifts, and the exchange coupling.

All rates and shifts are returned in units of the atomic transition
frequency; ``theta`` is in radians and every derived quantity is
2*pi-periodic in it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass


class UnsupportedTopologyError(ValueError):
    """Raised when a closed-form evaluation is asked for a layout that is not built in."""


# a layout is its name; the paper's three are the ones with closed forms
BRAIDED, NESTED, SEPARATED = BUILTIN_TOPOLOGIES = ("braided", "nested", "separated")
THETA_LIMIT = sys.float_info.max / 3.0  # the coefficients take sin and cos of up to 3 theta


@dataclass(frozen=True)
class CouplingParams:
    """The six master-equation coefficients (units of the transition frequency).

    ``Gamma_a``/``Gamma_b`` are individual decay rates, ``Gamma_coll`` the
    collective one (real, may be negative), ``delta_a``/``delta_b`` the Lamb
    shifts and ``g_ab`` the exchange coupling.
    """

    delta_a: float
    delta_b: float
    g_ab: float
    Gamma_a: float
    Gamma_b: float
    Gamma_coll: float


def check_theta(theta: float, name: str = "theta") -> None:
    """Refuse a phase ``name`` that is not finite or whose sin(3 theta) would overflow."""
    if not math.isfinite(theta):
        raise ValueError(f"{name} must be finite, got {theta}")
    if abs(theta) > THETA_LIMIT:
        raise ValueError(f"|{name}| must be at most {THETA_LIMIT:.6g}, got {theta:g}")


def closed_form_params(topology: str, theta: float, gamma: float) -> CouplingParams:
    """Evaluate the per-topology closed-form coefficients.

    ``theta`` is the accumulated phase and ``gamma`` the bare per-point
    rate.  The trigonometric sums are evaluated in factored form so that
    the decoupling zeros (factors like 1 + cos(theta)) are exact in
    floating point, not merely ~1e-16.  Only the built-in topologies
    (braided, nested, separated) have closed forms.
    """
    check_theta(theta)
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    th, g = theta, gamma
    if topology == BRAIDED:
        # 3 sin(th) + sin(3 th) = 2 sin(th) (2 + cos(2 th));  3 cos + cos3 = 4 cos^3,
        # taken as Gamma cos(th) so that |Gamma_coll| <= Gamma holds in floating
        # point and both are exactly 0 at the decoherence-free points
        delta = g * math.sin(2.0 * th)
        g_ab = g * math.sin(th) * (2.0 + math.cos(2.0 * th))
        Gamma = 2.0 * g * (1.0 + math.cos(2.0 * th))
        Gamma_coll = Gamma * math.cos(th)
        return CouplingParams(delta, delta, g_ab, Gamma, Gamma, Gamma_coll)
    if topology == SEPARATED:
        # sin(th) + 2 sin(2 th) + sin(3 th) = 2 sin(2 th) (1 + cos(th))
        delta = g * math.sin(th)
        g_ab = g * math.sin(2.0 * th) * (1.0 + math.cos(th))
        Gamma = 2.0 * g * (1.0 + math.cos(th))
        Gamma_coll = 2.0 * g * math.cos(2.0 * th) * (1.0 + math.cos(th))
        return CouplingParams(delta, delta, g_ab, Gamma, Gamma, Gamma_coll)
    if topology == NESTED:
        delta_a = g * math.sin(3.0 * th)
        delta_b = g * math.sin(th)
        g_ab = g * (math.sin(th) + math.sin(2.0 * th))
        Gamma_a = 2.0 * g * (1.0 + math.cos(3.0 * th))
        Gamma_b = 2.0 * g * (1.0 + math.cos(th))
        Gamma_coll = 2.0 * g * (math.cos(th) + math.cos(2.0 * th))
        return CouplingParams(delta_a, delta_b, g_ab, Gamma_a, Gamma_b, Gamma_coll)
    raise UnsupportedTopologyError(
        f"no closed form for topology {topology!r}; the built-in ones are "
        f"{', '.join(BUILTIN_TOPOLOGIES)}"
    )
