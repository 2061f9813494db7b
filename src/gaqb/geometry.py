"""Coupling geometry of two two-point giant atoms along a 1D waveguide.

Each atom touches the waveguide at two connection points.  The relative
ordering of the four points (braided / separated / nested) together with
the phase ``theta`` accumulated between neighboring points fixes all
master-equation coefficients: individual decay rates, the collective decay
rate, Lamb shifts, and the waveguide-mediated exchange coupling.

All rates and shifts are returned in units of the atomic transition
frequency; ``theta`` is in radians and every derived quantity is
2*pi-periodic in it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class UnsupportedTopologyError(ValueError):
    """Raised when a closed-form evaluation is asked for a custom layout."""


@dataclass(frozen=True)
class Topology:
    """Connection-point layout; coordinates in units of the neighbor spacing d.

    ``coords`` is ``(x_a1, x_a2, x_b1, x_b2)``.
    """

    variant: str
    coords: tuple[float, float, float, float]

    def __post_init__(self):
        if not all(math.isfinite(x) for x in self.coords):
            raise ValueError(f"non-finite connection-point coordinate in {self.coords}")


BRAIDED = Topology("braided", (0.0, 2.0, 1.0, 3.0))
SEPARATED = Topology("separated", (0.0, 1.0, 2.0, 3.0))
NESTED = Topology("nested", (0.0, 3.0, 1.0, 2.0))

BUILTIN_TOPOLOGIES = {
    "braided": BRAIDED,
    "separated": SEPARATED,
    "nested": NESTED,
}


@dataclass(frozen=True)
class CouplingLayout:
    """A topology plus the accumulated phase theta and bare per-point rate gamma."""

    topology: Topology
    theta: float
    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


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


def closed_form_params(layout: CouplingLayout) -> CouplingParams:
    """Evaluate the per-topology closed-form coefficients.

    The trigonometric sums are evaluated in factored form so that the
    decoupling zeros (factors like 1 + cos(theta)) are exact in floating
    point, not merely ~1e-16.  Only built-in topologies have closed forms;
    use :func:`positional_params` for custom layouts.
    """
    th = layout.theta
    g = layout.gamma
    variant = layout.topology.variant
    if variant == "braided":
        # 3 sin(th) + sin(3 th) = 2 sin(th) (2 + cos(2 th));  3 cos + cos3 = 4 cos^3,
        # taken as Gamma cos(th) so that |Gamma_coll| <= Gamma holds in floating
        # point and both are exactly 0 at the decoherence-free points
        delta = g * math.sin(2.0 * th)
        g_ab = g * math.sin(th) * (2.0 + math.cos(2.0 * th))
        Gamma = 2.0 * g * (1.0 + math.cos(2.0 * th))
        Gamma_coll = Gamma * math.cos(th)
        return CouplingParams(delta, delta, g_ab, Gamma, Gamma, Gamma_coll)
    if variant == "separated":
        # sin(th) + 2 sin(2 th) + sin(3 th) = 2 sin(2 th) (1 + cos(th))
        delta = g * math.sin(th)
        g_ab = g * math.sin(2.0 * th) * (1.0 + math.cos(th))
        Gamma = 2.0 * g * (1.0 + math.cos(th))
        Gamma_coll = 2.0 * g * math.cos(2.0 * th) * (1.0 + math.cos(th))
        return CouplingParams(delta, delta, g_ab, Gamma, Gamma, Gamma_coll)
    if variant == "nested":
        delta_a = g * math.sin(3.0 * th)
        delta_b = g * math.sin(th)
        g_ab = g * (math.sin(th) + math.sin(2.0 * th))
        Gamma_a = 2.0 * g * (1.0 + math.cos(3.0 * th))
        Gamma_b = 2.0 * g * (1.0 + math.cos(th))
        Gamma_coll = 2.0 * g * (math.cos(th) + math.cos(2.0 * th))
        return CouplingParams(delta_a, delta_b, g_ab, Gamma_a, Gamma_b, Gamma_coll)
    raise UnsupportedTopologyError(
        f"no closed form for topology {variant!r}; use positional_params"
    )


def positional_params(layout: CouplingLayout) -> CouplingParams:
    """Coefficients from the general sums over connection-point pairs.

    Gamma_j    = gamma * sum_{n,m} cos(theta |x_jn - x_jm|)
    delta_j    = gamma/2 * sum_{n,m} sin(theta |x_jn - x_jm|)
    Gamma_coll = gamma * sum_{n,m} cos(theta |x_an - x_bm|)
    g_ab       = gamma/2 * sum_{n,m} sin(theta |x_an - x_bm|)

    with n, m running over both connection points of each atom.  Valid for
    any layout, including the built-in variants (where it reproduces
    :func:`closed_form_params`).
    """
    th = layout.theta
    g = layout.gamma
    xa = layout.topology.coords[0:2]
    xb = layout.topology.coords[2:4]

    def self_sums(xs):
        cos_sum = 0.0
        sin_sum = 0.0
        for xn in xs:
            for xm in xs:
                d = th * abs(xn - xm)
                cos_sum += math.cos(d)
                sin_sum += math.sin(d)
        return cos_sum, sin_sum

    cos_a, sin_a = self_sums(xa)
    cos_b, sin_b = self_sums(xb)
    cos_ab = 0.0
    sin_ab = 0.0
    for xn in xa:
        for xm in xb:
            d = th * abs(xn - xm)
            cos_ab += math.cos(d)
            sin_ab += math.sin(d)

    return CouplingParams(
        delta_a=0.5 * g * sin_a,
        delta_b=0.5 * g * sin_b,
        g_ab=0.5 * g * sin_ab,
        Gamma_a=g * cos_a,
        Gamma_b=g * cos_b,
        Gamma_coll=g * cos_ab,
    )


def decoherence_free_phases(topology: Topology) -> list[float]:
    """Phases in [0, 2*pi) where all decay rates vanish but g_ab does not.

    Atom a's decay rate 2 gamma (1 + cos(theta d_a)), with d_a its
    connection-point spacing, vanishes exactly at theta d_a = (2k+1) pi,
    so only these candidates (k < d_a; the built-in spacings are
    integers) can be decoherence-free.  A candidate is kept if the total
    decay Gamma_a + Gamma_b + |Gamma_coll| vanishes there (to 1e-9) and
    the exchange coupling survives (|g_ab| > 1e-6).
    """
    if topology.variant == "custom":
        raise UnsupportedTopologyError("decoherence-free phases need a built-in topology")
    x_a1, x_a2 = topology.coords[0:2]
    d_a = abs(x_a2 - x_a1)
    phases = []
    for k in range(int(d_a)):
        theta = (2 * k + 1) * math.pi / d_a
        p = closed_form_params(CouplingLayout(topology, theta, 1.0))
        if p.Gamma_a + p.Gamma_b + abs(p.Gamma_coll) <= 1e-9 and abs(p.g_ab) > 1e-6:
            phases.append(theta)
    return phases
