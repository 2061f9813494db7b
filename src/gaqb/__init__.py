"""Giant-atom charger/quantum-battery simulator for a 1D waveguide.

Two two-level atoms couple to a shared waveguide at two points each; the
point ordering (braided / separated / nested) and the inter-point phase
set all decay rates and the waveguide-mediated exchange coupling.  The
package integrates the resulting master equation, computes battery metrics
(energy, ergotropy, fluctuation, average power), sweeps the phase-time
plane, and runs a chiral pitch-catch protocol for unidirectional remote
charging.
"""
from .geometry import (
    BRAIDED,
    BUILTIN_TOPOLOGIES,
    NESTED,
    SEPARATED,
    CouplingLayout,
    CouplingParams,
    Topology,
    UnsupportedTopologyError,
    closed_form_params,
    custom_topology,
    decoherence_free_phases,
    positional_params,
)
from .liouville import (
    BIDIRECTIONAL,
    CASCADED_LEFT,
    CASCADED_RIGHT,
    LiouvillianSpec,
    SimulationError,
    StateValidationError,
    cross_dissipator,
    dissipator,
    effective_hamiltonian,
    ket,
    projector,
    rhs,
    sigma_minus,
    validate_density_matrix,
)
from .integrator import (
    ChargingTrajectory,
    DivergenceError,
    PositivityError,
    TimeGrid,
    convergence_order,
    evolve,
)
from .metrics import (
    BatteryState,
    average_power,
    compute_records,
    energy,
    ergotropy,
    ergotropy_closed_form,
    fluctuation,
    partial_trace_battery,
)
from .chiral import (
    ChiralProtocol,
    TransferSummary,
    chiral_coupling_params,
    chiral_spec,
    left_decoupling_phases,
    pitch_catch_rates,
    rate_profile,
    reverse_direction,
    run_transfer,
)

__version__ = "0.1.0"
