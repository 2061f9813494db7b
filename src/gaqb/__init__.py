"""Giant-atom charger/quantum-battery simulator for a 1D waveguide.

Two two-level atoms couple to a shared waveguide at two points each; the
point ordering (braided / separated / nested) and the inter-point phase
set all decay rates and the waveguide-mediated exchange coupling.  The
package integrates the resulting master equation, computes battery metrics
(energy, ergotropy, fluctuation, average power), sweeps the phase-time
plane, and runs a chiral pitch-catch protocol for unidirectional remote
charging.
"""
# the names of the README's quick start; everything else lives in its module
from .geometry import BRAIDED, closed_form_params
from .liouville import LiouvillianSpec, projector
from .integrator import TimeGrid, evolve
from .metrics import compute_records
from .chiral import ChiralProtocol, run_transfer

__version__ = "0.1.0"
