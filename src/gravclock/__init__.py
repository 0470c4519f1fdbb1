"""Frame-dragging proper-time differences, quantum-clock interferometry, and
gravity-mediated entanglement around a rotating mass."""

__version__ = "0.1.0"

from .constants import CODATA, PhysicalConstants, resolve_constants
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    GravclockError,
    NoConvergence,
    NotTimelike,
    UnknownLabel,
    WeakFieldViolation,
)
from .spacetime import RotatingMassModel, SpacetimePoint
from .propertime import (
    InterferometerGeometry,
    PathSpec,
    PhaseBundle,
    build_straight_arm,
    delta_tau_first_order,
    delta_tau_interferometer,
    delta_tau_pair,
    k_factor,
)
from .geodesic import (
    BoundaryConditions,
    ExtremalPathResult,
    FirstOrderReport,
    solve_extremal_path,
    verify_first_order,
)
from .clockstate import (
    DensityMatrix,
    StateVector,
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    reduced_density,
    state_vector,
    tensor_state,
    von_neumann_entropy,
    witness_value,
)
from .interferometry import (
    ClockModel,
    GmeResult,
    InterferenceResult,
    detection_probabilities,
    gme_entanglement,
    gme_final_state,
)
from .qep import (
    QepResult,
    QepTestTheory,
    qep_final_state,
    qep_gme_entanglement,
    qep_visibility,
)
from .detectability import (
    SweepConfig,
    SweepTable,
    required_ell,
    run_sweep,
)
