"""docksim: software recreation of a robotics-based satellite docking
simulator at desk scale.

The package integrates the delayed nonlinear contact dynamics of a chaser
spacecraft probing a fixed target nozzle, linearizes the planar model about
the nominal contact state, analyzes the resulting delay system for stability
(critical delay / damping / stiffness envelopes) and evaluates restitution
and passivity cues against the analytical predictions.
"""

__version__ = "0.1.0"

from .core import (
    BodyParams,
    ChaserState2D,
    ChaserState3D,
    ContactParams,
    SimConfig,
    ValidationError,
    nominal_state_2d,
    validate,
)
from .contact import (
    contact_force,
    contact_stiffness,
    depth_2d,
    depth_3d,
    depth_rate_2d,
    depth_rate_3d,
    stiffness_tensor,
    torque_2d,
    torque_3d,
)
from .dynamics import (
    ContactEvent,
    DivergenceError,
    Trajectory,
    extract_events,
    integrate_dde,
    make_rhs_2d,
    make_rhs_3d,
    simulate,
)
from .linear import (
    LinearModel2D,
    characteristic_value,
    linearize_2d,
    penetration_dde_coeffs,
    reduced_mass,
)
from .stability import (
    StabilityResult,
    analyze,
    critical_damping,
    critical_delays,
    stability_boundary,
    verdict_4th_order,
)
from .analysis import (
    EnergyRecord,
    PowerStreams,
    RestitutionResult,
    observed_energy,
    restitution,
)
