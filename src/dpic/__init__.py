"""Damped projected integral control of constrained sampled-data systems.

Building blocks: weighted metrics, convex sets with exact projections, a
forward-backward solver for strongly monotone variational inequalities,
plant models with steady-state maps, the projected integral controller and
a closed-loop simulation harness with gain sweeps.
"""

from .config import ConfigError, RunSetup, build_setup, load_config
from .controller import ClassicalIntegralController, DPIController
from .metric import Metric
from .plants import FourTankPlant, LTIPlant, NumericalError, PlantModel, davison_check
from .presets import preset_config, preset_names
from .sets import (
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Intersection,
    LinearPreimage,
    Polyhedron,
    ProjectionError,
    ProjectionResult,
    normal_cone_residual,
    sample_points,
)
from .simulation import (
    ConstraintViolationError,
    Scenario,
    SimRecord,
    SimulationError,
    StabilityReport,
    SweepPoint,
    change_of_coordinates,
    classify_convergence,
    fit_decay_rate,
    gain_sweep,
    simulate,
)
from .vi import (
    VIProblem,
    VISolution,
    contraction_constants,
    estimate_mu_L,
    exact_mu_L,
    fb_damped_map,
    fb_map,
    natural_residual,
    solve_vi,
)

__version__ = "0.1.0"
