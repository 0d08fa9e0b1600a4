"""billiardlab: directional billiards in generalized parallelograms and
the inhomogeneous Diophantine machinery behind their escaping-orbit sets.

Subpackage map:

- ``circle``     circle points, the angle-to-circle map, number specs,
                 validated continued fractions
- ``intervals``  disjoint open-interval unions on an integer grid (the
                 universal set type, with exact set algebra)
- ``dioph``      approximation solution scans, A/B covering sets, ubiquity
- ``cantor``     nested interval hierarchies with outer-measure bookkeeping
- ``billiard``   polygons, the beam tracer, escape sets, perpendicular orbits
- ``dimension``  box counting, slope fits and escape-set covers
- ``rng``        the seeded generator of the experiments (numpy-free)
- ``experiments``/``cli``  reproducible experiment runners (``lab`` entry point)
"""

__version__ = "0.1.0"

from .billiard import (
    EscapeReport,
    GeneralizedParallelogram,
    SideClass,
    build_polygon,
    escape_sets,
    parallelogram,
    perpendicular_periodicity,
    polygon_from_vertices,
    rhombus,
)
from .cantor import (
    CantorHierarchy,
    HierarchyLevel,
    LevelInterval,
    build_hierarchy,
    intermediate_interval_check,
    local_dimension_report,
    select_sequence,
    separation_report,
)
from .dimension import cover_escape_sets
from .errors import (
    BilliardLabError,
    CapTooSmall,
    ConfigError,
    DegenerateDirection,
    DepthExceeded,
    DepthUnreachable,
    EmptyLevel,
    InsufficientScales,
    NotGeneralizedParallelogram,
    OrbitPoint,
    RationalAngle,
    RationalDetected,
    RationalRotation,
    ScheduleNotFound,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    RunReport,
    apply_overrides,
    construct_twosided_target,
    run_experiment,
    write_report,
)

__all__ = [
    "BilliardLabError",
    "CantorHierarchy",
    "CapTooSmall",
    "ConfigError",
    "DegenerateDirection",
    "DepthExceeded",
    "DepthUnreachable",
    "EXPERIMENTS",
    "EmptyLevel",
    "EscapeReport",
    "ExperimentConfig",
    "GeneralizedParallelogram",
    "HierarchyLevel",
    "InsufficientScales",
    "LevelInterval",
    "NotGeneralizedParallelogram",
    "OrbitPoint",
    "RationalAngle",
    "RationalDetected",
    "RationalRotation",
    "RunReport",
    "ScheduleNotFound",
    "SideClass",
    "apply_overrides",
    "build_hierarchy",
    "build_polygon",
    "construct_twosided_target",
    "cover_escape_sets",
    "escape_sets",
    "intermediate_interval_check",
    "local_dimension_report",
    "parallelogram",
    "perpendicular_periodicity",
    "polygon_from_vertices",
    "rhombus",
    "run_experiment",
    "select_sequence",
    "separation_report",
    "write_report",
    "__version__",
]
