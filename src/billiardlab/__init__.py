"""billiardlab: directional billiards in generalized parallelograms and
the inhomogeneous Diophantine machinery behind their escaping-orbit sets.

Subpackage map:

- ``circle``     circle points, the angle-to-circle map, number specs,
                 validated continued fractions
- ``intervals``  disjoint open-interval unions on an integer grid (the
                 universal set type, with exact set algebra)
- ``dioph``      approximation solution scans, ubiquity
- ``cantor``     nested interval hierarchies with outer-measure bookkeeping
- ``billiard``   polygons, the beam tracer, escape sets, perpendicular orbits
- ``dimension``  box counting, slope fits and escape-set covers
- ``rng``        the seeded generator of the experiments (numpy-free)
- ``records``    the frozen slotted base of the record types
- ``experiments``  what the experiments share: the config schema, the
                 report type and ``write_report``, and the table of runner
                 modules (``lab`` entry point in ``cli``)
- ``lab_escape``  ``thm1_cover``, ``thm2_cover`` and the two-sided target
- ``lab_scans``  ``minkowski_scan`` and ``ubiquity``
- ``lab_cantor`` ``cantor_dim``
- ``lab_perp``   ``perp_orbits``
- ``lab_audit``  ``three_distance_audit``

Importing the package loads no submodule; each name below is imported
from its module on first use.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "billiard": ("EscapeReport", "GeneralizedParallelogram", "SideClass",
                 "build_polygon", "escape_sets", "parallelogram",
                 "perpendicular_periodicity", "polygon_from_vertices",
                 "rhombus"),
    "cantor": ("CantorHierarchy", "HierarchyLevel", "LevelInterval",
               "build_hierarchy", "local_dimension_report", "select_sequence",
               "separation_report"),
    "errors": ("BilliardLabError", "CapTooSmall", "ConfigError",
               "DegenerateDirection", "DepthExceeded", "DepthUnreachable",
               "EmptyLevel", "InsufficientScales", "NotGeneralizedParallelogram",
               "OrbitPoint", "RationalAngle", "RationalDetected",
               "RationalRotation", "ScheduleNotFound"),
    "experiments": ("EXPERIMENTS", "ExperimentConfig", "RunReport",
                    "apply_overrides", "run_experiment", "write_report"),
    "lab_escape": ("construct_twosided_target",),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value
