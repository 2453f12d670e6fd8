"""quadtangents: lines tangent to quadrics, exactly and numerically.

Exact Pluecker/Grassmannian algebra over the rationals, the algebraic
tangency condition via exterior powers, a closed-form enumeration of the 32
lines tangent to a tetrahedral family of four quadrics in P^3, and a
homotopy path tracker that carries those 32 lines to arbitrary quadrics.
"""

from .exactnum import (
    DimensionError,
    LinearSolution,
    RatMatrix,
    ShapeError,
    Surd,
    det,
    exterior_power,
    rational,
    signature,
    solve_linear,
)
from .grassmann import (
    Counts,
    DegenerateFlatError,
    DualFlat,
    PluckerVector,
    ProjFlat,
    RealityReport,
    Transversal,
    TransversalResult,
    check_plucker_relations,
    classify_real,
    counts,
    dual_plucker,
    incidence,
    line_through,
    moment_osculating_flat,
    plucker,
    sphere_tangent_line_count,
    tetrahedron_lines,
    transversals_to_4_lines,
)
from .quadrics import (
    AffineFlat,
    LineConditions,
    Meets,
    Quadric,
    TangentTo,
    cylinder,
    is_tangent,
    perturbed_smooth_quadric,
    tangency_form,
)
from .tetra32 import (
    DegeneracyError,
    SignedRadicalSolution,
    TetraParams,
    below_reality_bound,
    enumerate_tangents,
    family,
    reality_count,
    verify_solution,
)
from .tracker import (
    DoublingResult,
    TrackResult,
    TrackedPath,
    doubling_experiment,
    regular_tetrahedron_lines,
    solve_tangency,
    track,
)

__version__ = "0.1.0"
