"""Triangulated normal 3-pseudomanifolds.

Core objects live in :mod:`pseudoform.complexes` (complexes, face
vectors, validation), :mod:`pseudoform.surfaces` (vertex links as
closed surfaces, and the cut of one along a cycle),
:mod:`pseudoform.moves` (local and gluing operations),
:mod:`pseudoform.rigidity` (graph rigidity certificates),
:mod:`pseudoform.reducer` (decomposition into boundary 4-simplices
with replayable traces) and :mod:`pseudoform.generators`.
"""

from .complexes import (
    FVector,
    NormalityReport,
    SimplicialComplex,
    are_isomorphic,
    find_isomorphism,
    total_g2,
    validate_normal,
)
from .defaults import DEFAULT_SEED
from .errors import (
    CycleError,
    DimensionError,
    FileReadError,
    FileWriteError,
    IsomorphismInconclusive,
    MalformedFacetError,
    MissingFaceError,
    MoveError,
    NotSurfaceError,
    PseudoformError,
    ReplayError,
    SpecError,
    TraceFormatError,
)
from .reducer import (
    AuditReport,
    ConstructionTrace,
    ReduceReport,
    audit_multi_singular,
    format_trace,
    parse_trace,
    reduce_complex,
    replay,
    split_at_missing_tetrahedron,
)
from .surfaces import Surface, SurfaceClass, classify_surface, surface_g2

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "FVector",
    "NormalityReport",
    "SimplicialComplex",
    "Surface",
    "SurfaceClass",
    "AuditReport",
    "ConstructionTrace",
    "ReduceReport",
    "CycleError",
    "DimensionError",
    "FileReadError",
    "FileWriteError",
    "IsomorphismInconclusive",
    "MalformedFacetError",
    "MissingFaceError",
    "MoveError",
    "NotSurfaceError",
    "PseudoformError",
    "ReplayError",
    "SpecError",
    "TraceFormatError",
    "are_isomorphic",
    "audit_multi_singular",
    "classify_surface",
    "find_isomorphism",
    "format_trace",
    "parse_trace",
    "reduce_complex",
    "replay",
    "split_at_missing_tetrahedron",
    "surface_g2",
    "total_g2",
    "validate_normal",
]
