"""Train track maps on graphs: gates, eigenvalues, Nielsen paths, laminations.

The package namespace exports the names the README and the demos use, plus
the error classes; everything else is imported from its module.
"""

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    GraphError,
    IncompatibleGraphsError,
    MapError,
    NotExpandingError,
    NotPrimitiveError,
    NotTrainTrackError,
    ParseError,
    SubdivisionError,
    TtError,
)
from .graph import Graph, all_turns
from .graph_map import GraphSelfMap
from .lamination import (
    dual_language,
    eigenray_equivalence,
    illegality_between,
    ilt_contraction,
    leaf_language,
    leaf_window,
    singular_leaves,
    uniform_recurrence_check,
)
from .mapfile import parse_map_path
from .nielsen import (
    detect_inps,
    eigenray_prefix,
    periodic_structures,
    stability_verdict,
    subdivide_at,
)
from .spectral import charpoly_coefficients, is_primitive, pf_data, transition_matrix
from .train_track import (
    gates,
    ilt_count,
    is_legal_turn,
    is_train_track,
    two_gates_everywhere,
    used_turns,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConvergenceError",
    "Graph",
    "GraphError",
    "GraphSelfMap",
    "IncompatibleGraphsError",
    "MapError",
    "NotExpandingError",
    "NotPrimitiveError",
    "NotTrainTrackError",
    "ParseError",
    "SubdivisionError",
    "TtError",
    "all_turns",
    "charpoly_coefficients",
    "detect_inps",
    "dual_language",
    "eigenray_equivalence",
    "eigenray_prefix",
    "gates",
    "illegality_between",
    "ilt_contraction",
    "ilt_count",
    "is_legal_turn",
    "is_primitive",
    "is_train_track",
    "leaf_language",
    "leaf_window",
    "parse_map_path",
    "periodic_structures",
    "pf_data",
    "singular_leaves",
    "stability_verdict",
    "subdivide_at",
    "transition_matrix",
    "two_gates_everywhere",
    "uniform_recurrence_check",
    "used_turns",
]
