"""Partial k-star designs: completion, certification, extremal generation."""

from .completion import (
    CompletionDefect,
    CompletionResult,
    complete,
    pad_to_threshold,
    reduce_design,
    small_order_precentral,
)
from .designs import (
    Graph,
    PartialDesign,
    Star,
    canonical_dumps,
    design_exists,
    design_from_doc,
    design_to_doc,
    dumps_design,
    is_admissible,
    loads_design,
    random_design,
    threshold_u,
)
from .extremal import BlockedEdgeCertificate, check_blocked_edge, gen_uncompletable
from .oracle import (
    DEFAULT_BUDGET,
    OracleResult,
    decompose_exhaustive,
    has_completion,
)
from .precentral import (
    BadEdge,
    BadVertex,
    Precentral,
    find_bad,
    minimal,
    suitable,
)
from .realize import (
    Infeasible,
    construct,
    decompose_2stars,
    realize,
)

__version__ = "0.1.0"

__all__ = [
    "BadEdge",
    "BadVertex",
    "BlockedEdgeCertificate",
    "CompletionDefect",
    "CompletionResult",
    "DEFAULT_BUDGET",
    "Graph",
    "Infeasible",
    "OracleResult",
    "PartialDesign",
    "Precentral",
    "Star",
    "canonical_dumps",
    "check_blocked_edge",
    "complete",
    "construct",
    "decompose_2stars",
    "decompose_exhaustive",
    "design_exists",
    "design_from_doc",
    "design_to_doc",
    "dumps_design",
    "find_bad",
    "gen_uncompletable",
    "has_completion",
    "is_admissible",
    "loads_design",
    "minimal",
    "pad_to_threshold",
    "random_design",
    "realize",
    "reduce_design",
    "small_order_precentral",
    "suitable",
    "threshold_u",
]
