"""The paper's contribution: magic counting methods over CSL queries."""

from .classification import (
    Classification,
    MagicGraphClass,
    NodeClass,
    boundary_index,
    classify_graph,
    classify_nodes,
)
from .complexity import (
    GraphStatistics,
    all_method_predictions,
    compute_statistics,
    predicted_cost,
)
from .cost import AnswerResult
from .counting_method import counting_method, extended_counting_method
from .explain import explain_evaluation
from .csl import CSLInstance, CSLQuery
from .hierarchy import (
    HIERARCHY_RELATIONS,
    REGULAR_EQUIVALENCE_GROUP,
    check_dominance,
    check_regular_equivalence,
)
from .graph_index import GraphIndex
from .hn_method import hn_method
from .magic_method import magic_set_method
from .methods import METHODS, all_method_coordinates, magic_counting, method_name
from .multi_source import (
    multi_source_counting,
    multi_source_magic,
    shared_ancestor_sources,
)
from .program_rewrite import (
    evaluate_with_program_rewrite,
    magic_counting_program,
)
from .query_graph import QueryGraph, build_query_graph
from .reduced_sets import (
    Mode,
    ReducedSets,
    Strategy,
    check_theorem1,
    check_theorem2,
)
from .solver import (
    adaptive_solve,
    fact2_answer,
    naive_answer,
    seminaive_answer,
    solve,
    solve_program,
)
from .step1 import (
    basic_step1,
    compute_reduced_sets,
    multiple_step1,
    recurring_step1,
    recurring_step1_scc,
    single_step1,
)
from .step2 import independent_step2, integrated_step2

__all__ = [
    "AnswerResult",
    "CSLInstance",
    "CSLQuery",
    "Classification",
    "GraphIndex",
    "GraphStatistics",
    "HIERARCHY_RELATIONS",
    "METHODS",
    "MagicGraphClass",
    "Mode",
    "NodeClass",
    "QueryGraph",
    "REGULAR_EQUIVALENCE_GROUP",
    "ReducedSets",
    "Strategy",
    "adaptive_solve",
    "all_method_coordinates",
    "all_method_predictions",
    "basic_step1",
    "boundary_index",
    "build_query_graph",
    "check_dominance",
    "check_regular_equivalence",
    "check_theorem1",
    "check_theorem2",
    "classify_graph",
    "classify_nodes",
    "compute_reduced_sets",
    "compute_statistics",
    "counting_method",
    "evaluate_with_program_rewrite",
    "explain_evaluation",
    "extended_counting_method",
    "fact2_answer",
    "hn_method",
    "independent_step2",
    "magic_counting_program",
    "integrated_step2",
    "magic_counting",
    "magic_set_method",
    "method_name",
    "multi_source_counting",
    "multi_source_magic",
    "multiple_step1",
    "shared_ancestor_sources",
    "naive_answer",
    "predicted_cost",
    "recurring_step1",
    "recurring_step1_scc",
    "seminaive_answer",
    "single_step1",
    "solve",
    "solve_program",
]
