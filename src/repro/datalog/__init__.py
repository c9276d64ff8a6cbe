"""A bottom-up Datalog engine: the deductive-database substrate.

This subpackage provides everything the paper assumes from an LDL/NAIL!
style system: a textual Datalog language, safety checking, stratified
negation, arithmetic builtins, naive and semi-naive fixpoint evaluation
over cost-instrumented relations, and the two classical rewritings the
magic counting methods combine — generalized magic sets and counting.
"""

from .atom import Atom, BuiltinAtom, Literal, atom, fact, var
from .adornment import adorn_program, adornment_from_goal
from .builtins import arithmetic, comparison
from .counting_rewrite import counting_rewrite
from .database import Database
from .engine import CompiledProgram, JoinKernel, compile_program, compile_rule
from .evaluation import (
    DEFAULT_ENGINE,
    DEFAULT_MAX_ITERATIONS,
    SEMINAIVE_ENGINES,
    answer_tuples,
    naive_evaluate,
    seminaive_evaluate,
)
from .linear import LinearRecursion, analyze_linear
from .maintenance import (
    MaintenanceReport,
    MaintenanceState,
    delete_and_maintain,
    insert_and_maintain,
)
from .lint import Diagnostic, lint_program
from .magic_rewrite import magic_rewrite
from .parser import parse_atom, parse_program, parse_rule
from .program import Program
from .provenance import ProofNode, Provenance, evaluate_with_provenance
from .qsq import QSQEvaluator, qsq_answer_tuples
from .relation import CostCounter, Relation
from .rule import Rule, rule
from .stratify import stratify, strongly_connected_components
from .supplementary import supplementary_magic_rewrite
from .term import Constant, Variable, make_term

__all__ = [
    "Atom",
    "BuiltinAtom",
    "CompiledProgram",
    "Constant",
    "CostCounter",
    "Database",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_ITERATIONS",
    "Diagnostic",
    "JoinKernel",
    "SEMINAIVE_ENGINES",
    "LinearRecursion",
    "Literal",
    "MaintenanceReport",
    "MaintenanceState",
    "ProofNode",
    "Program",
    "Provenance",
    "QSQEvaluator",
    "Relation",
    "Rule",
    "Variable",
    "adorn_program",
    "adornment_from_goal",
    "analyze_linear",
    "answer_tuples",
    "arithmetic",
    "atom",
    "comparison",
    "compile_program",
    "compile_rule",
    "counting_rewrite",
    "delete_and_maintain",
    "evaluate_with_provenance",
    "fact",
    "insert_and_maintain",
    "lint_program",
    "magic_rewrite",
    "make_term",
    "naive_evaluate",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "qsq_answer_tuples",
    "rule",
    "seminaive_evaluate",
    "stratify",
    "strongly_connected_components",
    "supplementary_magic_rewrite",
    "var",
]
