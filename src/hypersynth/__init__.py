"""Toolkit for trace- and proposition-quantified temporal specifications.

Parsing, well-formedness and normal forms live in formula; machines holds
Moore systems, witness generators and lasso traces; semantics holds the
reference evaluator over lasso traces; fragments classifies quantifier
prefixes and architectures; reductions implements the quantifier
eliminations; automata, mc, sat, and synth form the bounded synthesis engine;
bench and cli drive it.
"""

from .formula import (
    Formula,
    QuantKind,
    SpecDocument,
    SpecError,
    parse,
    parse_formula,
    print_document,
    print_formula,
    to_nnf,
)
from .semantics import TraceSet, eval_formula, system_traces
from .fragments import (
    Architecture,
    FragmentVerdict,
    classify,
    classify_formula,
    has_info_fork,
    parse_architecture,
)
from .reductions import (
    eliminate_knowledge,
    to_hyperltl,
    with_consistency,
)
from .automata import NBA, ltl_to_nba
from .machines import ExistGenerator, LassoTrace, MooreSystem
from .mc import accepts_lasso, mc_exists_forall
from .synth import (
    ConstraintProblem,
    EncoderSoundnessError,
    SolverFailure,
    SynthesisInstance,
    SynthesisResult,
    encode,
    prepare,
    search,
    solve,
    solve_at_bounds,
)
from .bench import BenchmarkInstance, gen_arbiter, run_suite

__all__ = [
    "Architecture",
    "BenchmarkInstance",
    "ConstraintProblem",
    "EncoderSoundnessError",
    "ExistGenerator",
    "Formula",
    "FragmentVerdict",
    "LassoTrace",
    "MooreSystem",
    "NBA",
    "QuantKind",
    "SolverFailure",
    "SpecDocument",
    "SpecError",
    "SynthesisInstance",
    "SynthesisResult",
    "TraceSet",
    "accepts_lasso",
    "classify",
    "classify_formula",
    "eliminate_knowledge",
    "encode",
    "eval_formula",
    "gen_arbiter",
    "has_info_fork",
    "ltl_to_nba",
    "mc_exists_forall",
    "parse",
    "parse_architecture",
    "parse_formula",
    "prepare",
    "print_document",
    "print_formula",
    "run_suite",
    "search",
    "solve",
    "solve_at_bounds",
    "system_traces",
    "to_hyperltl",
    "to_nnf",
    "with_consistency",
]
