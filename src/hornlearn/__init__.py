"""Incremental Horn-program learning with bounded-model semantics and limit
analysis of the learned program sequences."""

from .generalize import (
    PairTable,
    SaturationPolicy,
    lgg_clause_sets,
    lgg_clauses,
    lgg_literals,
    lgg_terms,
    saturate,
)
from .learner import (
    Action,
    LearnerConfig,
    StageRecord,
    System,
    config_for_stream,
    read_trace,
    run_stream,
    trace_text,
)
from .limits import LimitReport, Verdict, convergence_report, default_window
from .logic import (
    Clause,
    ExampleStream,
    Fn,
    HornProgram,
    Literal,
    Substitution,
    Term,
    Var,
    apply_to_clause,
    apply_to_literal,
    apply_to_term,
    atom,
    const,
    fact,
    literal_subterms,
    neg,
    subterms,
)
from .metric import (
    Distance,
    clause_distance,
    is_simple,
    is_simple_program,
    literal_distance,
    priority_precedes,
    term_distance,
)
from .semantics import (
    BoundedModel,
    bounded_universe,
    covers,
    default_depth_bound,
    is_covered,
    least_model_bounded,
    reduce_program,
)
from .subsumption import clause_variant_equal, program_variant_equal, reduce_clause, theta_subsumes
from .syntax import (
    ParseError,
    parse_atom,
    parse_clauses,
    parse_example_stream,
    parse_program,
    parse_term,
    render_clause,
    render_literal,
    render_program,
    render_term,
)

__version__ = "0.1.0"
