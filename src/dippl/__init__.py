"""Exact inference for a discrete imperative probabilistic language.

Programs over Boolean variables (with Bernoulli sampling and
observation statements) are compiled to weighted Boolean formulas
represented as reduced ordered BDDs; probability queries are answered
by weighted model counting.  An enumerative reference interpreter of
the language's denotational semantics provides ground truth for
differential testing.
"""

from .lang import (
    And,
    Assign,
    Const,
    Diagnostic,
    Expr,
    FALSE,
    Flip,
    If,
    Not,
    Observe,
    Or,
    ParseError,
    Program,
    Seq,
    Skip,
    Stmt,
    TRUE,
    UnknownVariable,
    VarRef,
    parse,
    parse_expr,
    unparse,
    validate,
)
from .oracle import (
    INFEASIBLE,
    InfeasibleEvidence,
    State,
    StateDistribution,
    accepting,
    all_states,
    eval_expr,
    output_marginal,
    transition,
)
from .bdd import (
    Bdd,
    ManagerMismatch,
    NodeStore,
    OrderViolation,
    SupportOutsideUniverse,
    UnknownVar,
    WeightFn,
)
from .compiler import (
    CompiledProgram,
    CompileStats,
    VarBanks,
    allocate_banks,
    compile_expr,
    compile_program,
    compile_stmt,
    gamma,
    state_cube,
)
from .infer import (
    InferenceResult,
    OracleCheck,
    OracleTooLarge,
    Query,
    accept_prob,
    check_against_oracle,
    event_prob,
    marginals,
    transition_prob,
)
from .generators import gen_chain, gen_grid, gen_ladder, grid_flip_count

__version__ = "0.1.0"
