"""Doubly reflected BSDEs with irregular barriers on a binomial lattice.

The package solves backward stochastic differential equations whose
solution is constrained to stay between a lower and an upper obstacle,
where on top of the usual right-continuous obstacles there are
*predictable* obstacles that act on the left limit of the solution at
the atoms of two increasing clocks.  Everything runs on a recombining
binomial lattice under the symmetric random walk, which keeps
conditional expectations exact and makes every quantity checkable
against brute-force enumeration.

Layout:

- ``lattice``   -- time grid, adapted / predictable processes, exact
  conditional expectation and martingale-coefficient operators.
- ``barriers``  -- obstacle quadruples, penalization envelopes of a
  function along a clock, effective (merged) obstacles, admissibility.
- ``drivers``   -- generator objects, growth bounds, structural
  domination used by the penalization scheme.
- ``solver``    -- backward solver for the doubly reflected equation,
  flat-off certificates, comparison and budget diagnostics.
- ``penalize``  -- one-sided penalized families, monotone squeeze,
  reduction of the irregular problem to a standard one.
- ``snell``     -- reflected equations with only a lower obstacle
  (generalized optimal stopping) and their martingale hypotheses.
- ``oracle``    -- exhaustive stopping / game enumeration and closed
  forms used as independent references in the tests.
- ``verify``    -- randomized cross-check suites built on the oracles.
- ``cli``       -- command line front end (scenario files in, CSV out).
"""

from .lattice import (
    TimeGrid,
    Lattice,
    AdaptedProcess,
    PredictableProcess,
    IncreasingProcess,
    all_paths,
    path_nodes,
)
from .barriers import (
    BarrierSet,
    EnvelopeResult,
    InfeasibleBarriers,
    envelope_profile,
    envelope_star_profile,
    effective_barriers,
    check_left_constraint,
)
from .drivers import (
    Driver,
    GrowthBounds,
    SemimartingaleSpec,
    InconsistentSemimartingale,
    NonMonotonePhi,
    dominate_growth,
    build_dominated_driver,
)
from .solver import (
    Solution,
    SkorokhodReport,
    ComparisonReport,
    ImplicitStepDivergence,
    NonFiniteDriver,
    solve_rbsde,
    comparison_check,
    budget_defect,
)
from .penalize import (
    PenalizedFamily,
    ScheduleExhausted,
    SandwichViolation,
    ReductionDisagreement,
    DEFAULT_SCHEDULE,
    build_family,
    squeeze_limits,
    exact_squeeze_barriers,
    reduce_and_solve,
)
from .snell import (
    SnellInstance,
    HypothesisAViolated,
    snell_envelope,
)
from .oracle import (
    DepthTooLarge,
    NoValue,
    exhaustive_stopping_value,
    exhaustive_dynkin_value,
    quadratic_closed_form,
    quadratic_continuous_value,
    linear_continuous_value,
)
from .verify import (
    CertificateLog,
    run_all,
    verify_envelope,
    verify_constraint_equivalence,
    verify_snell,
    verify_dynkin,
    verify_quadratic,
    verify_sandwich,
    verify_reduction,
    verify_comparison,
    verify_budget,
)

__all__ = [
    "TimeGrid",
    "Lattice",
    "AdaptedProcess",
    "PredictableProcess",
    "IncreasingProcess",
    "all_paths",
    "path_nodes",
    "BarrierSet",
    "EnvelopeResult",
    "InfeasibleBarriers",
    "envelope_profile",
    "envelope_star_profile",
    "effective_barriers",
    "check_left_constraint",
    "Driver",
    "GrowthBounds",
    "SemimartingaleSpec",
    "InconsistentSemimartingale",
    "NonMonotonePhi",
    "dominate_growth",
    "build_dominated_driver",
    "Solution",
    "SkorokhodReport",
    "ComparisonReport",
    "ImplicitStepDivergence",
    "NonFiniteDriver",
    "solve_rbsde",
    "comparison_check",
    "budget_defect",
    "PenalizedFamily",
    "ScheduleExhausted",
    "SandwichViolation",
    "ReductionDisagreement",
    "DEFAULT_SCHEDULE",
    "build_family",
    "squeeze_limits",
    "exact_squeeze_barriers",
    "reduce_and_solve",
    "SnellInstance",
    "HypothesisAViolated",
    "snell_envelope",
    "DepthTooLarge",
    "NoValue",
    "exhaustive_stopping_value",
    "exhaustive_dynkin_value",
    "quadratic_closed_form",
    "quadratic_continuous_value",
    "linear_continuous_value",
    "CertificateLog",
    "run_all",
    "verify_envelope",
    "verify_constraint_equivalence",
    "verify_snell",
    "verify_dynkin",
    "verify_quadratic",
    "verify_sandwich",
    "verify_reduction",
    "verify_comparison",
    "verify_budget",
]

__version__ = "0.1.0"
