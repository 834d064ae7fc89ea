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
- ``drivers``   -- generator objects, growth bounds and their
  rescaling by the obstacles' running size.
- ``solver``    -- backward solver for the doubly reflected equation,
  flat-off certificates, comparison and budget diagnostics.
- ``penalize``  -- the dominating generator of the one-sided penalized
  pair, with its penalty; penalized families, monotone squeeze,
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
)
from .barriers import (
    BarrierSet,
    EnvelopeResult,
    InfeasibleBarriers,
    envelope_profile,
    envelope_star_profile,
    check_left_constraint,
)
from .drivers import (
    Driver,
    GrowthBounds,
    SemimartingaleSpec,
    InconsistentSemimartingale,
    dominate_growth,
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
)
from .verify import run_all

__all__ = [
    "TimeGrid",
    "Lattice",
    "AdaptedProcess",
    "PredictableProcess",
    "IncreasingProcess",
    "BarrierSet",
    "EnvelopeResult",
    "InfeasibleBarriers",
    "envelope_profile",
    "envelope_star_profile",
    "check_left_constraint",
    "Driver",
    "GrowthBounds",
    "SemimartingaleSpec",
    "InconsistentSemimartingale",
    "dominate_growth",
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
    "run_all",
]

__version__ = "0.1.0"
