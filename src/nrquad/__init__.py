"""Trapezoid quadrature on Newton-Raphson partitions.

The package has four layers:

* :mod:`nrquad.expressions` — parse, evaluate, differentiate, and print
  univariate expression trees.
* :mod:`nrquad.newton` — safeguarded Newton-Raphson iteration producing a
  complete, auditable step trace.
* :mod:`nrquad.quadrature` — the Newton-partition trapezoid rule itself.
* :mod:`nrquad.baselines` — classical rules (Riemann, midpoint,
  trapezoid, Simpson), an adaptive-Simpson reference oracle, and error
  statistics.

A small CLI (:mod:`nrquad.cli`) wires these together; see the README.
"""

from .baselines import (
    DepthLimitError,
    ErrorStats,
    NonfiniteSampleError,
    error_stats,
    left_riemann,
    midpoint,
    reference_integral,
    right_riemann,
    simpson,
    trapezoid,
)
from .expressions import (
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    ParseError,
    Var,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
)
from .newton import (
    DerivativeVanishedError,
    NewtonError,
    NewtonStep,
    NewtonTrace,
    NonfiniteValueError,
    StoppingCriteria,
    Termination,
    newton_iterate,
    newton_step,
)
from .quadrature import (
    Interval,
    NrQuadSettings,
    QuadResult,
    QuadStatus,
    ValidationError,
    ValidationReport,
    nr_integrate,
    validate_problem,
)

__version__ = "0.1.0"

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "DepthLimitError",
    "DerivativeVanishedError",
    "ErrorStats",
    "Expression",
    "Interval",
    "Neg",
    "NewtonError",
    "NewtonStep",
    "NewtonTrace",
    "NonfiniteSampleError",
    "NonfiniteValueError",
    "NrQuadSettings",
    "ParseError",
    "QuadResult",
    "QuadStatus",
    "StoppingCriteria",
    "Termination",
    "ValidationError",
    "ValidationReport",
    "Var",
    "differentiate",
    "error_stats",
    "evaluate",
    "left_riemann",
    "midpoint",
    "newton_iterate",
    "newton_step",
    "nr_integrate",
    "parse",
    "reference_integral",
    "right_riemann",
    "simplify",
    "simpson",
    "to_text",
    "trapezoid",
    "validate_problem",
]
