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

The names of :mod:`nrquad.baselines` load it on first use (PEP 562), so a
launch that never compares, such as ``nrquad integrate``, does not
compile it.
"""

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

_BASELINES = (
    "DepthLimitError",
    "ErrorStats",
    "NonfiniteSampleError",
    "error_stats",
    "left_riemann",
    "midpoint",
    "reference_integral",
    "right_riemann",
    "simpson",
    "trapezoid",
)


def __getattr__(name: str) -> object:
    if name in _BASELINES:
        from . import baselines

        return getattr(baselines, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_BASELINES})


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
