"""Value semantics of the public record types: equality, hash, repr, immutability, copies, patterns."""

import copy
import inspect
import math
import pickle

import pytest

from nrquad import (
    BinOp,
    Call,
    Const,
    ErrorStats,
    Interval,
    Neg,
    NewtonStep,
    NewtonTrace,
    NrQuadSettings,
    Panel,
    QuadResult,
    QuadStatus,
    StoppingCriteria,
    Termination,
    ValidationReport,
    Var,
    parse,
)

STEP = NewtonStep(x_k=1.0, f_k=6.0, df_k=7.0, step=6.0 / 7.0, x_next=1.0 - 6.0 / 7.0)
TRACE = NewtonTrace((STEP,), Termination.REACHED_TARGET, STEP.x_next)

# (value, a field-for-field copy, an instance differing in one field, repr text)
CASES = [
    (Const(2), Const(2.0), Const(3.0), "Const(value=2.0)"),
    (Var(), Var(), Const(0.0), "Var()"),
    (Neg(Var()), Neg(Var()), Neg(Const(1.0)), "Neg(child=Var())"),
    (
        BinOp("+", Var(), Const(1.0)),
        BinOp("+", Var(), Const(1.0)),
        BinOp("-", Var(), Const(1.0)),
        "BinOp(op='+', left=Var(), right=Const(value=1.0))",
    ),
    (Call("sin", Var()), Call("sin", Var()), Call("cos", Var()), "Call(name='sin', arg=Var())"),
    (
        STEP,
        NewtonStep(1.0, 6.0, 7.0, 6.0 / 7.0, 1.0 - 6.0 / 7.0),
        NewtonStep(1.0, 6.0, 7.0, 6.0 / 7.0, 0.0),
        "NewtonStep(x_k=1.0, f_k=6.0, df_k=7.0, step=0.8571428571428571, x_next=0.1428571428571429)",
    ),
    (
        TRACE,
        NewtonTrace((STEP,), Termination.REACHED_TARGET, STEP.x_next),
        NewtonTrace((STEP,), Termination.STEP_SMALL, STEP.x_next),
        f"NewtonTrace(steps=({STEP!r},), termination=<Termination.REACHED_TARGET: 'reached-target'>, "
        "final_x=0.1428571428571429)",
    ),
    (
        StoppingCriteria(),
        StoppingCriteria(None, 1e-6, None, 1e-12, 100, 1e-12),
        StoppingCriteria(target=0.0),
        "StoppingCriteria(target=None, tol_x=1e-06, tol_f=None, tol_step=1e-12, max_iter=100, "
        "derivative_epsilon=1e-12)",
    ),
    (Interval(-0.5, 1.0), Interval(a=-0.5, b=1.0), Interval(-0.5, 2.0), "Interval(a=-0.5, b=1.0)"),
    (
        NrQuadSettings(tol_x=0.01),
        NrQuadSettings(0.01, None, 100, False, True),
        NrQuadSettings(tol_x=0.01, validate=False),
        "NrQuadSettings(tol_x=0.01, tol_f=None, max_iter=100, closing_triangle=False, validate=True)",
    ),
    (Panel(1.0, 0.5, 0.25), Panel(x_k=1.0, width=0.5, area=0.25), Panel(1.0, 0.5, 0.5), "Panel(x_k=1.0, width=0.5, area=0.25)"),
    (
        QuadResult(0.5, (Panel(1.0, 1.0, 0.5),), 0.0, 0.0, TRACE),
        QuadResult(0.5, (Panel(1.0, 1.0, 0.5),), 0.0, 0.0, TRACE),
        QuadResult(0.5, (Panel(1.0, 1.0, 0.5),), 0.0, 0.0, NewtonTrace((STEP,), Termination.OVERSHOOT_CLAMPED, 0.5)),
        f"QuadResult(value=0.5, panels=(Panel(x_k=1.0, width=1.0, area=0.5),), closing_area=0.0, "
        f"residual_gap=0.0, trace={TRACE!r})",
    ),
    (
        ValidationReport(True, True, False, ("f'(b) = 0.0 is not positive",)),
        ValidationReport(True, True, False, ("f'(b) = 0.0 is not positive",)),
        ValidationReport(True, True, True, ()),
        "ValidationReport(monotone_increasing=True, root_at_a=True, derivative_positive_at_b=False, "
        "messages=(\"f'(b) = 0.0 is not positive\",))",
    ),
    (
        ErrorStats(3.3125, 3.375, 0.0625, 1.8518518518518519),
        ErrorStats(3.3125, 3.375, 0.0625, 1.8518518518518519),
        ErrorStats(3.3125, 3.375, 0.0625, 2.0),
        "ErrorStats(approx=3.3125, reference=3.375, abs_error=0.0625, rel_error_pct=1.8518518518518519)",
    ),
]

IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
class TestValueSemantics:
    def test_equality_and_hash_follow_the_fields(self, value, same, other, text):
        assert value == same and not value != same
        assert hash(value) == hash(same)
        assert value != other
        assert len({value, same, other}) == 2

    def test_repr_names_every_field(self, value, same, other, text):
        assert repr(value) == text

    def test_fields_cannot_be_assigned_or_deleted(self, value, same, other, text):
        for name in type(value).__match_args__ or ("anything",):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 0
        assert value == same

    def test_copy_and_pickle_round_trip(self, value, same, other, text):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == text

    def test_match_args_are_the_constructor_parameters(self, value, same, other, text):
        assert type(value).__match_args__ == tuple(inspect.signature(type(value)).parameters)


def test_class_patterns_bind_fields_in_order():
    def describe(e):
        match e:
            case Const(v):
                return repr(v)
            case Var():
                return "x"
            case Neg(child):
                return f"neg({describe(child)})"
            case BinOp(op, left, right):
                return f"{op}({describe(left)}, {describe(right)})"
            case Call(name, arg):
                return f"{name}({describe(arg)})"

    assert describe(parse("-sin(x)+2*x")) == "+(neg(sin(x)), *(2.0, x))"
    match TRACE:
        case NewtonTrace((NewtonStep(1.0, f_k, df_k, step, x_next),), Termination.REACHED_TARGET, final_x):
            assert (f_k, df_k, step, x_next, final_x) == (6.0, 7.0, STEP.step, STEP.x_next, STEP.x_next)
        case _:
            pytest.fail("the trace pattern did not match")
    match Interval(-0.5, 1.0), ErrorStats(3.3125, 3.375, 0.0625, 1.85):
        case Interval(a, b), ErrorStats(approx, reference, abs_error=abs_error):
            assert (a, b, approx, reference, abs_error) == (-0.5, 1.0, 3.3125, 3.375, 0.0625)
        case _:
            pytest.fail("the interval pattern did not match")


def test_quad_status_follows_the_termination():
    expected = {
        Termination.REACHED_TARGET: QuadStatus.OK,
        Termination.RESIDUAL_SMALL: QuadStatus.OK,
        Termination.STEP_SMALL: QuadStatus.OK,
        Termination.OVERSHOOT_CLAMPED: QuadStatus.CLAMPED,
        Termination.MAX_ITERATIONS: QuadStatus.BUDGET_EXHAUSTED,
    }
    for termination, status in expected.items():
        result = QuadResult(0.5, (Panel(1.0, 1.0, 0.5),), 0.0, 0.0, NewtonTrace((STEP,), termination, STEP.x_next))
        assert result.status is status, termination
    with pytest.raises(AttributeError):
        result.status = QuadStatus.OK


def test_equality_needs_the_same_class():
    assert Panel(1.0, 0.5, 0.25) != (1.0, 0.5, 0.25)
    assert Var() != Neg(Var())
    assert Const(1.0).__eq__(1.0) is NotImplemented


def test_constructors_keep_their_validation_messages():
    with pytest.raises(ValueError, match="constants must be finite, got nan"):
        Const(math.nan)
    with pytest.raises(ValueError, match=r"interval requires a < b, got \[1.0, 1.0\]"):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError, match="tol_x must be positive, got 0"):
        NrQuadSettings(tol_x=0)
    with pytest.raises(ValueError, match="tol_f must be positive, got -1.0"):
        NrQuadSettings(tol_f=-1.0)
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        NrQuadSettings(max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        StoppingCriteria(max_iter=0)
    with pytest.raises(TypeError):
        Var(1.0)
