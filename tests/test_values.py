"""The contract of gch's immutable value classes.

Each class is built by keyword and by position with the same defaults,
refuses assignment and deletion, compares and hashes by value within its
own class only, keeps its repr and its validation messages, and survives
copy and pickle.  ``NestedTruncation`` takes no arguments: it records the
caps in force, so its cases build it with the caps set to their values.
"""

import copy
import math
import pickle
import re

import pytest

from gch import series
from gch.errors import NonFiniteError
from gch.params import EvalResult, GchParams, SolutionKind
from gch.recurrence import coefficients
from gch.series import NestedTruncation, betas_from_omega
from gch.spectra import Confinement, EigenState, QQbar, RotatingOscillator, make_state, normalize, radial_norm
from gch.verify import CrossRecord, CrossReport, GridSpec, ResidualReport

P = GchParams(-2.0, 1.0, 1.5, 0.3, 0.25)
OSCILLATOR = RotatingOscillator(l_m=0, omega_c=2.0)
RECORD = CrossRecord(P, SolutionKind.SECOND, 0.5, 1.25, 1.25, 0.0)

#: class, field names, field values, the same values with one field changed, pinned repr
CASES = [
    (GchParams, ("mu", "eps", "nu", "Omega", "omega"), (-2.0, 1.0, 1.5, 0.3, 0.25),
     (-2.0, 1.0, 1.5, 0.3, 0.5),
     "GchParams(mu=-2.0, eps=1.0, nu=1.5, Omega=0.3, omega=0.25)"),
    (EvalResult, ("value", "terms_used", "last_term_mag", "converged", "orders_used"),
     (0.5, 81, 1e-17, True, 2), (0.5, 81, 1e-17, False, 2),
     "EvalResult(value=0.5, terms_used=81, last_term_mag=1e-17, converged=True, orders_used=2)"),
    (NestedTruncation, ("max_order_N", "max_inner", "rel_tol"), (48, 240, 1e-12), (48, 241, 1e-12),
     "NestedTruncation(max_order_N=48, max_inner=240, rel_tol=1e-12)"),
    (RotatingOscillator, ("l_m", "omega_c"), (1, 2.0), (2, 2.0),
     "RotatingOscillator(l_m=1, omega_c=2.0)"),
    (Confinement, ("a", "b", "c", "mass", "l"), (1.0, 0.2, 0.5, 1.0, 0), (1.0, 0.2, 0.5, 2.0, 0),
     "Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0)"),
    (QQbar, ("m_q", "b_slope", "l"), (0.3, 1.0, 0), (0.3, 1.0, 1),
     "QQbar(m_q=0.3, b_slope=1.0, l=0)"),
    (EigenState, ("i", "beta_i", "eigenvalue", "gch", "system"), (1, 2, 3.5, P, OSCILLATOR),
     (1, 2, 4.5, P, OSCILLATOR),
     "EigenState(i=1, beta_i=2, eigenvalue=3.5, "
     "gch=GchParams(mu=-2.0, eps=1.0, nu=1.5, Omega=0.3, omega=0.25), "
     "system=RotatingOscillator(l_m=0, omega_c=2.0))"),
    (ResidualReport, ("x", "residual", "scale"), (0.5, 1e-16, 2.0), (0.5, 1e-16, 4.0),
     "ResidualReport(x=0.5, residual=1e-16, scale=2.0)"),
    (GridSpec, ("mu", "eps", "nu", "Omega", "omega", "x", "kinds"),
     ((-2.0,), (1.0,), (1.5,), (0.3,), (0.25,), (0.1, 0.5), (SolutionKind.FIRST,)),
     ((-2.0,), (1.0,), (1.5,), (0.3,), (0.25,), (0.1,), (SolutionKind.FIRST,)),
     "GridSpec(mu=(-2.0,), eps=(1.0,), nu=(1.5,), Omega=(0.3,), omega=(0.25,), x=(0.1, 0.5), "
     "kinds=(<SolutionKind.FIRST: 'first'>,))"),
    (CrossRecord, ("params", "kind", "x", "oracle", "closed", "rel_err", "error"),
     (P, SolutionKind.FIRST, 0.5, None, None, None, "PoleError: chain 0"),
     (P, SolutionKind.SECOND, 0.5, None, None, None, "PoleError: chain 0"),
     "CrossRecord(params=GchParams(mu=-2.0, eps=1.0, nu=1.5, Omega=0.3, omega=0.25), "
     "kind=<SolutionKind.FIRST: 'first'>, x=0.5, oracle=None, closed=None, rel_err=None, "
     "error='PoleError: chain 0')"),
    (CrossReport, ("records", "max_rel_err", "n_evaluated", "n_failed"), ((RECORD,), 0.0, 1, 0),
     ((RECORD,), 0.0, 1, 1),
     "CrossReport(records=(CrossRecord(params=GchParams(mu=-2.0, eps=1.0, nu=1.5, Omega=0.3, "
     "omega=0.25), kind=<SolutionKind.SECOND: 'second'>, x=0.5, oracle=1.25, closed=1.25, "
     "rel_err=0.0, error=None),), max_rel_err=0.0, n_evaluated=1, n_failed=0)"),
]
IDS = [case[0].__name__ for case in CASES]


def _build(cls, values, by_keyword=False):
    """cls(*values), or by keyword; a NestedTruncation (or a subclass) as
    ``cls()`` reads it with the caps set to ``values``."""
    if not issubclass(cls, NestedTruncation):
        return cls(**dict(zip(cls.__slots__, values))) if by_keyword else cls(*values)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("_MAX_ORDER", "_MAX_INNER", "_REL_TOL"), values):
            mp.setattr(series, name, value)
        return cls()


@pytest.mark.parametrize("cls,fields,values,_changed,_repr", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, _changed, _repr):
    assert fields == cls.__slots__
    by_position = _build(cls, values)
    by_keyword = _build(cls, values, by_keyword=True)
    assert by_position == by_keyword
    for obj in (by_position, by_keyword):
        assert tuple(getattr(obj, name) for name in fields) == values


DEFAULTS = [
    (lambda: NestedTruncation()._values(), lambda: (48, 240, 1e-12)),
    (lambda: GridSpec(kinds=(SolutionKind.FIRST,)),
     lambda: GridSpec((-2.0, -0.5, 0.5, 2.0), (-2.0, -0.5, 0.5, 2.0), (0.5, 1.5), (-1.0, 1.0),
                      (0.25, 1.0), (0.1, 0.5, 1.0), (SolutionKind.FIRST,))),
    (lambda: EvalResult(1.0, 5, 0.0, True), lambda: EvalResult(1.0, 5, 0.0, True, None)),
    (lambda: EvalResult(value=1.0, terms_used=5, last_term_mag=0.0, converged=True, orders_used=1),
     lambda: EvalResult(1.0, 5, 0.0, True, 1)),
    (lambda: GridSpec(),
     lambda: GridSpec((-2.0, -0.5, 0.5, 2.0), (-2.0, -0.5, 0.5, 2.0), (0.5, 1.5), (-1.0, 1.0),
                      (0.25, 1.0), (0.1, 0.5, 1.0), (SolutionKind.FIRST, SolutionKind.SECOND))),
    (lambda: GridSpec(x=(0.5,)),
     lambda: GridSpec((-2.0, -0.5, 0.5, 2.0), (-2.0, -0.5, 0.5, 2.0), (0.5, 1.5), (-1.0, 1.0),
                      (0.25, 1.0), (0.5,), (SolutionKind.FIRST, SolutionKind.SECOND))),
    (lambda: CrossRecord(P, SolutionKind.FIRST, 0.5, 1.0, 1.0, 0.0),
     lambda: CrossRecord(P, SolutionKind.FIRST, 0.5, 1.0, 1.0, 0.0, None)),
]


@pytest.mark.parametrize("implicit,explicit", DEFAULTS)
def test_defaults(implicit, explicit):
    assert implicit() == explicit()
    assert repr(implicit()) == repr(explicit())


@pytest.mark.parametrize("cls,fields,values,_changed,_repr", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, values, _changed, _repr):
    obj = _build(cls, values)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == _build(cls, values)
    assert not hasattr(obj, "not_a_field")


@pytest.mark.parametrize("cls,_fields,values,changed,_repr", CASES, ids=IDS)
def test_equality_and_hash_by_value(cls, _fields, values, changed, _repr):
    a, b = _build(cls, values), _build(cls, values)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1
    other = _build(cls, changed)
    assert a != other and not a == other


@pytest.mark.parametrize("cls,_fields,values,_changed,_repr", CASES, ids=IDS)
def test_not_equal_to_tuple_or_subclass(cls, _fields, values, _changed, _repr):
    obj = _build(cls, values)
    assert obj != values and values != obj
    assert obj != list(values)
    same_name = _build(type(cls.__name__, (cls,), {}), values)
    assert obj != same_name and same_name != obj


@pytest.mark.parametrize("one,other", [
    (GchParams(1.0, 0.2, 0.5, 1.0, 0), Confinement(1.0, 0.2, 0.5, 1.0, 0)),
    (NestedTruncation(), ResidualReport(48, 240, 1e-12)),
    (ResidualReport(48, 240, 1), QQbar(48, 240, 1)),
    (EigenState(1.0, 0.2, 0.5, 1.0, 0), Confinement(1.0, 0.2, 0.5, 1.0, 0)),
], ids=["params-confinement", "nested-residual", "residual-qqbar", "state-confinement"])
def test_classes_with_equal_values_differ(one, other):
    assert one != other and other != one


@pytest.mark.parametrize("cls,_fields,values,_changed,pinned", CASES, ids=IDS)
def test_repr_pinned(cls, _fields, values, _changed, pinned):
    assert repr(_build(cls, values)) == pinned


@pytest.mark.parametrize("make,message", [
    (lambda: RotatingOscillator(l_m=-1, omega_c=1.0), "l_m must be a nonnegative integer"),
    (lambda: RotatingOscillator(l_m=0, omega_c=0.0), "omega_c must be positive"),
    (lambda: Confinement(a=1.0, b=0.2, c=0.0, mass=1.0, l=0), "c must be positive"),
    (lambda: Confinement(a=1.0, b=0.2, c=0.5, mass=-1.0, l=0), "mass must be positive"),
    (lambda: Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=-1), "l must be a nonnegative integer"),
    (lambda: QQbar(m_q=-0.1, b_slope=1.0, l=0), "quark mass must be nonnegative"),
    (lambda: QQbar(m_q=0.3, b_slope=0.0, l=0), "slope b must be positive"),
    (lambda: QQbar(m_q=0.3, b_slope=1.0, l=-1), "l must be a nonnegative integer"),
    (lambda: RotatingOscillator(l_m=0.5, omega_c=2.0), "l_m must be an integer, got 0.5"),
    (lambda: Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0.5), "l must be an integer, got 0.5"),
    (lambda: QQbar(m_q=0.3, b_slope=1.0, l=1.5), "l must be an integer, got 1.5"),
    (lambda: betas_from_omega(GchParams(0.5, 0.3, 1.5, -1.0, 0.0), 0.0, 2.0), "count must be an integer, got 2.0"),
    (lambda: coefficients(P, 0.0, 1.0, 3.0), "count must be an integer, got 3.0"),
    (lambda: normalize(OSCILLATOR, make_state(OSCILLATOR, 0, 0), 10.0, 41.0), "n_points must be an integer, got 41.0"),
    (lambda: radial_norm(lambda r: r, 1.0, 3.0), "n_points must be an integer, got 3.0"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: RotatingOscillator(l_m=0, omega_c=math.inf), "omega_c=inf is not a finite real"),
    (lambda: RotatingOscillator(l_m=0, omega_c=math.nan), "omega_c=nan is not a finite real"),
    (lambda: Confinement(a=math.nan, b=0.2, c=0.5, mass=1.0, l=0), "a=nan is not a finite real"),
    (lambda: Confinement(a=1.0, b=-math.inf, c=0.5, mass=1.0, l=0), "b=-inf is not a finite real"),
    (lambda: Confinement(a=1.0, b=0.2, c=math.inf, mass=1.0, l=0), "c=inf is not a finite real"),
    (lambda: Confinement(a=1.0, b=0.2, c=0.5, mass=math.nan, l=0), "mass=nan is not a finite real"),
    (lambda: QQbar(m_q=math.nan, b_slope=1.0, l=0), "m_q=nan is not a finite real"),
    (lambda: QQbar(m_q=0.3, b_slope=math.inf, l=0), "b_slope=inf is not a finite real"),
])
def test_non_finite_fields_refused(make, message):
    # the sign checks pass a NaN, and an infinite coupling maps onto a
    # degenerate parameter set
    with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("cls,_fields,values,_changed,_repr", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, _fields, values, _changed, _repr):
    obj = _build(cls, values)
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for dup in copies:
        assert type(dup) is cls
        assert dup == obj
        assert hash(dup) == hash(obj)
        assert repr(dup) == repr(obj)
