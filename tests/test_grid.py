"""evaluate_grid against the per-point calls, and the callers that use it."""

import math
import random
import re

import mpmath as mp
import pytest

from gch import series, verify
from gch.errors import (
    DomainError, FloatOverflow, GchError, NonFiniteError, PoleError, SampleNotConverged, TailNotDecayed,
)
from gch.params import EvalResult, GchParams, SolutionKind, validate
from gch.recurrence import sum_series
from gch.series import _general, _required_cap, eval_general, evaluate, evaluate_grid
from gch.spectra import Confinement, QQbar, RotatingOscillator, make_state, normalize, wavefunction_result
from gch.verify import CrossRecord, GridSpec, cross_validate

from decomposition import orders
from reference import kummer

FIRST, SECOND = SolutionKind.FIRST, SolutionKind.SECOND


def _depth(res):
    """The chain depth a result ran: terms_used is cap + 1 per order."""
    return res.terms_used // res.orders_used - 1


def _mass(decomposition):
    """sum |orders|: the scale of the rounding a value's orders carry."""
    return math.fsum(abs(o) for o in decomposition)


def _assert_matches_points(p, kind, xs):
    """Each grid result has its per-point call's flags, depth and order
    count, and its value to 1e-12 of sum |orders|."""
    grid = evaluate_grid(p, kind, xs)
    assert len(grid) == len(xs)
    for x, g in zip(xs, grid):
        r = evaluate(p, kind, x)
        assert (g.converged, g.terms_used, g.orders_used) == (r.converged, r.terms_used, r.orders_used), x
        assert abs(g.value - r.value) <= 1e-12 * _mass(orders(p, kind, x)), x
    return grid


# ----------------------------------------------------------- one-point grids

# (params, kind, x): both kinds, both classes, both sides of the mu > 0
# transform test (mu x^2/2 = 1 at x = 1 for mu = 2)
ONE_POINT = [
    (GchParams(-2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 1.3),
    (GchParams(-2.0, 1.0, 1.5, 3.0, 0.25), SECOND, 1.3),
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 0.6),
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 3.5),
    (GchParams(2.0, 1.0, 0.5, 3.0, 0.25), SECOND, 0.0),
    (GchParams(0.5, 0.3, 1.5, -1.0, 0.0), FIRST, 0.4),   # chain 0 ends: B-terminated
    (GchParams(0.5, 0.3, 1.5, -1.0, 0.0), FIRST, 3.0),   # transformed, chain 0 ends there too
    (GchParams(-1.0, 0.7, 0.5, 2.0, 0.4), SECOND, 1.1),  # n* = 2 at lam = 1/2: chain 1 ends
]


@pytest.mark.parametrize("p,kind,x", ONE_POINT)
def test_one_point_grid_is_evaluate(p, kind, x):
    assert evaluate_grid(p, kind, [x]) == [evaluate(p, kind, x)]


@pytest.mark.parametrize("p,kind,x", ONE_POINT)
def test_one_point_general_grid_is_eval_general(p, kind, x):
    lam = kind.lambda_of(p.nu)
    assert _general([p], lam, [x]) == [eval_general(p, lam, x)]


def test_reference_point_is_bit_identical():
    # the point of largest |x|, its duplicate and its mirror sum the shared
    # engine's vectors themselves, so they agree with evaluate bit for bit
    p = GchParams(-1.5, 0.8, 0.7, 0.9, 0.3)
    xs = [0.4, 2.1, -2.1, 1.0, 2.1]
    grid = evaluate_grid(p, FIRST, xs)
    for i in (1, 2, 4):
        assert grid[i] == evaluate(p, FIRST, xs[i])


# ----------------------------------------------------------------- mixed grids

@pytest.mark.parametrize("p,kind,xs", [
    # unsorted, duplicates and +-x
    (GchParams(-2.0, 1.0, 1.5, 3.0, 0.25), FIRST, [0.7, -0.3, 1.9, 0.7, -1.9, 0.05, 1.2, 0.3]),
    (GchParams(-0.8, -1.4, 0.6, 0.5, 1.1), FIRST, [2.5, 0.1, -1.0, 2.4, 0.0, 1.7, -0.6]),
    # mu > 0 across mu x^2/2 = 1 (x = 1): two engines
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, [0.2, 0.9, 1.0, 1.0000001, 1.1, 2.5, 4.0, -3.0, 0.5]),
    (GchParams(0.7, -1.3, 0.5, -0.4, 0.9), FIRST, [-3.5, 0.3, 1.6, 1.7, -0.1, 5.0]),
    # eps = 0: order 0 only
    (GchParams(-2.0, 0.0, 1.5, 3.0, 0.25), FIRST, [0.3, 3.0, 1.2, 0.0, 2.2]),
    (GchParams(2.0, 0.0, 1.5, 3.0, 0.25), FIRST, [0.3, 3.0, 1.2, 0.0, 5.0]),
    # the second kind (z >= 0 at mu < 0)
    (GchParams(-1.0, 0.8, 0.5, 0.7, 1.2), SECOND, [0.2, 1.4, 0.9, 2.6, 0.0]),
    (GchParams(-0.5, -2.0, 0.3, 1.0, 0.25), SECOND, [3.0, 0.5, 1.5]),
    # B-terminated: Omega = -mu (2 beta_0 + lam), beta_0 = 1 and 2
    (GchParams(0.5, 0.3, 1.5, -1.0, 0.0), FIRST, [0.4, 3.0, 1.0, 2.0, 0.1]),
    (GchParams(-1.0, 1.0, 2.0, 4.0, 1.0), FIRST, [0.5, 4.0, 2.5, 1.0, 3.0]),
])
def test_grid_matches_points(p, kind, xs):
    _assert_matches_points(p, kind, xs)


def test_zero_beside_a_tiny_reference(monkeypatch):
    # z = 0 is scanned like any z, so it is no deeper than the tiny
    # reference whose vectors it reads: one engine run
    p = GchParams(-2.0, 1.0, 1.5, 3.0, 0.25)
    xs = [0.0, 1e-6, -3e-7]
    grid = _assert_matches_points(p, FIRST, xs)
    assert _depth(grid[0]) <= min(_depth(grid[1]), _depth(grid[2]))
    runs = _engine_runs(monkeypatch)
    assert evaluate_grid(p, FIRST, xs) == grid
    assert len(runs) == 1


def test_point_needing_more_orders_than_the_reference():
    # the stop rule compares each order with the point's own running sum,
    # so a nearer point can take more orders than the reference
    xs = [1.24, 0.5, 1.26]
    grid = _assert_matches_points(GchParams(-2.0, 0.4, 2.0, 4.0, 0.5), FIRST, xs)
    assert grid[0].orders_used == 15 > grid[2].orders_used == 14


def _engine_runs(monkeypatch):
    """The count of vectors each engine run read from here on has yielded,
    one entry per run."""
    runs = []
    engine = series._engine

    def counting(chains, weights, z, cap):
        k = len(runs)
        runs.append(0)
        for g in engine(chains, weights, z, cap):
            runs[k] += 1
            yield g

    monkeypatch.setattr(series, "_engine", counting)
    return runs


def test_one_engine_run_per_side(monkeypatch):
    # the point that needs more orders than the reference reads the same
    # engine further, and the engine builds no order that no point sums:
    # the points take 15, 11 and 14 orders, and its one run yields 15
    # vectors; at mu > 0 the points past the transform test share a second
    calls = _engine_runs(monkeypatch)
    grid = evaluate_grid(GchParams(-2.0, 0.4, 2.0, 4.0, 0.5), FIRST, [1.24, 0.5, 1.26])
    assert [r.orders_used for r in grid] == [15, 11, 14]
    assert calls == [15]
    calls.clear()
    evaluate_grid(GchParams(2.0, 0.4, 1.5, 3.0, 0.5), FIRST, [0.3, 2.0, 0.9, 1.5])
    assert len(calls) == 2


def test_every_evaluator_reaches_its_points_through_results(monkeypatch):
    # one route from a point to its outcome, for one point or many
    calls = []
    results = series._results

    def recording(ps, lam, nstar, pref_of, xs):
        calls.append(list(xs))
        return results(ps, lam, nstar, pref_of, xs)

    monkeypatch.setattr(series, "_results", recording)
    p = GchParams(-1.0, 0.5, 1.5, 1.0, 0.25)
    evaluate(p, FIRST, 0.5)
    evaluate_grid(p, SECOND, [0.5, 1.0])
    eval_general(p, 0.0, 0.7)
    assert calls == [[0.5], [0.5, 1.0], [0.7]]


def test_value_off_the_table_not_finite_runs_its_own_engine():
    # the reference's order vectors at x = 50 overflow; x = 30 is finite on
    # its own, though not converged
    p = GchParams(-2.0, 0.0, 1.5, -3.0, 0.25)
    grid = evaluate_grid(p, FIRST, [30.0, 50.0])
    res = evaluate(p, FIRST, 30.0)
    assert grid[0] == res
    assert res.value == 3.2610390924448743e+239 and not res.converged
    assert grid[1].value == math.inf


def test_grid_under_a_given_truncation():
    # the fixed caps drop converged for the points past them only: the
    # order cap at eval-grid seed 36's x, the inner cap at z = 450
    p = GchParams(-2.1961829071987147, 2.1107639383592813, 0.8110273914219748, 13.177097443192288,
                  1.3137562216709568)
    grid = _assert_matches_points(p, FIRST, [0.5, 3.7732601192715816, 2.0])
    assert [r.converged for r in grid] == [True, False, True]
    grid = _assert_matches_points(GchParams(-1.0, 0.0, 1.5, 1.0, 0.0), FIRST, [0.2, 30.0, 10.0, 2.0])
    assert [r.converged for r in grid] == [True, False, True, True]


def test_empty_grid():
    assert evaluate_grid(GchParams(-1.0, 1.0, 1.5, 0.3, 0.2), FIRST, []) == []


def test_one_shot_iterables_give_every_point():
    # the x values are read once: an iterator gives what a list gives
    p = GchParams(-1.0, 1.0, 1.5, 0.3, 0.2)
    xs = [0.1, 0.2, -0.7]
    assert evaluate_grid(p, FIRST, iter(xs)) == evaluate_grid(p, FIRST, xs)
    assert len(evaluate_grid(p, FIRST, (x for x in xs))) == 3
    axes = dict(mu=(-2.0, 0.5), eps=(1.0,), nu=(1.5,), Omega=(-3.0,), omega=(0.25,), kinds=(FIRST, SECOND))
    listed = cross_validate(GridSpec(x=[0.1, 0.5], **axes))
    assert listed.n_evaluated == 8
    assert cross_validate(GridSpec(x=(x for x in (0.1, 0.5)), **axes)) == listed
    once = {name: iter(axis) for name, axis in axes.items()}
    assert cross_validate(GridSpec(x=iter([0.1, 0.5]), **once)) == listed


# ------------------------------------------------------ errors in input order

def test_domain_error_at_first_failing_x():
    # second kind at mu > 0: z = -mu x^2/2 < 0 has no real power
    # 1 - gamma = 1/4, except at x = 0
    p = GchParams(2.0, 1.0, 0.5, 3.0, 0.25)
    assert evaluate(p, SECOND, 0.0).value == 0.0
    with pytest.raises(DomainError) as per_point:
        evaluate(p, SECOND, 0.5)
    with pytest.raises(DomainError) as grid:
        evaluate_grid(p, SECOND, [0.0, 0.5, 1.0, 3.0])
    assert str(grid.value) == str(per_point.value)
    # x^lam with fractional lam fails at each negative x, and only there;
    # the other points keep their own results
    xs = [0.2, 0.7, -0.3, -0.9]
    outcomes = _general([p] * len(xs), 1.0 - p.nu, xs)
    assert outcomes[:2] == [eval_general(p, 1.0 - p.nu, x) for x in xs[:2]]
    assert [f"{type(e).__name__}: {e}" for e in outcomes[2:]] == [
        "DomainError: (-0.3)**(0.5) is not real", "DomainError: (-0.9)**(0.5) is not real"]


def test_error_while_building_a_table_falls_back_to_points():
    # the shared engine runs at x = 40, whose order vectors hold
    # infinities of both signs; x = 40 reads what its own run would, so
    # its error is its outcome, and the nearer points read finite values
    # off the same vectors: the call raises what x = 40 raises on its own
    p = GchParams(-2.0, 1.0, 1.5, -3.0, 0.25)
    assert math.isfinite(evaluate(p, FIRST, 1.0).value)
    with pytest.raises(FloatOverflow) as per_point:
        evaluate(p, FIRST, 40.0)
    with pytest.raises(FloatOverflow) as grid:
        evaluate_grid(p, FIRST, [1.0, 40.0, 0.5, 3.0])
    assert str(grid.value) == str(per_point.value) == "nested sum overflows at x=40.0"


def test_failing_point_costs_the_others_nothing(monkeypatch):
    # x = 40 raises while the shared engine runs at its z; the other
    # points read the same engine, and nothing runs again
    runs = _engine_runs(monkeypatch)
    p = GchParams(-2.0, 1.0, 1.5, -3.0, 0.25)
    with pytest.raises(FloatOverflow, match=r"^nested sum overflows at x=40\.0$"):
        evaluate_grid(p, FIRST, [1.0, 40.0, 0.5, 3.0])
    assert len(runs) == 1
    runs.clear()
    # the oracle's sum overflows at x = 40 first, so the sweep's one grid
    # call takes the other points; test_read_that_raises_runs_alone covers
    # a closed-form point that fails inside cross_validate
    rep = cross_validate(GridSpec((-2.0,), (1.0,), (1.5,), (-3.0,), (0.25,), (1.0, 40.0, 0.5, 3.0), (FIRST,)))
    assert [r.error for r in rep.records] == [None, "FloatOverflow: recurrence sum overflows at x=40.0", None, None]
    assert len(runs) == 1


def test_read_that_raises_runs_alone(monkeypatch):
    # the transform factor overflows at each x: the reference x = 16 keeps
    # its error, and each other point's read raises and then runs alone
    runs = _engine_runs(monkeypatch)
    xs = (15.0, 15.5, 16.0, 14.5)
    rep = cross_validate(GridSpec((0.01,), (-100.0,), (1.5,), (1.0,), (0.3,), xs, (FIRST,)))
    assert [r.error for r in rep.records] == [
        f"FloatOverflow: transform factor e^({expo}) overflows at x={x}"
        for expo, x in zip((1498.875, 1548.79875, 1598.72, 1448.94875), xs)]
    assert len(runs) == 4


# the second kind's z^(1 - gamma) is not real at mu > 0, and at x = 1 the
# transformed parameters' Omega - mu (1 + nu) is -inf as well
HUGE_MU = GchParams(1e308, 0.5, 1.9, 1.0, 0.3)


def test_transformed_parameter_overflow_is_each_far_points_outcome():
    # the caller's Omega = 1 is finite; Omega - mu (1 + nu) overflows.
    # mu x^2/2 = 5e-13 at x = 1e-160: that point keeps its own value
    message = "transformed parameter Omega - mu(1+nu)=-inf overflows"
    near, *far = _general([HUGE_MU] * 3, 0.0, [1e-160, 1.0, 2.0])
    assert near == eval_general(HUGE_MU, 0.0, 1e-160)
    assert [(type(e), str(e)) for e in far] == [(FloatOverflow, message)] * 2
    with pytest.raises(FloatOverflow, match=f"^{re.escape(message)}$"):
        evaluate(HUGE_MU, FIRST, 1.0)


@pytest.mark.parametrize("xs,message", [
    ([1.0], "(-5e+307)**(-0.44999999999999996) is not real"),
    ([1e-160, 1.0], "(-5e-13)**(-0.44999999999999996) is not real"),
    ([1.0, 1e-160], "(-5e+307)**(-0.44999999999999996) is not real"),
])
def test_prefactor_error_before_the_transformed_parameters(xs, message):
    # a point's prefactor fails before its side's transformed parameters
    # are set up, so their FloatOverflow shows at no point
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        evaluate_grid(HUGE_MU, SECOND, xs)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        evaluate(HUGE_MU, SECOND, xs[0])


def _outcome_of(call):
    try:
        return call()
    except GchError as exc:
        return exc


def _assert_same_outcome(got, alone, where, decomposition=None):
    """got is what alone is: the same error, or a result with its flags,
    depth and order count, and its value to 1e-12 of sum |orders|, with
    ``decomposition()`` giving alone's orders."""
    if isinstance(alone, GchError):
        assert (type(got), str(got)) == (type(alone), str(alone)), where
        return
    assert isinstance(got, EvalResult), (where, got)
    assert (got.converged, got.terms_used, got.orders_used) == (
        alone.converged, alone.terms_used, alone.orders_used), where
    if got.value != alone.value and not (math.isnan(got.value) and math.isnan(alone.value)):
        assert abs(got.value - alone.value) <= 1e-12 * _mass(decomposition()), where


def test_grid_outcomes_are_the_points_own():
    # random grids, a third of them failing at some points: prefactors
    # that are not real (second kind at mu > 0 or x < 0), and transform
    # factors and order vectors past the float range.  |mu| >= 0.5 keeps
    # |Omega/(2 mu)| <= 10; at |mu| of 0.01 to 0.1 the terms of a chain can
    # cancel by more digits than a float holds, and then grid and point
    # values differ beyond this bound, both wrong while converged, in grids
    # where no point fails (ROADMAP open item 16)
    rng = random.Random(19)
    for _ in range(25):
        p = GchParams(rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-0.3, 0.5),
                      rng.choice((rng.uniform(-3.0, 3.0), rng.uniform(-100.0, 100.0))),
                      rng.uniform(-2.9, 1.9), rng.uniform(-10.0, 10.0), rng.uniform(-2.0, 2.0))
        xs = [rng.choice((-1.0, 1.0, 1.0)) * rng.uniform(0.0, rng.choice((4.0, 45.0)))
              for _ in range(rng.randint(2, 6))]
        for kind in (FIRST, SECOND):
            where = (p, kind, xs)
            alone = [_outcome_of(lambda: evaluate(p, kind, x)) for x in xs]
            first_error = next((e for e in alone if isinstance(e, GchError)), None)
            grid = _outcome_of(lambda: evaluate_grid(p, kind, xs))
            if first_error is not None:
                _assert_same_outcome(grid, first_error, where)
            else:
                for x, got, own in zip(xs, grid, alone):
                    _assert_same_outcome(got, own, where, lambda: orders(p, kind, x))
            lam = validate(p, kind)
            for x, got in zip(xs, _general([p] * len(xs), lam, xs)):
                _assert_same_outcome(got, _outcome_of(lambda: eval_general(p, lam, x)), where,
                                     lambda: orders(p, kind, x, normalised=False))


# ------------------------------------------------------------------ callers

def _records_point_by_point(spec):
    """cross_validate's records computed the way they were before the grid
    call: each point and kind on its own, the first error recorded."""
    records = []
    for p, x in ((p, x) for p in spec.param_sets() for x in spec.x):
        for kind in spec.kinds:
            try:
                lam = validate(p, kind)
                oracle = sum_series(p, lam, x).value
                closed = eval_general(p, lam, x).value
            except GchError as exc:
                records.append(CrossRecord(p, kind, x, None, None, None, f"{type(exc).__name__}: {exc}"))
                continue
            diff = abs(closed - oracle)
            records.append(CrossRecord(p, kind, x, oracle, closed, 0.0 if diff == 0.0 else diff / abs(oracle)))
    return tuple(records)


def test_cross_validate_records_are_the_per_point_ones():
    report = cross_validate()
    expected = _records_point_by_point(GridSpec())
    assert report.records == expected
    assert report.max_rel_err == max(r.rel_err for r in expected)
    assert (report.n_evaluated, report.n_failed) == (768, 0)


def test_cross_validate_records_failures_per_point():
    # x^lam fails at x < 0 for the second kind's fractional lam, and nu = 3
    # fails the second kind's restriction at every x
    spec = GridSpec(mu=(2.0,), eps=(1.0,), nu=(1.5, 3.0), Omega=(3.0,), omega=(0.25,), x=(0.5, -0.5))
    report = cross_validate(spec)
    assert report.records == _records_point_by_point(spec)
    errors = [(r.params.nu, r.x, r.kind.value, (r.error or "").split(":")[0]) for r in report.records]
    assert errors == [
        (1.5, 0.5, "first", ""), (1.5, 0.5, "second", ""),
        (1.5, -0.5, "first", ""), (1.5, -0.5, "second", "DomainError"),
        (3.0, 0.5, "first", ""), (3.0, 0.5, "second", "KindRestrictionError"),
        (3.0, -0.5, "first", ""), (3.0, -0.5, "second", "KindRestrictionError"),
    ]
    assert (report.n_evaluated, report.n_failed) == (5, 3)


def test_cross_validate_failing_point_redoes_nothing(monkeypatch):
    # the second kind's x^lam fails at x = -1: validate still runs once per
    # kind and the oracle once per point, and the other points keep theirs
    calls = {"sum_series": 0, "validate": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(verify, "sum_series", counting("sum_series", sum_series))
    monkeypatch.setattr(verify, "validate", counting("validate", validate))
    spec = GridSpec(mu=(2.0,), eps=(1.0,), nu=(1.5,), Omega=(3.0,), omega=(0.25,), x=(0.1, 0.5, -1.0))
    report = cross_validate(spec)
    assert calls == {"sum_series": 6, "validate": 2}
    assert report.records == _records_point_by_point(spec)
    assert [r.error.split(":")[0] for r in report.records if r.error] == ["DomainError"]


def test_cross_validate_records_mu_zero_per_point():
    # the oracle sums at mu = 0, and the closed form refuses it at each
    # point whose oracle succeeded; the second kind's x^lam fails at x < 0
    spec = GridSpec(mu=(0.0,), eps=(1.0,), nu=(1.5,), Omega=(3.0,), omega=(0.25,), x=(0.5, -0.5))
    report = cross_validate(spec)
    assert report.records == _records_point_by_point(spec)
    assert [(r.error or "").split(":")[0] for r in report.records] == [
        "PoleError", "PoleError", "PoleError", "DomainError"]
    p = GchParams(0.0, 1.0, 1.5, 3.0, 0.25)
    assert [type(res) for res in _general([p, p], 0.0, [0.5, 1.0])] == [PoleError, PoleError]
    assert _general([], 0.0, []) == []


def _per_mu_eps(spec):
    """cross_validate's records of spec from one call per (mu, eps) pair,
    concatenated in (mu, eps) order: the grid's record order, with no two
    parameter sets in one closed-form call."""
    return [rec for mu in spec.mu for eps in spec.eps
            for rec in cross_validate(GridSpec((mu,), (eps,), spec.nu, spec.Omega, spec.omega,
                                               spec.x, spec.kinds)).records]


def _random_spec(rng):
    """A grid whose sets differ in eps over 0.0, -0.0 and random values:
    both signs of mu, x past the mu > 0 transform test and far enough out
    for the oracle to overflow at some eps, x < 0 (the second kind's
    DomainError), nu at a kind restriction, signed zeros and the
    B-terminated class in Omega."""
    mus = [rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0) for _ in range(rng.randint(1, 2))]
    eps = [rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))) for _ in range(rng.randint(2, 3))]
    nus = [rng.choice((rng.choice((0.5, 1.5, 2.5)) + rng.uniform(-0.4, 0.4), 0.0, 3.0)) for _ in range(rng.randint(1, 2))]
    # chain 0 ends at Omega = -mu (2 beta_0 + lam), here at the first mu and lam = 0
    Omegas = [rng.choice((rng.uniform(-4.0, 4.0), 0.0, -0.0, -2.0 * rng.randrange(3) * mus[0]))
              for _ in range(rng.randint(1, 2))]
    x_t = (2.0 / abs(mus[0])) ** 0.5  # mu x^2/2 = 1 at the first mu
    xs = [rng.choice((rng.uniform(0.05, 3.0), -rng.uniform(0.1, 2.0), x_t * rng.uniform(1.1, 2.5),
                      rng.uniform(6.0, 9.0))) for _ in range(rng.randint(2, 3))]
    kinds = rng.sample((FIRST, SECOND), rng.randint(1, 2))
    return GridSpec(mus, eps, nus, Omegas, (rng.uniform(-1.0, 1.5),), xs, kinds)


# the oracle overflows at x = 7.51 for eps = 2.73 and 2.23, not for eps = -1.01
SPLIT_ORACLE = GridSpec(
    mu=(-2.9477654426892483, -1.5366393805786656), eps=(2.72559364519445, -1.010830744925201, 2.2326040815250385),
    nu=(0.5, 1.5), Omega=(0.0, -0.0), omega=(1.012551130942227,), x=(3.897345748922131, 7.507824413571151),
    kinds=(SECOND, FIRST))


def test_sets_differing_in_eps_keep_their_records():
    # the sets of one (mu, nu, Omega, omega) position share closed-form
    # calls only where their oracle succeeded at the same xs, so every
    # record keeps the repr of its set's own call
    rng = random.Random(37)
    seen = set()
    for spec in [SPLIT_ORACLE] + [_random_spec(rng) for _ in range(40)]:
        records = cross_validate(spec).records
        assert list(map(repr, records)) == list(map(repr, _per_mu_eps(spec))), spec
        seen.update((r.error or "").split(":")[0] for r in records)
    assert seen >= {"", "DomainError", "KindRestrictionError", "FloatOverflow"}
    # with one call per group, eps = 2.73 read the vectors of x = 7.51, which
    # only eps = -1.01's oracle reached, and its value moved to -2384.3676...
    rec = next(r for r in cross_validate(SPLIT_ORACLE).records
               if (r.params.eps, r.x, r.kind) == (2.72559364519445, 3.897345748922131, SECOND))
    assert rec.closed == -2384.3646459136485


def test_default_sweep_runs_one_engine_per_group_and_kind(monkeypatch):
    # 32 (mu, nu, Omega, omega) positions and 2 kinds: 64 engines for the
    # 128 sets, where one per set and kind ran 256; no x of the grid is past
    # the mu > 0 transform test (mu x^2/2 <= 1 at mu = 2, x = 1)
    runs = _engine_runs(monkeypatch)
    cross_validate()
    assert len(runs) == 64
    # groups go by axis position, not value: Omega = 0.0 and -0.0 run one each
    runs.clear()
    cross_validate(GridSpec((-1.0,), (0.5, 1.0), (1.5,), (0.0, -0.0), (0.25,), (0.5,), (FIRST,)))
    assert len(runs) == 2


def test_empty_eps_axis_gives_an_empty_report():
    report = cross_validate(GridSpec(eps=()))
    assert (report.records, report.max_rel_err, report.n_evaluated, report.n_failed) == ((), 0.0, 0, 0)


def test_wavefunction_result_is_a_one_point_grid():
    osc = RotatingOscillator(l_m=0, omega_c=2.0)
    state = make_state(osc, 1, 1)
    res = evaluate(state.gch, FIRST, osc.x_of(1.3))
    assert wavefunction_result(osc, state, 1.3) == (osc.envelope(1.3) * res.value, res.converged)


@pytest.mark.parametrize("system,state,unconverged", [
    (RotatingOscillator(l_m=2, omega_c=2.0), (1, 0), 6),
    (Confinement(a=1.0, b=1.0, c=0.5, mass=1.0, l=0), (0, 0), 8),
])
def test_normalize_refuses_unconverged_samples(system, state, unconverged):
    st = make_state(system, *state)
    with pytest.raises(SampleNotConverged, match=rf"^{unconverged} of 41 samples are not converged"):
        normalize(system, st, 14.0, 41)


def test_normalize_checks_the_tail_first():
    # one of these 7 samples is unconverged, and the tail has not decayed:
    # the tail check refuses first
    system = RotatingOscillator(l_m=0, omega_c=1.0)
    state = make_state(system, 0, 0)
    assert sum(not evaluate(state.gch, FIRST, system.x_of(10.0 * j / 6)).converged for j in range(7)) == 1
    with pytest.raises(TailNotDecayed):
        normalize(system, state, 10.0, 7)


def test_terminated_eps_zero_value_converges_past_the_inner_cap(caps):
    # with eps = 0 only chain 0 is summed, and its entries past its end
    # beta_0 = 2 are 0: the depth is beta_0 even where the envelope would
    # need more than the inner cap
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    caps(max_order_N=50, max_inner=120)
    res = evaluate(state.gch, FIRST, 11.5)
    assert _depth(res) == 2 and res.converged
    with mp.workdps(40):
        ref = kummer(state.gch, FIRST, 11.5)
    assert res.value == pytest.approx(float(ref), rel=1e-13)


def test_terminated_eps_zero_value_near_the_float_limit():
    # chain 0 ends at beta_0 = 1, so the value is 1.25 (1 - 0.8 z) with z =
    # x^2 = 1.44e308; read past the chain's end, 0 times an entry that
    # overflowed made it NaN
    x = 1.2e154
    res = evaluate(GchParams(-2.0, 0.0, 1.5, 4.0, 0.25), FIRST, x)
    assert res.converged and _depth(res) == 1
    assert res.value == pytest.approx(1.25 * (1.0 - 0.8 * x * x), rel=1e-15)


def test_non_finite_value_is_not_converged():
    # chain 0 ends at beta_0 = 2, so the value is a quadratic in the finite
    # z = 1e200, past the float range: it is returned, and flagged
    p, x = GchParams(-2.0, 0.0, 1.5, 8.0, 0.25), 1e100
    grid = evaluate_grid(p, FIRST, [0.5, x, 1.0])
    assert [r.converged for r in grid] == [True, False, True]
    got = [evaluate(p, FIRST, x), grid[1], eval_general(p, 0.0, x)]
    assert not any(math.isfinite(r.value) or r.converged for r in got)


@pytest.mark.parametrize("p,kind,x", [
    # z^(1-gamma) read 0 times the inf of the sum: NaN, flagged
    (GchParams(-2.0, 0.0, 1.5, 3.0, 0.25), SECOND, 1e155),
    # the chains ran to the inner cap on z = -inf: -inf, flagged
    (GchParams(-2.0, 0.0, 1.5, 3.0, 0.25), FIRST, 1e155),
    # x^2 = 1.96e308 is past the float range too, not only 1.25 (1 - 0.8 z)
    (GchParams(-2.0, 0.0, 1.5, 4.0, 0.25), FIRST, 1.4e154),
])
def test_z_past_the_float_range_is_a_float_overflow(p, kind, x):
    # refused as that point's outcome; the grid's other points keep theirs
    message = f"z = -mu x^2/2 overflows at x={x!r}"
    lam = kind.lambda_of(p.nu)
    near, far, one = _general([p] * 3, lam, [0.5, x, 1.0])
    assert [near, one] == [eval_general(p, lam, 0.5), eval_general(p, lam, 1.0)]
    assert (type(far), str(far)) == (FloatOverflow, message)
    for call in (lambda: evaluate(p, kind, x), lambda: evaluate_grid(p, kind, [0.5, x, 1.0]),
                 lambda: eval_general(p, lam, x)):
        with pytest.raises(FloatOverflow, match=f"^{re.escape(message)}$"):
            call()


# ------------------------------------------------- chain depth from both chains

@pytest.mark.parametrize("x,depth,ref", [
    (0.3, 17, "1.00549663572374009851214"),
    (1.0, 28, "-0.06773490975471773325225217"),
])
def test_depth_sees_chain_one_near_a_pole(x, depth, ref):
    # chain 1's (c + 1/2 + i) = gamma + 1/2 + i nearly vanishes at i = 9;
    # read from chain 0 alone the depth was 10 and 22 and the values off by
    # 2.7e-12 and 8.4e-12 while converged.  ref: the raw recurrence summed
    # in 80-digit arithmetic (400 terms; 100 digits agree to 1e-80)
    res = eval_general(GchParams(-1.3, 1.0, -20 + 1e-10, 0.4, 0.3), 0.0, x)
    assert res.converged
    assert _depth(res) == depth
    assert abs(res.value - float(ref)) <= 1e-13 * abs(float(ref))


@pytest.mark.parametrize("a_mag,b,c", [(1.8, 1.0, 1.25), (0.7, 1.0, -4.5 + 1e-9), (2.2, -0.75, 1.0), (9.0, 1.0, 3.0)])
def test_depth_never_falls_as_z_grows(a_mag, b, c):
    # the grid reads nearer points off the order vectors of the farthest one
    chains = ((0.0, b, c), (0.0, b + 0.5, c + 0.5))
    depths = [_required_cap(z, a_mag, chains, None) for z in (0.0, *(0.001 * 1.2 ** k for k in range(60)))]
    assert depths == sorted(depths)


# ------------------------------------------------------ grids pinned bit for bit

@pytest.mark.parametrize("p,xs,pinned", [
    # the points after the first read vectors the engine has built and
    # then build more (21, then 41, then 31 orders)
    (GchParams(-1.0, 3.0, 0.5, 0.7, 1.2), [0.5, 2.0, 1.2],
     [(-0.28211889716104266, 273, 21), (0.02706950954442871, 1066, 41), (-0.151024197837918, 589, 31)]),
    # mu x^2/2 = 1 at x = 1: two points on each side of the transform test
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), [0.4, 6.0, 3.0, 0.9],
     [(1.6823225239705368, 168, 12), (0.10605954083167235, 3432, 33), (0.27947107262160736, 1225, 25),
      (1.1725615039914754, 300, 15)]),
], ids=["extending-table", "both-sides"])
def test_grid_pinned_bit_for_bit(p, xs, pinned):
    grid = evaluate_grid(p, FIRST, xs)
    assert [(r.value, r.terms_used, r.orders_used) for r in grid] == pinned
    assert all(r.converged for r in grid)


@pytest.mark.parametrize("xs", [[math.nan], [0.5, math.inf], [1.0, 2.0, -math.inf, math.nan]])
def test_non_finite_x_refused_before_any_work(monkeypatch, xs):
    def no_work(*args):
        raise AssertionError("the engine ran")
    monkeypatch.setattr(series, "_results", no_work)
    p = GchParams(-1.0, 0.5, 1.5, 1.0, 0.25)
    bad = next(x for x in xs if not math.isfinite(x))
    message = f"^x={bad!r} is not a finite real$"
    with pytest.raises(NonFiniteError, match=message):
        evaluate_grid(p, FIRST, xs)
    with pytest.raises(NonFiniteError, match=message):
        evaluate_grid(p, SECOND, xs)
    with pytest.raises(NonFiniteError, match=message):
        evaluate(p, FIRST, bad)
    with pytest.raises(NonFiniteError, match=message):
        eval_general(p, 0.0, bad)
