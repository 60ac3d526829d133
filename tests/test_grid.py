"""evaluate_grid against the per-point calls, and the callers that use it."""

import math

import mpmath as mp
import pytest

from gch import series, verify
from gch.errors import DomainError, GchError, PoleError, SampleNotConverged, TailNotDecayed
from gch.params import GchParams, SolutionKind, validate
from gch.recurrence import Truncation, sum_series
from gch.series import NestedTruncation, _general, _required_cap, eval_general, evaluate, evaluate_grid
from gch.spectra import Confinement, QQbar, RotatingOscillator, make_state, normalize, wavefunction_result
from gch.verify import CrossRecord, GridSpec, cross_validate

FIRST, SECOND = SolutionKind.FIRST, SolutionKind.SECOND


def _depth(res):
    """The chain depth a result ran: terms_used is cap + 1 per order."""
    return res.terms_used // len(res.orders) - 1


def _assert_matches_points(p, kind, xs, t=None):
    """Each grid result has its per-point call's flags, depth, order count
    and termination index, and its value to 1e-12 of sum |orders|."""
    grid = evaluate_grid(p, kind, xs, t)
    assert len(grid) == len(xs)
    for x, g in zip(xs, grid):
        r = evaluate(p, kind, x, t=t)
        assert (g.converged, g.terms_used, len(g.orders), g.terminated_at) == (
            r.converged, r.terms_used, len(r.orders), r.terminated_at), x
        assert abs(g.value - r.value) <= 1e-12 * math.fsum(abs(o) for o in r.orders), x
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
    assert _general(p, lam, [x], None) == [eval_general(p, lam, x)]


def test_reference_point_is_bit_identical():
    # the point of largest |x|, its duplicate and its mirror run the table
    # itself, so they agree with evaluate bit for bit
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
    # mu > 0 across mu x^2/2 = 1 (x = 1): two tables
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


def test_zero_beside_a_tiny_reference():
    # z = 0 takes depth 8, more than the tiny reference's table holds
    p = GchParams(-2.0, 1.0, 1.5, 3.0, 0.25)
    xs = [0.0, 1e-6, -3e-7]
    grid = _assert_matches_points(p, FIRST, xs)
    assert _depth(grid[0]) == 8 > _depth(grid[1])


def test_point_needing_more_orders_than_the_reference():
    # the stop rule compares each order with the point's own running sum,
    # so a nearer point can take more orders than the reference
    xs = [1.24, 0.5, 1.26]
    grid = _assert_matches_points(GchParams(-2.0, 0.4, 2.0, 4.0, 0.5), FIRST, xs)
    assert len(grid[0].orders) == 15 > len(grid[2].orders) == 14


def test_one_engine_run_per_side(monkeypatch):
    # each engine run guards chain 0's two offsets once; the point that
    # needs more orders than the reference extends the same table
    calls = []
    guard = series._pole_guard

    def counting(offset, cap, what, k):
        calls.append((what, k))
        return guard(offset, cap, what, k)

    monkeypatch.setattr(series, "_pole_guard", counting)
    evaluate_grid(GchParams(-2.0, 0.4, 2.0, 4.0, 0.5), FIRST, [1.24, 0.5, 1.26])
    assert calls.count(("chain", 0)) == 2


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
    # a small inner cap drops converged for the far points only
    t = NestedTruncation(max_order_N=30, max_inner=24, rel_tol=1e-12)
    grid = _assert_matches_points(GchParams(0.4, -1.7, 0.25, 59.0, 0.5), FIRST, [0.2, 1.9, 1.0, 0.5], t)
    assert [r.converged for r in grid] == [True, False, True, True]


def test_empty_grid():
    assert evaluate_grid(GchParams(-1.0, 1.0, 1.5, 0.3, 0.2), FIRST, []) == []


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
    # x^lam with fractional lam fails at the first negative x
    with pytest.raises(DomainError, match=r"^\(-0\.3\)\*\*"):
        _general(p, 1.0 - p.nu, [0.2, 0.7, -0.3, -0.9], None)


def test_pole_error_while_building_a_table_falls_back_to_points():
    # offsets of chains 1 and 3 lie within INT_TOL of -5 and -4: their
    # guards fire once the depth reaches index 4, so the nearest points
    # evaluate and the farther ones raise
    p = GchParams(-1.3, 1.0, -12 + 1.5e-12, 0.4, 0.3)
    near = [evaluate(p, FIRST, x) for x in (1e-4, 1e-5)]
    assert [_depth(r) for r in near] == [3, 2]
    assert evaluate_grid(p, FIRST, [1e-4, 1e-5]) == near
    with pytest.raises(PoleError) as per_point:
        evaluate(p, FIRST, 0.5)
    with pytest.raises(PoleError) as grid:
        evaluate_grid(p, FIRST, [1e-4, 0.5, 1e-5, 0.01])
    assert str(grid.value) == str(per_point.value)


# ------------------------------------------------------------------ callers

def _records_point_by_point(spec):
    """cross_validate's records computed the way they were before the grid
    call: each point and kind on its own, the first error recorded."""
    records = []
    for p, x in spec.points():
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


def test_terminated_eps_zero_value_converges_past_the_inner_cap():
    # with eps = 0 only chain 0 is summed; where it ends, the inner cap cuts
    # no tail even when the envelope would need more depth
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    t = NestedTruncation(max_order_N=50, max_inner=120, rel_tol=1e-12)
    res = evaluate(state.gch, FIRST, 11.5, t=t)
    assert _depth(res) == 120 and res.converged
    with mp.workdps(40):
        z = mp.mpf(11.5) ** 2 / 2  # -mu x^2/2 at mu = -1
        ref = mp.hyp1f1(-2, mp.mpf(1.5), z) * mp.gamma(mp.mpf(1.5) + 2) / mp.gamma(mp.mpf(1.5))
    assert res.value == pytest.approx(float(ref), rel=1e-13)


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
    # the grid reads nearer points off the table of the farthest one
    depths = [_required_cap(z, a_mag, b, c, 240) for z in (0.001 * 1.2 ** k for k in range(60))]
    assert depths == sorted(depths)


def test_sum_series_default_truncation():
    p = GchParams(-2.0, 1.0, 1.5, 0.3, 0.25)
    assert sum_series(p, 0.0, 0.7) == sum_series(p, 0.0, 0.7, Truncation())
