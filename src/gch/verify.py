"""Independent correctness instruments.

Two checks live here, deliberately sharing no code with the evaluators
they police: an ODE residual computed analytically from a coefficient
list, and a grid sweep comparing the closed-form nested sums against
direct recurrence summation.  The sweep's parameter sets that differ only
in eps share the closed form's grid calls, whose order sums do not read
eps.
"""

from __future__ import annotations

import math
from itertools import count, product, starmap
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, GchError
from .params import GchParams, SolutionKind, _bind, _Frozen, _require_finite, real_power, validate
from .recurrence import sum_series
from .series import _general


class ResidualReport(_Frozen):
    """Value of the differential operator applied to a truncated series.

    ``scale`` is the largest term mass among the three operator pieces
    (coefficient magnitude times the sum of absolute summands), i.e. the
    size of what had to cancel; ``relative`` is the backward-error figure
    residual/scale.  Piece values themselves are unsuitable as a scale:
    at isolated x both polynomial coefficients of the operator can vanish,
    leaving every piece at roundoff size while the series is exact.
    """

    __slots__ = ("x", "residual", "scale")

    def __init__(self, x: float, residual: float, scale: float) -> None:
        _bind(self, "x", x)
        _bind(self, "residual", residual)
        _bind(self, "scale", scale)

    @property
    def relative(self) -> float:
        if self.scale == 0.0:
            return 0.0 if self.residual == 0.0 else math.inf
        return abs(self.residual) / self.scale


def ode_residual(coeffs: Sequence[float], lam: float, p: GchParams, x: float) -> ResidualReport:
    """Apply x y'' + (mu x^2 + eps x + nu) y' + (Omega x + eps omega) y to
    sum_n c_n x^(n+lam), with derivatives taken term by term analytically.

    For coefficients that satisfy the recurrence exactly the residual is
    the truncation boundary term, O(x^(N+lam)); corrupting any interior
    coefficient breaks the cancellation at its own power of x.
    NonFiniteError names a non-finite lam or x.
    """
    _require_finite("lam", lam)
    _require_finite("x", x)
    if x == 0.0:
        if lam < 2.0:
            raise DomainError("residual at x = 0 needs lam >= 2 for finite derivatives")
        return ResidualReport(x=x, residual=0.0, scale=0.0)
    y_terms: list[float] = []
    yp_terms: list[float] = []
    ypp_terms: list[float] = []
    xpow = real_power(x, lam)  # x^(n+lam), advanced each term
    # a float index: CPython 3.11 specialises float + float, not int +
    # float, and an index far below 2**53 is exact either way
    for n, c in zip(count(0.0), coeffs):
        e = n + lam
        y_terms.append(c * xpow)
        yp_terms.append(c * e * xpow / x)
        ypp_terms.append(c * e * (e - 1.0) * xpow / (x * x))
        xpow *= x
    c_yp = p.mu * x * x + p.eps * x + p.nu
    c_y = p.Omega * x + p.eps * p.omega
    piece1 = x * math.fsum(ypp_terms)
    piece2 = c_yp * math.fsum(yp_terms)
    piece3 = c_y * math.fsum(y_terms)
    residual = math.fsum((piece1, piece2, piece3))
    scale = max(
        abs(x) * math.fsum(map(abs, ypp_terms)),
        abs(c_yp) * math.fsum(map(abs, yp_terms)),
        abs(c_y) * math.fsum(map(abs, y_terms)),
    )
    return ResidualReport(x=x, residual=residual, scale=scale)


class GridSpec(_Frozen):
    """Cartesian parameter grid for cross-validation; defaults reproduce the
    acceptance sweep (384 points, both kinds where valid).  Each axis is
    stored as a tuple of the values it is given, so an iterator axis is
    read once and serves every parameter set."""

    __slots__ = ("mu", "eps", "nu", "Omega", "omega", "x", "kinds")

    def __init__(
        self,
        mu: Iterable[float] = (-2.0, -0.5, 0.5, 2.0),
        eps: Iterable[float] = (-2.0, -0.5, 0.5, 2.0),
        nu: Iterable[float] = (0.5, 1.5),
        Omega: Iterable[float] = (-1.0, 1.0),
        omega: Iterable[float] = (0.25, 1.0),
        x: Iterable[float] = (0.1, 0.5, 1.0),
        kinds: Iterable[SolutionKind] = (SolutionKind.FIRST, SolutionKind.SECOND),
    ) -> None:
        _bind(self, "mu", tuple(mu))
        _bind(self, "eps", tuple(eps))
        _bind(self, "nu", tuple(nu))
        _bind(self, "Omega", tuple(Omega))
        _bind(self, "omega", tuple(omega))
        _bind(self, "x", tuple(x))
        _bind(self, "kinds", tuple(kinds))

    def param_sets(self) -> Iterator[GchParams]:
        """Each parameter set of the grid, the last axis (omega) fastest."""
        return starmap(GchParams, product(self.mu, self.eps, self.nu, self.Omega, self.omega))


class CrossRecord(_Frozen):
    __slots__ = ("params", "kind", "x", "oracle", "closed", "rel_err", "error")

    def __init__(
        self,
        params: GchParams,
        kind: SolutionKind,
        x: float,
        oracle: Optional[float],
        closed: Optional[float],
        rel_err: Optional[float],
        error: Optional[str] = None,
    ) -> None:
        _bind(self, "params", params)
        _bind(self, "kind", kind)
        _bind(self, "x", x)
        _bind(self, "oracle", oracle)
        _bind(self, "closed", closed)
        _bind(self, "rel_err", rel_err)
        _bind(self, "error", error)


class CrossReport(_Frozen):
    __slots__ = ("records", "max_rel_err", "n_evaluated", "n_failed")

    def __init__(
        self,
        records: tuple[CrossRecord, ...],
        max_rel_err: float,
        n_evaluated: int,
        n_failed: int,
    ) -> None:
        _bind(self, "records", records)
        _bind(self, "max_rel_err", max_rel_err)
        _bind(self, "n_evaluated", n_evaluated)
        _bind(self, "n_failed", n_failed)


def _failed(p: GchParams, kind: SolutionKind, x: float, exc: GchError) -> CrossRecord:
    return CrossRecord(p, kind, x, None, None, None, f"{type(exc).__name__}: {exc}")


def _records(grid: GridSpec, sets: Sequence[GchParams], kind: SolutionKind) -> list[CrossRecord]:
    """The records of ``grid`` at one kind, set by set in ``sets`` (its
    :meth:`GridSpec.param_sets`) and x by x: the closed form against the
    oracle, or the GchError that the first of validate, the oracle and the
    closed form raises there.

    validate runs once per set, the oracle once per set and x.  The sets
    at one position of the mu, nu, Omega and omega axes differ only in
    eps, which the closed form's order sums do not read, so they may share
    its grid call: those that agree on whether eps is 0 and whose oracle
    succeeded at the same xs take one call, with those xs of each.  So
    each point is summed at the reference z of its set's own call, and
    keeps every bit.  The sets are grouped by axis position, not by value,
    so 0.0 and -0.0 on one axis stay apart."""
    xs = grid.x
    n_rest = len(grid.nu) * len(grid.Omega) * len(grid.omega)
    n_block = n_rest * len(grid.eps)  # the sets of one mu
    # (position, eps == 0, the class of each oracle outcome) -> the sets, lam
    # and xs of one closed-form call (:func:`_general`'s arguments), then
    # its outcomes
    calls: dict = {}
    rows = []  # per set: (params, oracle outcomes, call)
    for i, p in enumerate(sets):
        try:
            lam = validate(p, kind)
        except GchError as exc:
            rows.append((p, [exc] * len(xs), None))
            continue
        row, oks = [], []
        for x in xs:
            try:
                row.append(sum_series(p, lam, x).value)
            except GchError as exc:
                row.append(exc)
            else:
                oks.append(x)
        call = calls.setdefault((i // n_block, i % n_rest, p.eps == 0.0, *map(type, row)), [[], lam, []])
        call[0] += [p] * len(oks)
        call[2] += oks
        rows.append((p, row, call))
    for call in calls.values():
        # the outcomes of each set in turn, which the sets below draw in turn
        call.append(iter(_general(*call)))
    out = []
    for p, row, call in rows:
        for x, oracle in zip(xs, row):
            res = oracle if isinstance(oracle, GchError) else next(call[3])
            if isinstance(res, GchError):
                out.append(_failed(p, kind, x, res))
                continue
            diff = abs(res.value - oracle)
            rel = 0.0 if diff == 0.0 else diff / abs(oracle) if oracle != 0.0 else math.inf
            out.append(CrossRecord(p, kind, x, oracle, res.value, rel))
    return out


def cross_validate(grid: GridSpec | None = None) -> CrossReport:
    """Closed form vs direct recurrence on every grid point.

    The parameter sets that differ only in eps share the closed form's
    grid calls, one per kind, where :func:`_records` lets them.  Per-point
    failures (kind restrictions, domain errors) are recorded and the sweep
    continues; the records go set by set in :meth:`GridSpec.param_sets`
    order, point by point, each point's kinds in grid order.  The report
    carries the worst relative error, NaN where a record's is NaN (the
    worst is then unknown).
    """
    grid = grid or GridSpec()
    sets = list(grid.param_sets())
    records: list[CrossRecord] = []
    for same_x in zip(*[_records(grid, sets, kind) for kind in grid.kinds]):
        records.extend(same_x)
    rel_errs = [rec.rel_err for rec in records if rec.error is None]
    return CrossReport(
        records=tuple(records),
        max_rel_err=math.nan if any(map(math.isnan, rel_errs)) else max([0.0, *rel_errs]),
        n_evaluated=len(rel_errs),
        n_failed=len(records) - len(rel_errs),
    )
