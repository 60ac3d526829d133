"""One gate over the claimed domain: the known converged-but-wrong values.

Six strata of seeded random points, drawn without looking at any
outcome:

* ``core``: the default verification grid's region, x in (0, 3];
* ``mu-neg-far``: mu < 0 and eps > 0 with x in (3, 8];
* ``mu-pos-far``: mu > 0 with |z| = mu x^2/2 in (4, 36];
* ``large-omega``: Omega in (90, 300], |mu| in [0.5, 2.5], x in (0, 4];
* ``near-band``: |nu - k| in [2.05e-12, 1e-8] for a forbidden integer k
  of the point's kind, next to ``validate``'s refused band;
* ``states``: the three systems' eigenstates at beta_0 <= 40 and i, l in
  {0, 1}, at a radius of a ``gch wavefunction`` grid.

Each point is evaluated by the closed form (``eval_general``) and by the
recurrence oracle (``sum_series``) and classed against a reference sum of
the raw three-term recurrence in mpmath: ``ok`` within REL_TOL, ``flagged``
(``converged=False``), ``wrong`` (``converged=True`` and further off) or
``raised`` (a GchError).  The reference is :func:`reference.accepted`:
the sums at 40 and 70 digits where they agree to 1e-20, or else those at
120 and 200 digits; a point with neither is left out, and
:data:`UNREFERENCED` lists it.

:data:`KNOWN_WRONG` pins every wrong value by function, stratum and
index: the package's known-defect list over the claimed range.  A new
wrong value fails the test, and so does a mended one until its entry is
removed, so each mend shows in the diff.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from gch.errors import GchError
from gch.params import GchParams, SolutionKind
from gch.recurrence import sum_series
from gch.series import eval_general
from gch.spectra import Confinement, QQbar, RotatingOscillator, make_state

from reference import accepted

FIRST, SECOND = SolutionKind.FIRST, SolutionKind.SECOND

#: a value further than this from its reference, relative, is wrong
REL_TOL = 1e-9

#: points per stratum
POINTS = 40


# ----------------------------------------------------------------- strata

def _nu(rng: random.Random, kind: SolutionKind) -> float:
    """nu clear of the kind's forbidden integers: the first kind refuses
    0, -1, -2, ..., the second 2, 3, 4, ..."""
    return rng.uniform(0.2, 4.8) if kind is FIRST else rng.uniform(0.2, 1.8)


def _core(rng):
    kind = rng.choice([FIRST, SECOND])
    mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    p = GchParams(mu, rng.uniform(-2.0, 2.0), rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0),
                  rng.uniform(0.25, 1.0))
    return p, kind, rng.uniform(0.05, 3.0)


def _mu_neg_far(rng):
    kind = rng.choice([FIRST, SECOND])
    p = GchParams(-rng.uniform(0.5, 2.5), rng.uniform(0.2, 2.5), _nu(rng, kind), rng.uniform(-4.0, 4.0),
                  rng.uniform(-1.0, 1.5))
    return p, kind, rng.uniform(3.0, 8.0)


def _mu_pos_far(rng):
    kind = rng.choice([FIRST, SECOND])
    mu = rng.uniform(0.5, 2.5)
    p = GchParams(mu, rng.uniform(-2.0, 2.0), _nu(rng, kind), rng.uniform(-4.0, 4.0), rng.uniform(-1.0, 1.5))
    return p, kind, math.sqrt(2.0 * rng.uniform(4.0, 36.0) / mu)


def _large_omega(rng):
    kind = rng.choice([FIRST, SECOND])
    mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5)
    p = GchParams(mu, rng.uniform(-2.0, 2.0), _nu(rng, kind), rng.uniform(90.0, 300.0), rng.uniform(-1.0, 1.5))
    return p, kind, rng.uniform(0.05, 4.0)


def _near_band(rng):
    kind = rng.choice([FIRST, SECOND])
    k = rng.choice([0, -1, -2, -3] if kind is FIRST else [2, 3, 4, 5])
    nu = k + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(math.log10(2.05e-12), -8.0)
    mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    p = GchParams(mu, rng.uniform(-2.0, 2.0), nu, rng.uniform(-1.0, 1.0), rng.uniform(0.25, 1.0))
    return p, kind, rng.uniform(0.05, 3.0)


def _states(rng):
    name = rng.choice(["oscillator", "confinement", "qqbar"])
    l = rng.randrange(2)
    if name == "oscillator":
        system = RotatingOscillator(l, rng.uniform(0.5, 4.0))
    elif name == "confinement":
        system = Confinement(rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0), rng.uniform(0.2, 1.5),
                             rng.uniform(0.5, 2.0), l)
    else:
        system = QQbar(rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0), l)
    state = make_state(system, rng.randrange(2), rng.randrange(41))
    # a radius of the 61-point grid on which x(r) runs to 4.5
    r_max = 4.5 / system.x_of(1.0)
    return state.gch, FIRST, system.x_of(r_max * rng.randrange(1, 61) / 60)


STRATA = {
    "core": _core,
    "mu-neg-far": _mu_neg_far,
    "mu-pos-far": _mu_pos_far,
    "large-omega": _large_omega,
    "near-band": _near_band,
    "states": _states,
}

#: the seed of the draws
SEED = 20261019


def points():
    """(stratum, index, params, kind, x) of every point, in a fixed order."""
    rng = random.Random(SEED)
    for stratum, draw in STRATA.items():
        for index in range(POINTS):
            yield (stratum, index, *draw(rng))


# ---------------------------------------------------------------- classes

FUNCTIONS = {
    "eval_general": eval_general,
    "sum_series": sum_series,
}


def classify(fn, p: GchParams, lam: float, x: float, ref: float) -> str:
    try:
        res = fn(p, lam, x)
    except GchError:
        return "raised"
    if not res.converged:
        return "flagged"
    return "ok" if abs(res.value - ref) <= REL_TOL * abs(ref) else "wrong"


@pytest.fixture(scope="module")
def classes():
    """{(function, stratum, index): class}, and the points without a reference."""
    out, unreferenced = {}, set()
    for stratum, index, p, kind, x in points():
        lam = kind.lambda_of(p.nu)
        ref = accepted(p, lam, x)
        if ref is None:
            unreferenced.add((stratum, index))
            continue
        for name, fn in FUNCTIONS.items():
            out[(name, stratum, index)] = classify(fn, p, lam, x, ref)
    return out, unreferenced


#: the known-defect list: function -> stratum -> the indices of the values
#: that say ``converged`` while further than REL_TOL from their reference
KNOWN_WRONG = {
    "eval_general": {
        "large-omega": (0, 2, 4, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 25, 26, 27, 29, 31, 32,
                        34, 36, 37, 39),
        "states": (0, 3, 6, 10, 12, 13, 15, 18, 22, 28, 29, 33, 36),
    },
    "sum_series": {
        "mu-neg-far": (1, 25, 26, 34),
        "mu-pos-far": (1, 5, 6, 8, 9, 12, 13, 17, 20, 23, 28, 36, 39),
        "large-omega": (0, 2, 4, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 25, 26, 27, 29, 31,
                        32, 34, 36, 37, 39),
        "states": (3, 4, 10, 12, 15, 18, 22, 28, 29, 33, 36),
    },
}

#: :data:`KNOWN_WRONG` as a set of (function, stratum, index)
WRONG = {(name, stratum, index) for name, strata in KNOWN_WRONG.items()
         for stratum, indices in strata.items() for index in indices}

#: the points without an accepted reference: (stratum, index)
UNREFERENCED = set()


def test_wrong_values_are_the_known_defects(classes):
    found, _ = classes
    # the per-stratum counts, shown with -s or on a failure
    counts = Counter((name, stratum, cls) for (name, stratum, _), cls in found.items())
    for name in FUNCTIONS:
        for stratum in STRATA:
            print(name, stratum, {cls: counts[(name, stratum, cls)] for cls in ("ok", "flagged", "wrong", "raised")})
    wrong = {key for key, cls in found.items() if cls == "wrong"}
    assert wrong == WRONG, f"new: {sorted(wrong - WRONG)}; no longer wrong: {sorted(WRONG - wrong)}"


def test_points_without_a_reference(classes):
    _, unreferenced = classes
    assert unreferenced == UNREFERENCED
