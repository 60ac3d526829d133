"""Three digests over the bits of many closed-form results.

A change that is meant to leave every value as it was (a speed-up, a
refactor) keeps all three digests.  A change that moves bits on purpose
must recompute them, with ``python tests/test_bit_identity.py``, and say
in CHANGES.md which results moved and why: ``python tests/test_bit_identity.py
lines`` prints the lines DIGEST and EDGE_DIGEST cover, so the lines of
the parent and of the change can be diffed, and ``python -m gch.cli
verify`` prints the bytes VERIFY_DIGEST covers.  DIGEST covers random
points and grids and the default ``cross_validate`` sweep; EDGE_DIGEST
covers the grids where points take different paths to their outcomes:
x = 0 beside a tiny reference, grids on both sides of the mu > 0
transform test and grids with failing points, each also point by point;
VERIFY_DIGEST covers the stdout of the default ``gch verify``, with its
residual column and CSV formatting, and VERIFY_STDERR is its summary.
"""

import hashlib
import random
import subprocess
import sys
from itertools import chain

from gch.errors import GchError
from gch.params import GchParams, SolutionKind, validate
from gch.series import _general, eval_general, evaluate, evaluate_grid
from gch.verify import GridSpec, cross_validate

FIRST, SECOND = SolutionKind.FIRST, SolutionKind.SECOND

#: SHA-256 of the newline-joined reprs of :func:`reprs`
DIGEST = "21c1c0e59792c8c025d01d725e5e2ececae5161ac0d40246ce82e61c187c5c7c"

#: SHA-256 of the newline-joined lines of :func:`edge_reprs`
EDGE_DIGEST = "fa1f3357ee66050c3160fb7bfdd973be87c876234f0e38bf2045e3ec049118e3"

#: SHA-256 of the stdout of ``python -m gch.cli verify``
VERIFY_DIGEST = "31916ebdd8e55dc25c242ff8638bff95afe63b99e9dd3415b6e2e8b1b5449e2e"

#: the stderr of ``python -m gch.cli verify``
VERIFY_STDERR = b"verify: 768 points, max_rel_err=5.778e-14, tolerance=1.0e-09, PASS\n"


def _params(rng: random.Random, kind: SolutionKind, mu: float) -> GchParams:
    """A parameter set at this mu; a third of them B-terminated (chain 0
    ends at Omega = -mu (2 beta_0 + lam))."""
    nu = rng.choice([0.5, 1.5, 2.5]) + rng.uniform(-0.4, 0.4)
    eps, omega = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.5)
    if rng.random() < 1.0 / 3.0:
        Omega = -mu * (2 * rng.randrange(4) + kind.lambda_of(nu))
    else:
        Omega = rng.uniform(-4.0, 4.0)
    return GchParams(mu, eps, nu, Omega, omega)


def _cases(rng: random.Random):
    """(p, kind, x) over both kinds, both classes and both sides of the
    mu > 0 transform test; the second kind only at mu < 0, where its
    z^(1-gamma) is real."""
    while True:
        kind = rng.choice([FIRST, SECOND])
        sign = -1.0 if kind is SECOND else rng.choice([-1.0, 1.0])
        mu = sign * rng.uniform(0.2, 2.5)
        x = rng.uniform(0.0, 3.5)
        yield _params(rng, kind, mu), kind, x


def reprs():
    """The reprs the digest covers, one per line."""
    rng = random.Random(20261019)
    cases = _cases(rng)
    for _ in range(300):
        p, kind, x = next(cases)
        yield repr(evaluate(p, kind, x))
    for _ in range(20):
        p, kind, x = next(cases)
        xs = [x * rng.uniform(0.05, 1.5) for _ in range(rng.randrange(2, 7))]
        yield repr(evaluate_grid(p, kind, xs))
    yield from map(repr, cross_validate().records)


def _outcome(outcome) -> str:
    """The repr of a result or a list of results, or an error's class and
    message."""
    if isinstance(outcome, GchError):
        return f"{type(outcome).__name__}: {outcome}"
    return repr(outcome)


def _called(call, *args) -> str:
    try:
        return _outcome(call(*args))
    except GchError as exc:
        return _outcome(exc)


def _edge_xs(rng: random.Random, mu: float) -> list[float]:
    """x = 0 beside a tiny reference, a grid across mu x^2/2 = 1, or a grid
    with points far enough out to overflow."""
    shape = rng.randrange(3)
    if shape == 0:
        tiny = 10.0 ** rng.uniform(-9.0, -5.0)
        xs = [0.0, tiny, -tiny * rng.uniform(0.1, 0.9)]
    elif shape == 1:
        x_t = (2.0 / abs(mu)) ** 0.5
        xs = [rng.choice((-1.0, 1.0)) * x_t * rng.uniform(0.2, 2.5) for _ in range(rng.randrange(2, 6))]
    else:
        xs = [rng.uniform(-3.0, 3.0) for _ in range(rng.randrange(1, 4))] + [rng.uniform(30.0, 60.0)]
    rng.shuffle(xs)
    return xs


def edge_reprs():
    """The lines EDGE_DIGEST covers: each grid's outcome through
    evaluate_grid and through the outcome list of eval_general, then each
    of its points through evaluate and eval_general."""
    rng = random.Random(20261020)
    for _ in range(60):
        kind = rng.choice([FIRST, SECOND])
        mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.5)
        p = _params(rng, kind, mu)
        xs = _edge_xs(rng, mu)
        lam = validate(p, kind)
        yield _called(evaluate_grid, p, kind, xs)
        yield from map(_outcome, _general([p] * len(xs), lam, xs))
        for x in xs:
            yield _called(evaluate, p, kind, x)
            yield _called(eval_general, p, lam, x)
    spec = GridSpec((-2.0, 2.0), (1.0,), (1.5,), (-3.0,), (0.25,), (0.0, 1e-7, -0.5, 1.5, 40.0), (FIRST, SECOND))
    yield from map(repr, cross_validate(spec).records)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_results_keep_their_bits():
    assert digest(reprs()) == DIGEST


def test_edge_results_keep_their_bits():
    assert digest(edge_reprs()) == EDGE_DIGEST


def _verify(env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gch.cli", "verify"], capture_output=True, env=env)


def test_default_verify_keeps_its_bytes(gch_subprocess_env):
    run = _verify(gch_subprocess_env)
    assert (run.returncode, run.stderr) == (0, VERIFY_STDERR)
    assert hashlib.sha256(run.stdout).hexdigest() == VERIFY_DIGEST


if __name__ == "__main__":
    if sys.argv[1:] == ["lines"]:
        for line in chain(reprs(), edge_reprs()):
            print(line)
    else:
        print("DIGEST", digest(reprs()))
        print("EDGE_DIGEST", digest(edge_reprs()))
        run = _verify()
        print("VERIFY_DIGEST", hashlib.sha256(run.stdout).hexdigest())
        print("VERIFY_STDERR", run.stderr)
