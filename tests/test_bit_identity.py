"""One digest over the bits of many closed-form results.

A change that is meant to leave every value as it was (a speed-up, a
refactor) keeps this digest.  A change that moves bits on purpose must
recompute DIGEST, with ``python tests/test_bit_identity.py``, and say in
CHANGES.md which results moved and why.
"""

import hashlib
import random

from gch.params import GchParams, SolutionKind
from gch.series import evaluate, evaluate_grid
from gch.verify import cross_validate

FIRST, SECOND = SolutionKind.FIRST, SolutionKind.SECOND

#: SHA-256 of the newline-joined reprs of :func:`reprs`
DIGEST = "b175c7f7f39c40eaf6c380d6f46a3a7c0aa97ec9d7e6ca934f138d0ceb095d00"


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


def digest() -> str:
    return hashlib.sha256("\n".join(reprs()).encode()).hexdigest()


def test_results_keep_their_bits():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
