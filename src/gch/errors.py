"""Exception taxonomy shared by every module in the package."""


class GchError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(GchError):
    """A recurrence-coefficient denominator (or a required 1/mu) vanished."""


class KindRestrictionError(GchError):
    """nu violates the restriction of the requested solution kind."""


class NonFiniteError(GchError):
    """A parameter that must be a finite real is NaN or infinite."""


class DomainError(GchError):
    """The requested evaluation leaves the real domain (fractional power of a
    negative base, or a pole at x = 0)."""


class FloatOverflow(GchError, OverflowError):
    """A float the evaluation needs overflows: a Gamma-function
    normalisation, the factor e^{-mu x^2/2 - eps x} of the transformed
    sum, Omega/mu, a limiting form or a ladder eigenvalue.  Also an
    OverflowError, so handlers of the builtin still catch it."""


class NormalizationPole(GchError):
    """A gamma-function normalisation prefactor sits at a pole."""


class BetaMismatch(GchError):
    """Termination indices marked as Omega-derived disagree with Omega."""


class NoTermination(GchError):
    """Omega does not cut the B-coefficient chain at a nonnegative integer index."""


class DegenerateCoupling(GchError):
    """A physical coupling value makes the parameter map singular."""


class TailNotDecayed(GchError):
    """The wavefunction has not decayed below threshold at the quadrature edge."""


class SampleNotConverged(GchError):
    """A quadrature sample is flagged as not converged by the series engine."""
