"""Exception types shared across the package."""


class RegulusError(Exception):
    """Base class for all package errors."""


class NotSquarefree(RegulusError):
    """D has a square prime factor, so Z[sqrt(D)] is not the intended order."""


class ZeroElement(RegulusError):
    """Operation undefined for the zero field element."""


class NotReduced(RegulusError):
    """(P, Q) pair violates the reduced-ideal inequalities."""


class PrecisionExhausted(RegulusError):
    """Accumulated rounding error exceeded the precision budget."""


class Singular(RegulusError):
    """Matrix is singular (or numerically indistinguishable from singular)."""


class RankDeficient(RegulusError):
    """Samples span fewer dimensions than the requested lattice rank."""


class RestartRequired(RegulusError):
    """Measured label has no usable periodic structure inside the domain."""


class DomainTooLarge(RegulusError):
    """Exhaustive enumeration or dense transform would exceed the size cap."""


class Inconclusive(RegulusError):
    """No verified answer: the recovered basis never stabilised within the
    sampling budget, the recovered unit failed verification, or principality
    sampling found no usable outcome."""


class NotCoprime(RegulusError):
    """First coordinates share a nontrivial factor; no Bezout combination."""


class EmptySet(RegulusError):
    """Operation undefined on an empty set."""


class IllConditioned(RegulusError):
    """Lattice/domain geometry outside the range the sampler can handle."""
