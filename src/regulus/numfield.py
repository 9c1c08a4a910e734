"""Real quadratic orders Z[sqrt(D)]: elements, norms, units, log embedding.

Elements are kept exact as (a + b*sqrt(D))/c with integer a, b, c; only the
logarithmic embedding is approximate, and it carries an explicit precision
tag (number of fractional bits)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import NotSquarefree, ZeroElement

DEFAULT_PRECISION = 96

# Extra working bits so that per-component results are good to 2^-p.
_GUARD_BITS = 32


def _squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class QuadraticField:
    """The order Z[sqrt(D)] of the real quadratic field Q(sqrt(D))."""

    d: int

    @property
    def discriminant(self) -> int:
        return 4 * self.d

    @property
    def signature(self) -> tuple[int, int]:
        return (2, 0)

    @property
    def rank(self) -> int:
        # Unit rank s + t - 1 for signature (2, 0).
        return 1

    def element(self, a: int, b: int = 0, c: int = 1) -> "FieldElement":
        return FieldElement.make(self.d, a, b, c)

    def __repr__(self) -> str:
        return f"QuadraticField(d={self.d})"


def make_field(d: int) -> QuadraticField:
    """Build Z[sqrt(D)]; D must be squarefree and at least 2."""
    if d < 2:
        raise ValueError(f"D must be >= 2, got {d}")
    if not _squarefree(d):
        raise NotSquarefree(f"D must be squarefree, got {d}")
    return QuadraticField(d)


@dataclass(frozen=True)
class FieldElement:
    """(a + b*sqrt(D))/c in lowest terms with c > 0."""

    d: int
    a: int
    b: int
    c: int

    @staticmethod
    def make(d: int, a: int, b: int = 0, c: int = 1) -> "FieldElement":
        if c == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        return FieldElement(d, a, b, c)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.c == 1

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if self.d != other.d:
            raise ValueError("elements of different fields")
        a = self.a * other.a + self.b * other.b * self.d
        b = self.a * other.b + self.b * other.a
        return FieldElement.make(self.d, a, b, self.c * other.c)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.d, -self.a, -self.b, self.c)

    def embeddings(self, precision: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
        """The two real images ((a + b*sqrt(D))/c, (a - b*sqrt(D))/c)."""
        with mp.workprec(precision + _GUARD_BITS):
            s = mp.sqrt(self.d)
            return (
                (self.a + self.b * s) / self.c,
                (self.a - self.b * s) / self.c,
            )

    def __repr__(self) -> str:
        num = f"{self.a}"
        if self.b:
            num += f"{self.b:+d}*sqrt({self.d})"
        return f"({num})/{self.c}" if self.c != 1 else f"({num})"


@dataclass(frozen=True)
class LogVector:
    """Vector of log absolute values, tagged with its fractional precision.

    Arithmetic runs at the tagged precision (plus guard bits), not at the
    ambient mpmath context."""

    components: tuple
    precision: int

    def __add__(self, other: "LogVector") -> "LogVector":
        if len(self.components) != len(other.components):
            raise ValueError("dimension mismatch")
        prec = min(self.precision, other.precision)
        with mp.workprec(prec + _GUARD_BITS):
            comps = tuple(x + y for x, y in zip(self.components, other.components))
        return LogVector(comps, prec)

    def __neg__(self) -> "LogVector":
        return LogVector(tuple(-x for x in self.components), self.precision)

    def sum(self):
        with mp.workprec(self.precision + _GUARD_BITS):
            return mp.fsum(self.components)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.components)


def log_embed(alpha: FieldElement, precision: int = DEFAULT_PRECISION) -> LogVector:
    """Map alpha to (log|alpha|_1, log|alpha|_2), each good to 2^-precision."""
    if alpha.is_zero():
        raise ZeroElement("log embedding undefined at 0")
    with mp.workprec(precision + _GUARD_BITS):
        e1, e2 = alpha.embeddings(precision)
        return LogVector((mp.log(abs(e1)), mp.log(abs(e2))), precision)


def field_norm(alpha: FieldElement) -> Fraction:
    """Product of the two conjugates, exactly: (a^2 - D b^2)/c^2."""
    return Fraction(alpha.a * alpha.a - alpha.d * alpha.b * alpha.b,
                    alpha.c * alpha.c)


def is_unit(field: QuadraticField, alpha: FieldElement) -> bool:
    """True iff alpha lies in Z[sqrt(D)] and its norm is +1 or -1."""
    if alpha.d != field.d:
        return False
    if not alpha.is_integral():
        return False
    return field_norm(alpha) in (1, -1)


def torsion_units(field: QuadraticField) -> set[FieldElement]:
    """Roots of unity in the order; only +1 and -1 for real embeddings."""
    return {field.element(1), field.element(-1)}
