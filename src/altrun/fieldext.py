"""Rational functions over Q and quadratic extensions Q(x)[rho]/(rho^2 - D).

RatFunc is kept in canonical form (gcd-reduced, monic denominator) so that
equality is structural.  QuadExt represents base + rad*rho where rho^2
reduces to the carried discriminant; elements with different discriminants
must never be mixed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DiscriminantMismatch
from .polys import ExactRing, Poly, Scalar, divide_exact, poly_gcd, power


class RatFunc(ExactRing):
    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Scalar = 0, den: Poly | Scalar = 1):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        den = den if isinstance(den, Poly) else Poly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            if den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = divide_exact(num, g)
                    den = divide_exact(den, g)
            lc = den.leading_coefficient()
            if lc != 1:
                num = num / lc
                den = den / lc
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _canonical(cls, num: Poly, den: Poly) -> RatFunc:
        """num/den as given, already gcd-reduced with a monic denominator."""
        new = object.__new__(cls)
        object.__setattr__(new, "num", num)
        object.__setattr__(new, "den", den)
        return new

    @classmethod
    def x(cls) -> RatFunc:
        return cls(Poly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Poly.one()

    def __bool__(self) -> bool:
        return not self.is_zero()

    @staticmethod
    def _coerce(value):
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, (int, Fraction, Poly)):
            return RatFunc(value)
        return NotImplemented

    def __add__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> RatFunc:
        return RatFunc._canonical(-self.num, self.den)

    def __mul__(self, other) -> RatFunc:
        if isinstance(other, (int, Fraction)) and other:
            # a nonzero scalar keeps the canonical form
            return RatFunc._canonical(self.num * other, self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, exponent: int) -> RatFunc:
        if exponent < 0:
            return RatFunc(self.den, self.num) ** (-exponent)
        return RatFunc(self.num**exponent, self.den**exponent)

    def derivative(self) -> RatFunc:
        """Formal d/dx via the quotient rule."""
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, point: Scalar) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num.evaluate(point) / d

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def to_str(self, var: str = "x") -> str:
        if self.is_polynomial():
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


class QuadExt(ExactRing):
    """base + rad*rho with rho^2 = disc, over the rational-function field."""

    __slots__ = ("base", "rad", "disc")

    def __init__(self, base, rad, disc):
        base = RatFunc._coerce(base)
        rad = RatFunc._coerce(rad)
        disc = RatFunc._coerce(disc)
        if NotImplemented in (base, rad, disc):
            raise TypeError("QuadExt components must be rational functions")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rad", rad)
        object.__setattr__(self, "disc", disc)

    @classmethod
    def radical(cls, disc) -> QuadExt:
        """The element rho itself."""
        return cls(0, 1, disc)

    @classmethod
    def scalar(cls, value, disc) -> QuadExt:
        return cls(value, 0, disc)

    def is_zero(self) -> bool:
        return self.base.is_zero() and self.rad.is_zero()

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.disc != self.disc:
                raise DiscriminantMismatch(
                    f"cannot mix rho^2={other.disc} with rho^2={self.disc}"
                )
            return other
        rf = RatFunc._coerce(other)
        if rf is NotImplemented:
            return NotImplemented
        return QuadExt(rf, 0, self.disc)

    def __add__(self, other) -> QuadExt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.base + other.base, self.rad + other.rad, self.disc)

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.base, -self.rad, self.disc)

    def __mul__(self, other) -> QuadExt:
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.base * other, self.rad * other, self.disc)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.base * other.base + self.rad * other.rad * self.disc,
            self.base * other.rad + self.rad * other.base,
            self.disc,
        )

    def conjugate(self) -> QuadExt:
        return QuadExt(self.base, -self.rad, self.disc)

    def norm(self) -> RatFunc:
        """(a + b*rho)(a - b*rho) = a^2 - b^2*disc."""
        return self.base * self.base - self.rad * self.rad * self.disc

    def inverse(self) -> QuadExt:
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("non-invertible quadratic-extension element")
        conj = self.conjugate()
        return QuadExt(conj.base / n, conj.rad / n, self.disc)

    def __truediv__(self, other) -> QuadExt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int) -> QuadExt:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, QuadExt(1, 0, self.disc))

    def derivative(self) -> QuadExt:
        """d/dx using rho' = disc' * rho / (2*disc)."""
        rad_part = self.rad.derivative() + self.rad * self.disc.derivative() / (
            2 * self.disc
        )
        return QuadExt(self.base.derivative(), rad_part, self.disc)

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except DiscriminantMismatch:
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.base == other.base and self.rad == other.rad

    def __hash__(self) -> int:
        return hash((self.base, self.rad, self.disc))

    def to_str(self, var: str = "x") -> str:
        return f"({self.base.to_str(var)}) + ({self.rad.to_str(var)})*rho"

    def __repr__(self) -> str:
        return (
            f"QuadExt(base={self.base!r}, rad={self.rad!r}, disc={self.disc!r})"
        )
