"""Dense univariate polynomials over the rationals.

Coefficients are stored densely by degree, with trailing zeros trimmed so
that equality is structural equality.  The zero polynomial is the empty
coefficient tuple.

Coefficient policy (integer first): a coefficient is a Python `int` whenever
its denominator is 1 and a `fractions.Fraction` only after a true division
left a proper fraction.  `exact` is the one normaliser; every constructor
runs it, so `Fraction(4, 2)` is stored as `4` and mixed results such as
`Fraction(1, 2) * 2` fold back to `int`.  Because `int` and `Fraction` agree
on `==`, `hash` and `str` for integral values, equality, hashing and printed
forms do not depend on which of the two a coefficient happens to be.  True
division (`Poly / scalar`, the `divmod` quotient) lifts to `Fraction` first,
so no path yields a float; `Poly / Poly` is exact division (`divide_exact`).
`poly_gcd` runs the Euclidean algorithm over Q[x] on `divmod`, making each
divisor monic.
`evaluate` runs Horner's rule and always returns a `Fraction`.

The indeterminate is anonymous; `to_str` takes the display name (``x`` by
default, ``q`` for q-triangles).

>>> p = Poly([0, 2, 12, 10])
>>> str(p)
'2*x + 12*x^2 + 10*x^3'
>>> p.evaluate(-1)
Fraction(0, 1)
>>> str(p.derivative())
'2 + 24*x + 30*x^2'
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NotDivisible, SupportOutOfRange, ZeroPolynomial

Scalar = int | Fraction


def exact(value: Scalar) -> Scalar:
    """Normalise an exact rational: `int` when integral, else `Fraction`.

    >>> exact(Fraction(4, 2)), exact(Fraction(1, 2))
    (2, Fraction(1, 2))
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, normalised by `exact`; never a float."""
    if b == 1:
        return exact(a)
    return exact(as_fraction(a) / b)


def as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def power(base, e: int, one):
    """base**e for an integer e >= 0 by square-and-multiply, starting from `one`.

    The `__pow__` methods of Poly, MultiPoly and QuadExt check e and call this.

    >>> str(power(Poly([1, 1]), 3, Poly.one()))
    '1 + 3*x + 3*x^2 + x^3'
    """
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


class ExactRing:
    """The operators every exact type derives from its own ring operations.

    A subclass defines `_coerce` (its own type, or an `int`/`Fraction` lifted
    into it; `NotImplemented` for anything else), `__add__`, `__neg__` and
    `__mul__`, and `__truediv__` and `to_str` where it has them.  Reflected
    operators call the subclass's own operator rather than alias it, so a
    wrapper installed on `__add__` or `__mul__` also sees reflected calls.
    Instances are immutable: attributes are set once in `__init__` through
    `object.__setattr__`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (-self) + other

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __str__(self) -> str:
        return self.to_str()


class Poly(ExactRing):
    """An exact univariate polynomial, indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int else exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls([1])

    @classmethod
    def x(cls) -> Poly:
        return cls([0, 1])

    @classmethod
    def constant(cls, value: Scalar) -> Poly:
        return cls([value])

    @classmethod
    def from_terms(cls, terms: Mapping[int, Scalar]) -> Poly:
        """Build from a {degree: coefficient} mapping.

        >>> str(Poly.from_terms({3: 1, 0: -2}))
        '-2 + x^3'
        """
        if not terms:
            return cls()
        top = max(terms)
        coeffs = [0] * (top + 1)
        for deg, c in terms.items():
            if deg < 0:
                raise ValueError("negative degree")
            coeffs[deg] += exact(c)
        return cls(coeffs)

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def leading_coefficient(self) -> Scalar:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return NotImplemented

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for i, c in enumerate(shorter):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        bs = other.coeffs
        out = [0] * (len(self.coeffs) + len(bs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(bs, i):
                    out[j] += a * b
        return Poly(out)

    def __truediv__(self, other) -> Poly:
        """Division by a scalar, or exact division by a polynomial through
        `divide_exact` (NotDivisible on a remainder)."""
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            other = as_fraction(other)
            return Poly([c / other for c in self.coeffs])
        if isinstance(other, Poly):
            return divide_exact(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        """A scalar over a polynomial is not offered: only a Poly divides
        by a Poly, exactly."""
        return NotImplemented

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, exponent, Poly.one())

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> Poly:
        """Formal d/dx."""
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, point: Scalar) -> Fraction:
        """Evaluate at a rational point (Horner); the value is a Fraction.

        >>> Poly([1, 2, 3]).evaluate(Fraction(-1, 2)), Poly().evaluate(7)
        (Fraction(3, 4), Fraction(0, 1))
        """
        point = exact(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: Poly) -> Poly:
        """Substitute another polynomial for the indeterminate."""
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(c)
        return acc

    def shift(self, k: int) -> Poly:
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs)

    def scale_x(self, factor: Scalar) -> Poly:
        """Substitute factor*x for x."""
        factor = exact(factor)
        out = []
        power = 1
        for c in self.coeffs:
            out.append(c * power)
            power *= factor
        return Poly(out)

    # -- division ----------------------------------------------------------

    def __divmod__(self, divisor: Poly) -> tuple[Poly, Poly]:
        divisor = self._coerce(divisor)
        if divisor is NotImplemented:
            return NotImplemented
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dcs = divisor.coeffs
        dlc, ddeg = dcs[-1], len(dcs) - 1
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - ddeg, 0)
        while len(rem) > ddeg:
            lead = rem.pop()  # cancelled exactly by factor * dlc below
            if lead == 0:
                continue
            k = len(rem) - ddeg
            factor = exact_div(lead, dlc)
            quot[k] = factor
            for i, dc in enumerate(dcs[:-1], k):
                rem[i] -= factor * dc
        return Poly(quot), Poly(rem)

    # -- comparison / hashing / display -------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_str(self, var: str = "x") -> str:
        return join_terms(
            (c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
            for k, c in enumerate(self.coeffs) if c
        )

    def __repr__(self) -> str:
        return f"Poly({self.to_str()!r})"


def join_terms(terms: Iterable[tuple[Scalar, str]]) -> str:
    """Display a sum from (nonzero coefficient, monomial text) pairs, in order.

    An empty monomial is the constant term, and a coefficient of magnitude 1
    is left off any other.  The empty sum is "0".

    >>> join_terms([(-1, ""), (Fraction(1, 2), "x"), (-1, "x*q^2")])
    '-1 + 1/2*x - x*q^2'
    """
    parts: list[str] = []
    for c, monomial in terms:
        mag = abs(c)
        body = str(mag) if not monomial else monomial if mag == 1 else f"{mag}*{monomial}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def divide_exact(p: Poly, d: Poly) -> Poly:
    """Exact quotient p/d; raises NotDivisible on a nonzero remainder.

    >>> str(divide_exact(Poly([0, 1, 4, 3]), Poly([1, 1])))
    'x + 3*x^2'
    """
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem = divmod(p, d)
    if not rem.is_zero():
        raise NotDivisible(f"remainder {rem} dividing {p} by {d}")
    return quot


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by the Euclidean algorithm over Q[x].

    Each divisor is made monic before it divides, which keeps the
    remainders' coefficients from growing by the divisors' leading
    coefficients at every step.  The monic gcd is unique, so the result does
    not depend on the order of the operands.

    >>> half, third = Fraction(1, 2), Fraction(1, 3)
    >>> str(poly_gcd(Poly([-half, 0, half]), Poly([third, third])))
    '1 + x'
    >>> str(poly_gcd(Poly([-4, 0, 1]), Poly([4, -2])))
    '-2 + x'
    """
    while b:
        b = b / b.coeffs[-1]
        a, b = b, divmod(a, b)[1]
    return a / a.coeffs[-1] if a else a


def root_multiplicity(p: Poly, root: Scalar) -> int:
    """Largest m such that (x - root)^m divides p."""
    if p.is_zero():
        raise ZeroPolynomial("every multiplicity is infinite for the zero polynomial")
    linear = Poly([-exact(root), 1])
    m = 0
    while True:
        quot, rem = divmod(p, linear)
        if not rem.is_zero():
            return m
        p = quot
        m += 1


def is_symmetric(p: Poly, low: int, high: int) -> bool:
    """True iff coefficient(low+i) == coefficient(high-i) on the window.

    The polynomial must be supported inside [low, high]; terms outside raise
    SupportOutOfRange.
    """
    if low > high:
        raise ValueError("low must not exceed high")
    for k, c in enumerate(p.coeffs):
        if c != 0 and not (low <= k <= high):
            raise SupportOutOfRange(f"term of degree {k} outside [{low}, {high}]")
    span = high - low
    return all(
        p.coefficient(low + i) == p.coefficient(high - i)
        for i in range(span // 2 + 1)
    )
