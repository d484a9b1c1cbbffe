"""Truncated exponential-generating-function arithmetic, exactly.

A Series stores the EGF coefficients egf[n] = n! [z^n] for n = 0..order
and computes with their own exact arithmetic.  The rings used are Q
(`int`/`Fraction`), Q[x] (`Poly`) and Q[x,y] (`MultiPoly`).  Three
operations are binomial convolutions of the stored values: the product, the
quotient and `exp`.  The rest are built from them: `log` S is the integral
of S'/S (both a shift of the stored values), `pow_rational` is
exp(q log S), `sqrt` is the power 1/2, and `scale_z` multiplies by the
values of exp(cz).  So a series with integer EGF coefficients (T, Carlitz,
T^q for integer q, the derangement EGF) is computed in integers throughout,
with no 1/n! anywhere.  All operations truncate consistently at the order,
which must be nonnegative.  Series division by a constant term equal to 1
divides by nothing; any other `int` or `Fraction` constant term is inverted
once, and any other constant term divides each coefficient through the
coefficient's own `/`, which over Q[x] is exact division.

The closed-form generating functions of the run polynomials live here.  The
two written with rho = sqrt(1-x^2), T and Carlitz's EGF, meet rho only
through cosh and sinh (or cos and sin) of rho z.  `_even_odd` gives
C = cosh(rho z) and S = sinh(rho z)/rho as series in rho^2 = 1 - x^2, so
each closed form is one quotient over Q[x]; that it divides exactly is
asserted (NotDivisible), never assumed.
`egf_R` is R(x,z;q) = T(x,z)^q = exp(q log T) over Q[x,q] (rows in Z[x,q]),
so the q-identities are checked symbolically in q rather than at sample
values, and the F-dual identity is one exact polynomial identity per n.

The theta operator x d/dx on r = sqrt((1+x)/(1-x)) needs no field either:
theta^n r = r P_n / w^n with P_n in Z[x], where r'/r = u/w is read once from
`QuadExt`'s derivative rule, and `theta_check` steps P_n by the product
rule.  `theta_power_r` and the two `theta_expected*` closed forms stay as
the field route, which the tests use as an oracle.

Each `check_*` identity returns its two sides as tuples indexed by n: n!
times coefficient n of the closed form, and the row it must equal.  `verify`
compares them in the loop it uses for every row check, which states the
range of n it compared.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Sequence

from . import families
from .families import _XQ, _XYQ
from .errors import BadConstantTerm, NonInvertibleConstantTerm, NotDivisible
from .fieldext import QuadExt, RatFunc
from .gammalab import SemiGammaForm
from .multipoly import MultiPoly
from .polys import ExactRing, Poly, Scalar, as_fraction, exact


_HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def _pascal(order: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..order of Pascal's triangle: `_pascal(order)[n][k]` is C(n, k)."""
    rows = [(1,)]
    for _ in range(order):
        prev = rows[-1]
        rows.append((1,) + tuple(a + b for a, b in zip(prev, prev[1:])) + (1,))
    return tuple(rows)


class Series(ExactRing):
    """Truncated exponential generating function: egf[n] = n! [z^n], n <= order.

    The stored values carry their own arithmetic; zero is `egf[0] * 0` and
    one is that zero plus 1, derived once per operation.  The product, the
    quotient and `exp` are binomial convolutions, and every other operation
    is built from them, so integer EGF coefficients stay integers:

    >>> s = exp_cz(1, 3)
    >>> s.egf == (1, 1, 1, 1)
    True
    >>> [str(c) for c in s.coeffs]
    ['1', '1', '1/2', '1/6']

    Division needs a constant term its ring can divide by: 1 divides by
    nothing, any other `int` or `Fraction` is inverted once, and any other
    constant term divides each coefficient exactly, through the
    coefficient's own `/`.  A negative order raises ValueError.

    Like every `ExactRing` type, a Series is immutable: `egf` and `order`
    live in `__slots__`, are set once in `__init__` through
    `object.__setattr__`, and setting any attribute raises `AttributeError`.
    """

    __slots__ = ("egf", "order")

    def __init__(self, egf: tuple, order: int):
        if order < 0:
            raise ValueError(f"truncation order {order} is negative")
        object.__setattr__(self, "egf", egf)
        object.__setattr__(self, "order", order)

    @classmethod
    def make(cls, coeffs: Sequence, order: int) -> Series:
        """The series with ordinary coefficients `coeffs` ([z^n]), truncated
        or zero-padded to z^0 .. z^order; the padding is `coeffs[0] * 0`, or
        the `int` 0 when `coeffs` is empty."""
        coeffs = list(coeffs)[: order + 1]
        coeffs += [coeffs[0] * 0 if coeffs else 0] * (order + 1 - len(coeffs))
        return cls(tuple(c * factorial(n) for n, c in enumerate(coeffs)), order)

    @property
    def coeffs(self) -> tuple:
        """The ordinary coefficients [z^n] = egf[n] / n!."""
        return tuple(c * Fraction(1, factorial(n)) for n, c in enumerate(self.egf))

    def egf_coefficient(self, n: int):
        """n! times the z^n coefficient, as stored."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.egf[n]

    def _coerce(self, other) -> Series:
        if not isinstance(other, Series):
            zero = self.egf[0] * 0
            return Series((zero + other,) + (zero,) * self.order, self.order)
        if other.order != self.order:
            raise ValueError("series orders differ")
        return other

    def _support(self) -> list[int]:
        """Indices of the nonzero stored values."""
        zero = self.egf[0] * 0
        return [k for k, c in enumerate(self.egf) if c != zero]

    # -- ring structure ------------------------------------------------------

    def __add__(self, other) -> Series:
        other = self._coerce(other)
        return Series(tuple(a + b for a, b in zip(self.egf, other.egf)), self.order)

    def __neg__(self) -> Series:
        return Series(tuple(-a for a in self.egf), self.order)

    def __mul__(self, other) -> Series:
        """c_n = sum_k C(n, k) a_k b_(n-k)."""
        if not isinstance(other, Series):
            return Series(tuple(a * other for a in self.egf), self.order)
        other = self._coerce(other)
        a, b = self.egf, other.egf
        zero = a[0] * 0
        support = self._support()
        nonzero_b = [c != zero for c in b]
        out = []
        for n, row in enumerate(_pascal(self.order)):
            acc = zero
            for k in support:
                if k > n:
                    break
                if nonzero_b[n - k]:
                    acc = acc + a[k] * b[n - k] * row[k]
            out.append(acc)
        return Series(tuple(out), self.order)

    def __truediv__(self, other) -> Series:
        """c_n = (a_n - sum_(k<n) C(n, k) c_k b_(n-k)) / b_0.

        A b_0 equal to 1, in any ring, divides by nothing.  Any other `int`
        or `Fraction` b_0 is inverted once, and any other b_0 divides each
        c_n through the coefficient's own `/`: over `Poly` that is exact
        division in Q[x], and a NotDivisible there names n.  A b_0 that its
        ring cannot divide by, such as zero, raises NonInvertibleConstantTerm.
        """
        other = self._coerce(other)
        b = other.egf
        b0 = b[0]
        support = [j for j in other._support() if j]
        out = []
        try:
            if b0 == 1:
                divide = lambda c: c  # noqa: E731
            elif isinstance(b0, (int, Fraction)):
                inv0 = Fraction(1) / b0
                divide = lambda c: c * inv0  # noqa: E731
            else:
                divide = lambda c: c / b0  # noqa: E731
            for n, row in enumerate(_pascal(self.order)):
                acc = self.egf[n]
                for j in support:
                    if j > n:
                        break
                    acc = acc - out[n - j] * b[j] * row[j]
                out.append(divide(acc))
        except ZeroDivisionError as exc:
            raise NonInvertibleConstantTerm(f"constant term {b0} is not invertible") from exc
        except NotDivisible as exc:
            raise NotDivisible(f"coefficient {len(out)}: {exc}") from exc
        return Series(tuple(out), self.order)

    # -- transcendental combinators -------------------------------------------

    def exp(self) -> Series:
        """exp of a series with zero constant term: E' = S' E, so
        e_n = sum_(j<n) C(n-1, j) s_(j+1) e_(n-1-j)."""
        s = self.egf
        zero = s[0] * 0
        if s[0] != zero:
            raise BadConstantTerm("exp needs constant term 0")
        pascal = _pascal(self.order)
        out = [zero + 1]
        for n in range(1, self.order + 1):
            row = pascal[n - 1]
            acc = zero
            for k in range(1, n + 1):
                acc = acc + s[k] * out[n - k] * row[k - 1]
            out.append(acc)
        return Series(tuple(out), self.order)

    def log(self) -> Series:
        """log of a series with constant term 1, as the integral of S'/S.

        In EGF values S' is `egf` shifted down one place and the integral
        shifts back up behind a 0.  The padded last value of S' reaches only
        the last value of the quotient, which that shift drops.
        """
        s = self.egf
        zero = s[0] * 0
        if s[0] != zero + 1:
            raise BadConstantTerm("log needs constant term 1")
        quotient = Series(s[1:] + (zero,), self.order) / self
        return Series((zero,) + quotient.egf[:-1], self.order)

    def sqrt(self) -> Series:
        """Square root of a series with constant term 1: S^(1/2)."""
        return self.pow_rational(_HALF)

    def pow_rational(self, exponent: Scalar) -> Series:
        """S^q = exp(q log S) for rational q; needs constant term 1."""
        return (self.log() * as_fraction(exponent)).exp()

    def scale_z(self, factor) -> Series:
        """Substitute factor*z for z: egf[n] times factor^n."""
        return Series(tuple(map(mul, self.egf, exp_cz(factor, self.order).egf)), self.order)

    # -- comparison / hashing / display ----------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not Series:
            return NotImplemented
        return self.egf == other.egf and self.order == other.order

    def __hash__(self) -> int:
        return hash((self.egf, self.order))

    def __repr__(self) -> str:
        return f"Series(egf={self.egf!r}, order={self.order!r})"

    def __str__(self) -> str:
        return "\n".join(f"z^{n}/{n}!: {c}" for n, c in enumerate(self.egf))


def exp_cz(c, order: int) -> Series:
    """The series exp(c z): its EGF coefficients are the powers c^n."""
    out = []
    power = c * 0 + 1
    for _ in range(order + 1):
        out.append(power)
        power = power * c
    return Series(tuple(out), order)


def _even_odd(w, order: int) -> tuple[Series, Series]:
    """C = cosh(sqrt(w) z) and S = sinh(sqrt(w) z)/sqrt(w), with no sqrt(w).

    Their EGF coefficients are the powers w^k: C's at n = 2k and S's at
    n = 2k+1, with zero elsewhere.  At w = 1 - x^2:

    >>> c, s = _even_odd(Poly([1, 0, -1]), 4)
    >>> [str(p) for p in c.egf]
    ['1', '0', '1 - x^2', '0', '1 - 2*x^2 + x^4']
    >>> [str(p) for p in s.egf]
    ['0', '1', '0', '1 - x^2', '0']
    """
    zero = w * 0
    # A negative order builds no powers and fails in `Series`, naming itself.
    powers = exp_cz(w, max(order, 0) // 2).egf
    even = [zero if n % 2 else powers[n // 2] for n in range(order + 1)]
    odd = [powers[n // 2] if n % 2 else zero for n in range(order + 1)]
    return Series(tuple(even), order), Series(tuple(odd), order)


def sin_cz(c, order: int) -> Series:
    """sin(c z): c S, with S from `_even_odd` at w = -c^2."""
    return _even_odd(-c * c, order)[1] * c


def cos_cz(c, order: int) -> Series:
    """cos(c z): C, from `_even_odd` at w = -c^2."""
    return _even_odd(-c * c, order)[0]


# ---------------------------------------------------------------------------
# closed-form generating functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def egf_T(order: int) -> Series:
    """Up-down-run EGF; n! times coefficient n is the T-row polynomial.

    In rho = sqrt(1-x^2) it is (1-x)(1 + rho + 2x E + (1-rho) E^2) /
    ((1 + rho - x^2) + (1 - rho - x^2) E^2) with E = exp(rho z).  Times
    1/E above and below, with rho sinh(rho z) = (1-x^2) S, that is
    (x + C - (1-x^2) S) / ((1+x)(C - S)) at w = 1 - x^2, whose denominator
    at z = 0 is 1 + x.
    """
    x = Poly.x()
    w = 1 - x * x
    c, s = _even_odd(w, order)
    return (c + x - s * w) / ((c - s) * (1 + x))


def egf_carlitz(order: int) -> Series:
    """Carlitz EGF (1-x)(rho + sin rho z)^2 / ((1+x)(x - cos rho z)^2); n!
    times coefficient n is sum_k R(n+1,k) x^(n-k).

    With (rho + sin rho z)^2 = (1 - x^2)(1 + S)^2 it is
    ((1-x)(1+S))^2 / (x - C)^2 at w = x^2 - 1, whose denominator at z = 0
    is (1-x)^2.
    """
    x = Poly.x()
    c, s = _even_odd(x * x - 1, order)
    top = (s + 1) * (1 - x)
    bottom = c - x
    return (top * top) / (bottom * bottom)


@lru_cache(maxsize=None)
def egf_R(order: int) -> Series:
    """R(x, z; q) = T(x, z)^q = exp(q log T), exact in q (exponential formula).

    n! times coefficient n is R_n(x; q) as a `MultiPoly` in ("x", "q").  log T
    has integer EGF coefficients, so every row stays in Z[x, q]:

    >>> str(egf_R(3).egf_coefficient(3))
    'x*q + 3*x^2*q^2 + x^3*q + x^3*q^3'
    """
    log_t = egf_T(order).log()
    return Series(
        tuple(
            MultiPoly(_XQ, {(k, 1): c for k, c in enumerate(p.coeffs)}) for p in log_t.egf
        ),
        order,
    ).exp()


def egf_Rq(q0: Scalar, order: int) -> Series:
    """T(x,z)^q0, the rows of `egf_R` at q = q0; n! times coefficient n is R_n(x; q0)."""
    q0 = exact(q0)
    rows = []
    for row in egf_R(order).egf:
        coeffs = [0] * (order + 1)
        for (k, j), c in row.terms.items():
            coeffs[k] += c * q0**j
        rows.append(Poly(coeffs))
    return Series(tuple(rows), order)


def egf_f(order: int) -> Series:
    """EGF of the half-gamma polynomials: R(2x, z; 1/2) = sqrt(T(2x, z))."""
    base = egf_Rq(_HALF, order)
    return Series(tuple(p.scale_x(2) for p in base.egf), order)


def egf_derangement(order: int) -> Series:
    """e^(-x z) T(x, z); n! times coefficient n is the derangement poly."""
    return exp_cz(Poly([0, -1]), order) * egf_T(order)


# ---------------------------------------------------------------------------
# identities: the two sides, as tuples indexed by n, for verify to compare
# ---------------------------------------------------------------------------


def _sides(series: Series, want) -> tuple[tuple, tuple]:
    """n! times coefficient n of `series`, and `want(n)`, for n = 0..order."""
    return series.egf, tuple(want(n) for n in range(series.order + 1))


def check_egf_T(order: int) -> tuple[tuple, tuple]:
    return _sides(egf_T(order), families.triangle("T", order).row_poly)


def check_egf_carlitz(order: int) -> tuple[tuple, tuple]:
    tri = families.triangle("R", order + 1)
    return _sides(
        egf_carlitz(order),
        lambda n: Poly.from_terms({n - k: v for k, v in enumerate(tri.row(n + 1))}),
    )


def check_egf_Rq(order: int) -> tuple[tuple, tuple]:
    """The rows of `egf_R` against the Rq triangle, as polynomials in (x, q)."""
    return _sides(egf_R(order), families.triangle("Rq", order).row_multipoly)


def check_egf_f(order: int) -> tuple[tuple, tuple]:
    return _sides(egf_f(order), families.triangle("f", order).row_poly)


def check_derangement_egf(order: int) -> tuple[tuple, tuple]:
    return _sides(egf_derangement(order), families.polyseq("dpoly", order).poly)


def check_parity_symmetry(order: int) -> tuple[tuple, tuple]:
    """Coefficientwise R(x, z; -q) = R(-x, z; q), as polynomials in (x, q)."""
    rows = egf_R(order).egf
    return tuple(row.negated("q") for row in rows), tuple(row.negated("x") for row in rows)


def check_inclusion_exclusion(order: int) -> tuple[tuple, tuple]:
    """exp(q x (y-1) z) R(x,z;q) against the binomial sums over Rq rows, in (x, y, q).

    Both sides run over n = 0..min(order, 8), as the products in three
    letters grow fast; R is the leading part of `egf_R(order)`, the same
    series the other q-checks at this order read.
    """
    cap = min(order, 8)
    x, y, q = (MultiPoly.variable(_XYQ, v) for v in _XYQ)
    r = Series(tuple(row.extended(_XYQ) for row in egf_R(order).egf[: cap + 1]), cap)
    return _sides(exp_cz(q * x * (y - 1), cap) * r, families.inclusion_exclusion_Rxy)


def check_f_diagonal(order: int) -> tuple[tuple, tuple]:
    """sqrt((1+tan x)/(1-tan x)) against the diagonal f_{n,n}."""
    tan = sin_cz(1, order) / cos_cz(1, order)
    series = ((1 + tan) / (1 - tan)).sqrt()
    tri = families.triangle("f", order)
    return _sides(series, lambda n: Fraction(tri.entry(n, n)))


def check_d_diagonal(order: int) -> tuple[tuple, tuple]:
    """e^(-x) (tan x + sec x) against the diagonal d_{n,n}.

    tan + sec is the zigzag EGF, i.e. the diagonal of the up-down-run
    triangle, and the e^(-x) factor is the derangement sieve.
    """
    s = sin_cz(1, order)
    c = cos_cz(1, order)
    series = exp_cz(-1, order) * (1 + s) / c
    seq = families.polyseq("dpoly", order)
    return _sides(series, lambda n: seq.poly(n).coefficient(n))


def _F_dual(order: int) -> Series:
    """sqrt(T(2x/(1+x^2), (1+x^2) z)) as a series over Q[x].

    With r_(n,k) = n! [z^n x^k] sqrt(T(x, z)), n! [z^n] of it is
    sum_k r_(n,k) (2x)^k (1+x^2)^(n-k): a semi-gamma reassembly of row n of
    `egf_f`, whose coefficients are the r_(n,k) 2^k.
    """
    rows = egf_f(order).egf
    return Series(
        tuple(SemiGammaForm(0, n, p.coeffs).reassemble() for n, p in enumerate(rows)), order
    )


def check_F_dual_certificate(order: int) -> tuple[tuple, tuple]:
    """sqrt(T(2x/(1+x^2), (1+x^2) z)) against the Fpoly rows, as polynomials."""
    return _sides(_F_dual(order), families.polyseq("Fpoly", order).poly)


def check_F_dual_at(x0: Scalar, order: int) -> tuple[tuple, tuple]:
    """`check_F_dual_certificate` with both sides evaluated at rational x0."""
    closed, expected = check_F_dual_certificate(order)
    x0 = as_fraction(x0)
    return tuple(p.evaluate(x0) for p in closed), tuple(p.evaluate(x0) for p in expected)


# ---------------------------------------------------------------------------
# the PDE and the theta operator
# ---------------------------------------------------------------------------


def _rq_rows(order: int, mutate: tuple[int, int] | None = None) -> list[MultiPoly]:
    """R_n(x;q) = n! [z^n] R as polynomials in (x, q); optionally bump one entry."""
    tri = families.triangle("Rq", order)
    rows = []
    for n in range(order + 1):
        poly = tri.row_multipoly(n)
        if mutate is not None and mutate[0] == n:
            k = mutate[1]
            poly = poly + MultiPoly(_XQ, {(k, 0): 1})
        rows.append(poly)
    return rows


def pde_check(order: int, mutate: tuple[int, int] | None = None) -> int | None:
    """(1 - x^2 z) dR/dz = x(1-x^2) dR/dx + q x R, compared through order-1.

    On EGF coefficients, n! [z^n] of the two sides is
    R_(n+1) - n x^2 R_n = x(1-x^2) R_n' + q x R_n.  Returns the first n
    where the two sides part, or None when they agree for every n < order.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    r = _rq_rows(order, mutate)
    x = MultiPoly.variable(_XQ, "x")
    q = MultiPoly.variable(_XQ, "q")
    x2 = x * x
    growth = x * (1 - x2)
    for n in range(order):
        lhs = r[n + 1] - n * x2 * r[n]
        rhs = growth * r[n].derivative("x") + q * x * r[n]
        if lhs != rhs:
            return n
    return None


_DISC_R = RatFunc(Poly([1, 1]), Poly([1, -1]))  # r^2 = (1+x)/(1-x)


def theta_power_r(n: int) -> QuadExt:
    """Apply theta = x d/dx to r = sqrt((1+x)/(1-x)) n times."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = RatFunc.x()
    value = QuadExt.radical(_DISC_R)
    for _ in range(n):
        value = value.derivative() * x
    return value


def theta_expected(n: int) -> QuadExt:
    """r F_n(x) / (1-x^2)^n, the closed form of theta^n r."""
    seq = families.polyseq("Fpoly", n)
    denom = RatFunc(Poly([1, 0, -1])) ** n
    return QuadExt(0, RatFunc(seq.poly(n)) / denom, _DISC_R)


def theta_expected_odd_form(m: int) -> QuadExt:
    """F_{2m+1}(x) / (r (1-x^2)^(2m) (1-x)^2): the odd-index display form."""
    seq = families.polyseq("Fpoly", 2 * m + 1)
    scalar = RatFunc(seq.poly(2 * m + 1)) / (
        RatFunc(Poly([1, 0, -1])) ** (2 * m) * RatFunc(Poly([1, -1])) ** 2
    )
    return QuadExt.scalar(scalar, _DISC_R) / QuadExt.radical(_DISC_R)


def _theta_step(p: Poly, n: int, u: Poly, w: Poly) -> Poly:
    """P_(n+1) from P_n, where theta^n r = r P_n / w^n and r'/r = u/w.

    theta(r P/w^n) = x (r' P + r P' - n r P w'/w) / w^n
                   = r x (u P + w P' - n w' P) / w^(n+1),
    so the step stays in Z[x] and never divides.
    """
    return (u * p + w * p.derivative() - n * w.derivative() * p).shift(1)


def theta_check(max_n: int) -> int | None:
    """The first n <= max_n where theta^n r differs from r F_n/(1-x^2)^n, or
    None when every n agrees.

    r'/r = u/w is read once, from the field's own derivative rule on r.
    After that theta^n r = r P_n / w^n is stepped over Z[x] by
    `_theta_step`, and each n compares the cross-multiplied
    P_n (1-x^2)^n == F_n w^n, with no gcd and no division.
    """
    log_derivative = QuadExt.radical(_DISC_R).derivative().rad
    u, w = log_derivative.num, log_derivative.den
    rows = families.polyseq("Fpoly", max(max_n, 0))
    one_minus_x2 = Poly([1, 0, -1])
    p = left = right = Poly.one()  # P_n, (1-x^2)^n and w^n
    for n in range(max_n + 1):
        if p * left != rows.poly(n) * right:
            return n
        p = _theta_step(p, n, u, w)
        left, right = left * one_minus_x2, right * w
    return None
