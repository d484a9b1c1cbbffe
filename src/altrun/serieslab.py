"""Truncated exponential-generating-function arithmetic, exactly.

A Series stores the EGF coefficients egf[n] = n! [z^n] for n = 0..order
and computes with their own exact arithmetic.  The rings used are Q
(`int`/`Fraction`), Q[x] (`Poly`), Q[x,y] (`MultiPoly`) and the quadratic
extension Q(x)[rho]/(rho^2 - D) (`QuadExt`).  Products, quotients, `exp`,
`log` and `sqrt` are binomial convolutions of the stored values, so a series
with integer EGF coefficients (T, Carlitz, T^q for integer q, the derangement
EGF) is computed in integers throughout, with no 1/n! anywhere.  All
operations truncate consistently at the order.  Series division inverts the
constant term as `1 / c`, so it is supported only over Q and Q(x)[rho].

The closed-form generating functions of the run polynomials live here; the
ones that need sqrt(1-x^2) are computed in the quadratic extension and the
final rho-cancellation is asserted (ExtensionResidue), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from typing import Sequence

from . import families
from .errors import (
    BadConstantTerm,
    DegenerateSample,
    ExtensionResidue,
    NonInvertibleConstantTerm,
)
from .fieldext import QuadExt, RatFunc
from .multipoly import MultiPoly
from .polys import ExactRing, Poly, Scalar, as_fraction


_HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def _pascal(order: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..order of Pascal's triangle: `_pascal(order)[n][k]` is C(n, k)."""
    rows = [(1,)]
    for _ in range(order):
        prev = rows[-1]
        rows.append((1,) + tuple(a + b for a, b in zip(prev, prev[1:])) + (1,))
    return tuple(rows)


@dataclass(frozen=True)
class Series(ExactRing):
    """Truncated exponential generating function: egf[n] = n! [z^n], n <= order.

    The stored values carry their own arithmetic; zero is `egf[0] * 0` and
    one is that zero plus 1, derived once per operation.  Every operation is
    a binomial convolution, so integer EGF coefficients stay integers:

    >>> s = exp_cz(1, 3)
    >>> s.egf == (1, 1, 1, 1)
    True
    >>> [str(c) for c in s.coeffs]
    ['1', '1', '1/2', '1/6']
    """

    egf: tuple
    order: int

    @classmethod
    def make(cls, coeffs: Sequence, order: int) -> Series:
        """The series with ordinary coefficients `coeffs` ([z^n]), truncated
        or zero-padded to z^0 .. z^order."""
        coeffs = list(coeffs)[: order + 1]
        if len(coeffs) < order + 1:
            coeffs += [coeffs[0] * 0] * (order + 1 - len(coeffs))
        return cls(tuple(c * factorial(n) for n, c in enumerate(coeffs)), order)

    @property
    def coeffs(self) -> tuple:
        """The ordinary coefficients [z^n] = egf[n] / n!."""
        return tuple(c * Fraction(1, factorial(n)) for n, c in enumerate(self.egf))

    def coefficient(self, n: int):
        """The ordinary coefficient [z^n]."""
        return self.egf_coefficient(n) * Fraction(1, factorial(n))

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
        """c_n = (a_n - sum_(k<n) C(n, k) c_k b_(n-k)) / b_0."""
        other = self._coerce(other)
        b = other.egf
        try:
            inv0 = Fraction(1) / b[0]
        except ZeroDivisionError as exc:
            raise NonInvertibleConstantTerm(f"constant term {b[0]} is not invertible") from exc
        unit = inv0 == 1
        support = [j for j in other._support() if j]
        out = []
        for n, row in enumerate(_pascal(self.order)):
            acc = self.egf[n]
            for j in support:
                if j > n:
                    break
                acc = acc - out[n - j] * b[j] * row[j]
            out.append(acc if unit else acc * inv0)
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
        """log of a series with constant term 1: S L' = S', so
        l_n = s_n - sum_(j<=n-2) C(n-1, j) l_(j+1) s_(n-1-j)."""
        s = self.egf
        zero = s[0] * 0
        if s[0] != zero + 1:
            raise BadConstantTerm("log needs constant term 1")
        pascal = _pascal(self.order)
        out = [zero]
        for n in range(1, self.order + 1):
            row = pascal[n - 1]
            acc = s[n]
            for i in range(1, n):
                acc = acc - out[n - i] * s[i] * row[i]
            out.append(acc)
        return Series(tuple(out), self.order)

    def sqrt(self) -> Series:
        """Square root of a series with constant term 1.

        s_n = sum_k C(n, k) r_k r_(n-k) pairs the terms k and n-k, and
        C(2m, m) = 2 C(2m-1, m-1), so r_n = s_n / 2 - sum_(0<k<n/2) C(n, k)
        r_k r_(n-k) - [n = 2m] C(2m-1, m-1) r_m^2.
        """
        s = self.egf
        one = s[0] * 0 + 1
        if s[0] != one:
            raise BadConstantTerm("sqrt needs constant term 1")
        pascal = _pascal(self.order)
        out = [one]
        for n in range(1, self.order + 1):
            row = pascal[n]
            acc = s[n] * _HALF
            for k in range(1, (n + 1) // 2):
                acc = acc - out[k] * out[n - k] * row[k]
            if n % 2 == 0:
                m = n // 2
                acc = acc - out[m] * out[m] * pascal[n - 1][m - 1]
            out.append(acc)
        return Series(tuple(out), self.order)

    def pow_rational(self, exponent: Scalar) -> Series:
        """S^q = exp(q log S) for rational q; needs constant term 1."""
        q = as_fraction(exponent)
        return (self.log() * q).exp()

    def scale_z(self, factor) -> Series:
        """Substitute factor*z for z."""
        out = []
        power = self.egf[0] * 0 + 1
        for c in self.egf:
            out.append(c * power)
            power = power * factor
        return Series(tuple(out), self.order)

    # -- display ---------------------------------------------------------------

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


def sin_cz(c, order: int) -> Series:
    """sin(c z): the odd terms of exp(c z), signed by (-1)^(n//2)."""
    return _signed_terms(exp_cz(c, order), 1)


def cos_cz(c, order: int) -> Series:
    """cos(c z): the even terms of exp(c z), signed by (-1)^(n//2)."""
    return _signed_terms(exp_cz(c, order), 0)


def _signed_terms(series: Series, parity: int) -> Series:
    zero = series.egf[0] * 0
    return Series(
        tuple(
            (-a if n // 2 % 2 else a) if n % 2 == parity else zero
            for n, a in enumerate(series.egf)
        ),
        series.order,
    )


# ---------------------------------------------------------------------------
# closed-form generating functions
# ---------------------------------------------------------------------------

_DISC_RHO = RatFunc(Poly([1, 0, -1]))  # rho^2 = 1 - x^2


def _reduce_to_polys(series: Series, context: str) -> Series:
    """Collapse quadratic-extension coefficients to plain polynomials."""
    polys = []
    for n, c in enumerate(series.egf):
        if not c.rad.is_zero():
            raise ExtensionResidue(f"{context}: rho survives in coefficient {n}")
        if not c.base.is_polynomial():
            raise ExtensionResidue(
                f"{context}: coefficient {n} is not a polynomial: {c.base}"
            )
        polys.append(c.base.num)
    return Series(tuple(polys), series.order)


def _T_closed(x, rho, order: int) -> Series:
    """T(x, z) in closed form, over any ring in which rho^2 = 1 - x^2."""
    e1 = exp_cz(rho, order)
    e2 = exp_cz(rho * 2, order)
    num = (1 - x) * (1 + rho + (2 * x) * e1 + (1 - rho) * e2)
    den = (1 + rho - x * x) + (1 - rho - x * x) * e2
    return num / den


@lru_cache(maxsize=None)
def egf_T(order: int) -> Series:
    """Up-down-run EGF; n! times coefficient n is the T-row polynomial."""
    x = QuadExt(RatFunc.x(), 0, _DISC_RHO)
    return _reduce_to_polys(_T_closed(x, QuadExt.radical(_DISC_RHO), order), "egf_T")


def egf_carlitz(order: int) -> Series:
    """Carlitz EGF; n! times coefficient n is sum_k R(n+1,k) x^(n-k)."""
    x = QuadExt(RatFunc.x(), 0, _DISC_RHO)
    rho = QuadExt.radical(_DISC_RHO)
    quot = (rho + sin_cz(rho, order)) / (x - cos_cz(rho, order))
    ratio = (1 - x) / (1 + x)
    return _reduce_to_polys(ratio * quot * quot, "egf_carlitz")


@lru_cache(maxsize=None)
def egf_Rq(q0: Scalar, order: int) -> Series:
    """T(x,z)^q0; n! times coefficient n is R_n(x; q0)."""
    return egf_T(order).pow_rational(q0)


def egf_f(order: int) -> Series:
    """EGF of the half-gamma polynomials: R(2x, z; 1/2) = sqrt(T(2x, z))."""
    base = egf_Rq(Fraction(1, 2), order)
    return Series(tuple(p.scale_x(2) for p in base.egf), order)


def egf_derangement(order: int) -> Series:
    """e^(-x z) T(x, z); n! times coefficient n is the derangement poly."""
    return exp_cz(Poly([0, -1]), order) * egf_T(order)


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    order: int
    ok: bool
    first_mismatch: str | None
    closed: tuple
    expected: tuple


def _egf_report(identity: str, series: Series, want, order: int) -> IdentityReport:
    """n! times coefficient n of `series` against `want(n)`, for n = 0..order."""
    closed = tuple(series.egf_coefficient(n) for n in range(order + 1))
    expected = tuple(want(n) for n in range(order + 1))
    first = None
    for n, (got, exp) in enumerate(zip(closed, expected)):
        if got != exp:
            first = f"n={n}: {got} != {exp}"
            break
    return IdentityReport(identity, order, first is None, first, closed, expected)


def check_egf_T(order: int) -> IdentityReport:
    tri = families.triangle("T", order)
    return _egf_report("egf_T vs T triangle", egf_T(order), tri.row_poly, order)


def check_egf_carlitz(order: int) -> IdentityReport:
    tri = families.triangle("R", order + 1)
    return _egf_report(
        "egf_carlitz vs reversed R rows",
        egf_carlitz(order),
        lambda n: Poly.from_terms({n - k: v for k, v in enumerate(tri.row(n + 1))}),
        order,
    )


def check_egf_Rq(q0: Scalar, order: int) -> IdentityReport:
    q0 = as_fraction(q0)
    tri = families.triangle("Rq", order)
    return _egf_report(
        f"egf_Rq at q={q0} vs Rq triangle",
        egf_Rq(q0, order),
        lambda n: families.q_specialize(tri.row(n), q0),
        order,
    )


def check_egf_f(order: int) -> IdentityReport:
    tri = families.triangle("f", order)
    return _egf_report("sqrt(T(2x,z)) vs f triangle", egf_f(order), tri.row_poly, order)


def check_derangement_egf(order: int) -> IdentityReport:
    seq = families.polyseq("dpoly", order)
    return _egf_report(
        "exp(-xz) T(x,z) vs derangement polynomials", egf_derangement(order), seq.poly, order
    )


def check_parity_symmetry(q0: Scalar, order: int) -> IdentityReport:
    """Coefficientwise R(x, z; -q) = R(-x, z; q)."""
    q0 = as_fraction(q0)
    neg = egf_Rq(-q0, order)
    pos = egf_Rq(q0, order)
    return _egf_report(
        f"R(x,z;-q) = R(-x,z;q) at q={q0}",
        neg,
        lambda n: pos.egf_coefficient(n).scale_x(-1),
        order,
    )


def check_inclusion_exclusion(q0: Scalar, order: int) -> IdentityReport:
    """exp(q x (y-1) z) R(x,z;q) against the binomial-sum polynomials."""
    q0 = as_fraction(q0)
    alphabet = ("x", "y")
    x = MultiPoly.variable(alphabet, "x")
    y = MultiPoly.variable(alphabet, "y")
    tri = families.triangle("Rq", order)
    rq = Series(
        tuple(
            MultiPoly.from_poly(families.q_specialize(tri.row(n), q0), "x", alphabet)
            for n in range(order + 1)
        ),
        order,
    )
    return _egf_report(
        f"exp(qx(y-1)z) R(x,z;q) vs inclusion-exclusion at q={q0}",
        exp_cz(x * (y - 1) * q0, order) * rq,
        lambda n: families.inclusion_exclusion_Rxy(n, q0),
        order,
    )


def check_f_diagonal(order: int) -> IdentityReport:
    """sqrt((1+tan x)/(1-tan x)) against the diagonal f_{n,n}."""
    tan = sin_cz(1, order) / cos_cz(1, order)
    series = ((1 + tan) / (1 - tan)).sqrt()
    tri = families.triangle("f", order)
    return _egf_report(
        "sqrt((1+tan)/(1-tan)) vs f diagonal", series, lambda n: Fraction(tri.entry(n, n)), order
    )


def check_d_diagonal(order: int) -> IdentityReport:
    """e^(-x) (tan x + sec x) against the diagonal d_{n,n}.

    tan + sec is the zigzag EGF, i.e. the diagonal of the up-down-run
    triangle, and the e^(-x) factor is the derangement sieve.
    """
    s = sin_cz(1, order)
    c = cos_cz(1, order)
    series = exp_cz(-1, order) * (1 + s) / c
    seq = families.polyseq("dpoly", order)
    return _egf_report(
        "exp(-x) (tan x + sec x) vs derangement diagonal",
        series,
        lambda n: seq.poly(n).coefficient(n),
        order,
    )


def _T_series_at(x0: Fraction, order: int) -> Series:
    """T(x0, z) over Q for a rational point where 1 - x0^2 is a square of a
    rational (automatic here because x0 enters as 2t/(1+t^2))."""
    return _T_closed(x0, _fraction_sqrt(1 - x0 * x0), order)


def _fraction_sqrt(q: Fraction) -> Fraction:
    if q < 0:
        raise DegenerateSample(f"negative discriminant {q}")
    pn, pd = isqrt(q.numerator), isqrt(q.denominator)
    if pn * pn != q.numerator or pd * pd != q.denominator:
        raise DegenerateSample(f"{q} is not a rational square")
    return Fraction(pn, pd)


def check_F_dual_at(x0: Scalar, order: int) -> IdentityReport:
    """sqrt(T(2x/(1+x^2), (1+x^2) z)) evaluated at rational x0 against F_n(x0)."""
    x0 = as_fraction(x0)
    if x0 in (1, -1):
        raise DegenerateSample("x0 = +-1 degenerates the substitution")
    u = 2 * x0 / (1 + x0 * x0)
    inner = _T_series_at(u, order).scale_z(1 + x0 * x0)
    seq = families.polyseq("Fpoly", order)
    return _egf_report(
        f"sqrt(T(2x/(1+x^2),(1+x^2)z)) at x0={x0}",
        inner.sqrt(),
        lambda n: seq.poly(n).evaluate(x0),
        order,
    )


def check_F_dual_certificate(order: int) -> IdentityReport:
    """Pointwise F-dual checks at enough samples to certify each degree.

    Degree bound: the n-th coefficient of the closed side at x0 is a
    polynomial in x0 of degree at most 2n.  The inner series has n-th EGF
    coefficient (1+x^2)^n T_n(2x/(1+x^2)) = sum_k T_(n,k) (2x)^k
    (1+x^2)^(n-k), of degree at most 2n, and constant term 1.  The n-th EGF
    coefficient of its square root is a rational combination of products
    s_j1 ... s_jm of those coefficients with j1 + ... + jm = n, so it stays
    within degree 2n.  deg F_n = 2n-1, so 2n+1 distinct samples certify
    row n, and the 2*order+2 samples j/(2*order+2), j = 0..2*order+1, cover
    every n <= order.
    """
    sample_count = 2 * order + 2
    samples = [Fraction(j, sample_count) for j in range(sample_count)]
    for x0 in samples:
        report = check_F_dual_at(x0, order)
        if not report.ok:
            return IdentityReport(
                "F-dual certificate",
                order,
                False,
                f"x0={x0}: {report.first_mismatch}",
                (),
                (),
            )
    return IdentityReport(
        "F-dual certificate", order, True, None, tuple(samples), ()
    )


# ---------------------------------------------------------------------------
# the PDE and the theta operator
# ---------------------------------------------------------------------------


def _rq_rows(order: int, mutate: tuple[int, int] | None = None) -> list[MultiPoly]:
    """R_n(x;q) = n! [z^n] R as polynomials in (x, q); optionally bump one entry."""
    alphabet = ("x", "q")
    tri = families.triangle("Rq", order)
    rows = []
    for n in range(order + 1):
        poly = tri.row_multipoly(n, "x", "q")
        if mutate is not None and mutate[0] == n:
            k = mutate[1]
            poly = poly + MultiPoly(alphabet, {(k, 0): 1})
        rows.append(poly)
    return rows


def pde_check(order: int, mutate: tuple[int, int] | None = None) -> bool:
    """(1 - x^2 z) dR/dz = x(1-x^2) dR/dx + q x R, compared through order-1.

    On EGF coefficients, n! [z^n] of the two sides is
    R_(n+1) - n x^2 R_n = x(1-x^2) R_n' + q x R_n.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    alphabet = ("x", "q")
    r = _rq_rows(order, mutate)
    x = MultiPoly.variable(alphabet, "x")
    q = MultiPoly.variable(alphabet, "q")
    x2 = x * x
    growth = x * (1 - x2)
    for n in range(order):
        lhs = r[n + 1] - n * x2 * r[n]
        rhs = growth * r[n].derivative("x") + q * x * r[n]
        if lhs != rhs:
            return False
    return True


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


def theta_check(max_n: int) -> bool:
    """theta^n r equals its closed form for 0 <= n <= max_n."""
    value = QuadExt.radical(_DISC_R)
    x = RatFunc.x()
    for n in range(max_n + 1):
        if value != theta_expected(n):
            return False
        if n % 2 == 1 and value != theta_expected_odd_form((n - 1) // 2):
            return False
        value = value.derivative() * x
    return True
