"""Truncated exponential-generating-function arithmetic, exactly.

A Series holds coefficients of z^0..z^order over a pluggable exact
coefficient domain: plain rationals, dense polynomials in x, sparse
multivariate polynomials, rational functions, or quadratic extensions
Q(x)[rho]/(rho^2 - D).  All operations truncate consistently at the order.

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
from .polys import Poly, Scalar, as_fraction


class RationalDomain:
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_fraction(self, q: Fraction):
        return q

    def invert(self, c):
        if c == 0:
            raise NonInvertibleConstantTerm("zero constant term")
        return 1 / Fraction(c)

    def to_str(self, c) -> str:
        return str(c)


class PolyDomain:
    name = "Q[x]"

    def __init__(self, var: str = "x"):
        self.var = var

    def zero(self):
        return Poly.zero()

    def one(self):
        return Poly.one()

    def from_fraction(self, q: Fraction):
        return Poly.constant(q)

    def invert(self, c: Poly):
        if c.degree != 0:
            raise NonInvertibleConstantTerm(f"{c} is not a unit in Q[{self.var}]")
        return Poly.constant(1 / as_fraction(c.coeffs[0]))

    def to_str(self, c: Poly) -> str:
        return c.to_str(self.var)


class MultiPolyDomain:
    def __init__(self, alphabet: tuple[str, ...]):
        self.alphabet = tuple(alphabet)
        self.name = "Q[" + ",".join(self.alphabet) + "]"

    def zero(self):
        return MultiPoly.zero(self.alphabet)

    def one(self):
        return MultiPoly.constant(self.alphabet, 1)

    def from_fraction(self, q: Fraction):
        return MultiPoly.constant(self.alphabet, q)

    def invert(self, c: MultiPoly):
        if c.letters_used():
            raise NonInvertibleConstantTerm(f"{c} is not a unit")
        v = c.constant_term()
        if v == 0:
            raise NonInvertibleConstantTerm("zero constant term")
        return MultiPoly.constant(self.alphabet, 1 / as_fraction(v))

    def to_str(self, c: MultiPoly) -> str:
        return str(c)


class QuadExtDomain:
    def __init__(self, disc: RatFunc):
        self.disc = disc
        self.name = f"Q(x)[rho]/(rho^2 - ({disc}))"

    def zero(self):
        return QuadExt(0, 0, self.disc)

    def one(self):
        return QuadExt(1, 0, self.disc)

    def from_fraction(self, q: Fraction):
        return QuadExt(q, 0, self.disc)

    def invert(self, c: QuadExt):
        try:
            return c.inverse()
        except ZeroDivisionError as exc:
            raise NonInvertibleConstantTerm(str(exc)) from exc

    def to_str(self, c: QuadExt) -> str:
        return str(c)


@dataclass(frozen=True)
class Series:
    """Truncated power series: coefficients of z^0 .. z^order."""

    domain: object
    coeffs: tuple
    order: int

    @classmethod
    def make(cls, domain, coeffs: Sequence, order: int) -> Series:
        coeffs = list(coeffs)[: order + 1]
        while len(coeffs) < order + 1:
            coeffs.append(domain.zero())
        return cls(domain, tuple(coeffs), order)

    @classmethod
    def constant(cls, domain, value, order: int) -> Series:
        return cls.make(domain, [value], order)

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf_coefficient(self, n: int):
        """n! times the z^n coefficient."""
        return self.coefficient(n) * factorial(n)

    def _coerce_scalar(self, value):
        if isinstance(value, (int, Fraction)):
            return self.domain.from_fraction(as_fraction(value))
        return value

    def _coerce(self, other) -> Series:
        if isinstance(other, Series):
            if other.order != self.order:
                raise ValueError("series orders differ")
            return other
        scalar = self._coerce_scalar(other)
        return Series.constant(self.domain, scalar, self.order)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other) -> Series:
        other = self._coerce(other)
        return Series(
            self.domain,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.order,
        )

    __radd__ = __add__

    def __neg__(self) -> Series:
        return Series(self.domain, tuple(-a for a in self.coeffs), self.order)

    def __sub__(self, other) -> Series:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> Series:
        return (-self) + other

    def __mul__(self, other) -> Series:
        if not isinstance(other, Series):
            scalar = self._coerce_scalar(other)
            return Series(
                self.domain, tuple(a * scalar for a in self.coeffs), self.order
            )
        other = self._coerce(other)
        zero = self.domain.zero()
        out = [zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b == zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return Series(self.domain, tuple(out), self.order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Series:
        if not isinstance(other, Series):
            other = self._coerce(other)
        inv0 = self.domain.invert(other.coeffs[0])
        out = []
        for n in range(self.order + 1):
            acc = self.coeffs[n]
            for k in range(n):
                acc = acc - out[k] * other.coeffs[n - k]
            out.append(acc * inv0)
        return Series(self.domain, tuple(out), self.order)

    def __rtruediv__(self, other) -> Series:
        return self._coerce(other) / self

    # -- transcendental combinators -------------------------------------------

    def exp(self) -> Series:
        """exp of a series with zero constant term."""
        if self.coeffs[0] != self.domain.zero():
            raise BadConstantTerm("exp needs constant term 0")
        out = [self.domain.one()]
        for n in range(1, self.order + 1):
            acc = self.domain.zero()
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k] * k
            out.append(acc * Fraction(1, n))
        return Series(self.domain, tuple(out), self.order)

    def log(self) -> Series:
        """log of a series with constant term 1."""
        if self.coeffs[0] != self.domain.one():
            raise BadConstantTerm("log needs constant term 1")
        out = [self.domain.zero()]
        for n in range(1, self.order + 1):
            acc = self.coeffs[n]
            for k in range(1, n):
                acc = acc - out[k] * self.coeffs[n - k] * Fraction(k, n)
            out.append(acc)
        return Series(self.domain, tuple(out), self.order)

    def sqrt(self) -> Series:
        """Square root of a series with constant term 1."""
        if self.coeffs[0] != self.domain.one():
            raise BadConstantTerm("sqrt needs constant term 1")
        out = [self.domain.one()]
        for n in range(1, self.order + 1):
            acc = self.coeffs[n]
            for k in range(1, n):
                acc = acc - out[k] * out[n - k]
            out.append(acc * Fraction(1, 2))
        return Series(self.domain, tuple(out), self.order)

    def pow_rational(self, exponent: Scalar) -> Series:
        """S^q = exp(q log S) for rational q; needs constant term 1."""
        q = as_fraction(exponent)
        return (self.log() * q).exp()

    def scale_z(self, factor) -> Series:
        """Substitute factor*z for z."""
        factor = self._coerce_scalar(factor)
        out = []
        power = self.domain.one()
        for c in self.coeffs:
            out.append(c * power)
            power = power * factor
        return Series(self.domain, tuple(out), self.order)

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        to_str = getattr(self.domain, "to_str", str)
        lines = [
            f"z^{n}/{n}!: {to_str(self.coeffs[n] * Fraction(factorial(n)))}"
            for n in range(self.order + 1)
        ]
        return "\n".join(lines)


def exp_cz(domain, c, order: int) -> Series:
    """The series exp(c z) = sum c^n z^n / n!."""
    out = []
    power = domain.one()
    for n in range(order + 1):
        out.append(power * Fraction(1, factorial(n)))
        power = power * c
    return Series(domain, tuple(out), order)


def sin_cz(domain, c, order: int) -> Series:
    """sin(c z), built termwise."""
    out = []
    power = domain.one()
    for n in range(order + 1):
        if n % 2 == 1:
            sign = -1 if n % 4 == 3 else 1
            out.append(power * Fraction(sign, factorial(n)))
        else:
            out.append(domain.zero())
        power = power * c
    return Series(domain, tuple(out), order)


def cos_cz(domain, c, order: int) -> Series:
    """cos(c z), built termwise."""
    out = []
    power = domain.one()
    for n in range(order + 1):
        if n % 2 == 0:
            sign = -1 if n % 4 == 2 else 1
            out.append(power * Fraction(sign, factorial(n)))
        else:
            out.append(domain.zero())
        power = power * c
    return Series(domain, tuple(out), order)


# ---------------------------------------------------------------------------
# closed-form generating functions
# ---------------------------------------------------------------------------

_DISC_RHO = RatFunc(Poly([1, 0, -1]))  # rho^2 = 1 - x^2


def _reduce_to_polys(series: Series, context: str) -> Series:
    """Collapse quadratic-extension coefficients to plain polynomials."""
    polys = []
    for n, c in enumerate(series.coeffs):
        if not c.rad.is_zero():
            raise ExtensionResidue(f"{context}: rho survives in coefficient {n}")
        if not c.base.is_polynomial():
            raise ExtensionResidue(
                f"{context}: coefficient {n} is not a polynomial: {c.base}"
            )
        polys.append(c.base.num)
    return Series(PolyDomain(), tuple(polys), series.order)


@lru_cache(maxsize=None)
def egf_T(order: int) -> Series:
    """Up-down-run EGF; n! times coefficient n is the T-row polynomial."""
    dom = QuadExtDomain(_DISC_RHO)
    x = QuadExt(RatFunc.x(), 0, _DISC_RHO)
    rho = QuadExt.radical(_DISC_RHO)
    e1 = exp_cz(dom, rho, order)
    e2 = exp_cz(dom, rho * 2, order)
    num = (1 - x) * (1 + rho + (2 * x) * e1 + (1 - rho) * e2)
    den = (1 + rho - x * x) + (1 - rho - x * x) * e2
    return _reduce_to_polys(num / den, "egf_T")


@lru_cache(maxsize=None)
def egf_carlitz(order: int) -> Series:
    """Carlitz EGF; n! times coefficient n is sum_k R(n+1,k) x^(n-k)."""
    dom = QuadExtDomain(_DISC_RHO)
    x = QuadExt(RatFunc.x(), 0, _DISC_RHO)
    rho = QuadExt.radical(_DISC_RHO)
    quot = (rho + sin_cz(dom, rho, order)) / (x - cos_cz(dom, rho, order))
    ratio = (1 - x) / (1 + x)
    return _reduce_to_polys(ratio * quot * quot, "egf_carlitz")


def egf_Rq(q0: Scalar, order: int) -> Series:
    """T(x,z)^q0; n! times coefficient n is R_n(x; q0)."""
    return egf_T(order).pow_rational(q0)


def egf_f(order: int) -> Series:
    """EGF of the half-gamma polynomials: R(2x, z; 1/2) = sqrt(T(2x, z))."""
    base = egf_Rq(Fraction(1, 2), order)
    return Series(
        base.domain,
        tuple(p.scale_x(2) for p in base.coeffs),
        order,
    )


def egf_derangement(order: int) -> Series:
    """e^(-x z) T(x, z); n! times coefficient n is the derangement poly."""
    dom = PolyDomain()
    return exp_cz(dom, Poly([0, -1]), order) * egf_T(order)


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

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "order": self.order,
            "pass": self.ok,
            "first_mismatch": self.first_mismatch,
        }


def _compare_sequences(identity, order, closed, expected, describe) -> IdentityReport:
    first = None
    for n, (got, want) in enumerate(zip(closed, expected)):
        if got != want:
            first = f"n={n}: {describe(got)} != {describe(want)}"
            break
    return IdentityReport(
        identity, order, first is None, first, tuple(closed), tuple(expected)
    )


def check_egf_T(order: int) -> IdentityReport:
    tri = families.triangle("T", order)
    closed = [egf_T(order).egf_coefficient(n) for n in range(order + 1)]
    expected = [tri.row_poly(n) for n in range(order + 1)]
    return _compare_sequences("egf_T vs T triangle", order, closed, expected, str)


def check_egf_carlitz(order: int) -> IdentityReport:
    tri = families.triangle("R", order + 1)
    closed = [egf_carlitz(order).egf_coefficient(n) for n in range(order + 1)]
    expected = []
    for n in range(order + 1):
        row = tri.row(n + 1)
        expected.append(Poly.from_terms({n - k: v for k, v in enumerate(row)}))
    return _compare_sequences(
        "egf_carlitz vs reversed R rows", order, closed, expected, str
    )


def check_egf_Rq(q0: Scalar, order: int) -> IdentityReport:
    q0 = as_fraction(q0)
    tri = families.triangle("Rq", order)
    series = egf_Rq(q0, order)
    closed = [series.egf_coefficient(n) for n in range(order + 1)]
    expected = [families.q_specialize(tri.row(n), q0) for n in range(order + 1)]
    return _compare_sequences(
        f"egf_Rq at q={q0} vs Rq triangle", order, closed, expected, str
    )


def check_egf_f(order: int) -> IdentityReport:
    tri = families.triangle("f", order)
    series = egf_f(order)
    closed = [series.egf_coefficient(n) for n in range(order + 1)]
    expected = [tri.row_poly(n) for n in range(order + 1)]
    return _compare_sequences(
        "sqrt(T(2x,z)) vs f triangle", order, closed, expected, str
    )


def check_derangement_egf(order: int) -> IdentityReport:
    seq = families.polyseq("dpoly", order)
    series = egf_derangement(order)
    closed = [series.egf_coefficient(n) for n in range(order + 1)]
    expected = [seq.poly(n) for n in range(order + 1)]
    return _compare_sequences(
        "exp(-xz) T(x,z) vs derangement polynomials", order, closed, expected, str
    )


def check_parity_symmetry(q0: Scalar, order: int) -> IdentityReport:
    """Coefficientwise R(x, z; -q) = R(-x, z; q)."""
    q0 = as_fraction(q0)
    neg = egf_Rq(-q0, order)
    pos = egf_Rq(q0, order)
    closed = [neg.egf_coefficient(n) for n in range(order + 1)]
    expected = [pos.egf_coefficient(n).scale_x(-1) for n in range(order + 1)]
    return _compare_sequences(
        f"R(x,z;-q) = R(-x,z;q) at q={q0}", order, closed, expected, str
    )


def check_inclusion_exclusion(q0: Scalar, order: int) -> IdentityReport:
    """exp(q x (y-1) z) R(x,z;q) against the binomial-sum polynomials."""
    q0 = as_fraction(q0)
    alphabet = ("x", "y")
    dom = MultiPolyDomain(alphabet)
    x = MultiPoly.variable(alphabet, "x")
    y = MultiPoly.variable(alphabet, "y")
    tri = families.triangle("Rq", order)
    rq = Series.make(
        dom,
        [
            MultiPoly.from_poly(
                families.q_specialize(tri.row(n), q0), "x", alphabet
            )
            * Fraction(1, factorial(n))
            for n in range(order + 1)
        ],
        order,
    )
    full = exp_cz(dom, x * (y - 1) * q0, order) * rq
    closed = [full.egf_coefficient(n) for n in range(order + 1)]
    expected = [
        families.inclusion_exclusion_Rxy(n, q0) for n in range(order + 1)
    ]
    return _compare_sequences(
        f"exp(qx(y-1)z) R(x,z;q) vs inclusion-exclusion at q={q0}",
        order,
        closed,
        expected,
        str,
    )


def check_f_diagonal(order: int) -> IdentityReport:
    """sqrt((1+tan x)/(1-tan x)) against the diagonal f_{n,n}."""
    dom = RationalDomain()
    tan = sin_cz(dom, Fraction(1), order) / cos_cz(dom, Fraction(1), order)
    series = ((1 + tan) / (1 - tan)).sqrt()
    closed = [series.egf_coefficient(n) for n in range(order + 1)]
    tri = families.triangle("f", order)
    expected = [Fraction(tri.entry(n, n)) for n in range(order + 1)]
    return _compare_sequences(
        "sqrt((1+tan)/(1-tan)) vs f diagonal", order, closed, expected, str
    )


def check_d_diagonal(order: int) -> IdentityReport:
    """e^(-x) (tan x + sec x) against the diagonal d_{n,n}.

    tan + sec is the zigzag EGF, i.e. the diagonal of the up-down-run
    triangle, and the e^(-x) factor is the derangement sieve.
    """
    dom = RationalDomain()
    s = sin_cz(dom, Fraction(1), order)
    c = cos_cz(dom, Fraction(1), order)
    series = exp_cz(dom, Fraction(-1), order) * (1 + s) / c
    closed = [series.egf_coefficient(n) for n in range(order + 1)]
    seq = families.polyseq("dpoly", order)
    expected = [seq.poly(n).coefficient(n) for n in range(order + 1)]
    return _compare_sequences(
        "exp(-x) (tan x + sec x) vs derangement diagonal",
        order,
        closed,
        expected,
        str,
    )


def _T_series_at(x0: Fraction, order: int) -> Series:
    """T(x0, z) over Q for a rational point where 1 - x0^2 is a square of a
    rational (automatic here because x0 enters as 2t/(1+t^2))."""
    dom = RationalDomain()
    num_sq = 1 - x0 * x0
    rho = _fraction_sqrt(num_sq)
    e1 = exp_cz(dom, rho, order)
    e2 = exp_cz(dom, 2 * rho, order)
    num = (1 - x0) * (1 + rho + 2 * x0 * e1 + (1 - rho) * e2)
    den = (1 + rho - x0 * x0) + (1 - rho - x0 * x0) * e2
    return num / den


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
    series = inner.sqrt()
    closed = [series.egf_coefficient(n) for n in range(order + 1)]
    seq = families.polyseq("Fpoly", order)
    expected = [seq.poly(n).evaluate(x0) for n in range(order + 1)]
    return _compare_sequences(
        f"sqrt(T(2x/(1+x^2),(1+x^2)z)) at x0={x0}", order, closed, expected, str
    )


def check_F_dual_certificate(order: int) -> IdentityReport:
    """Pointwise F-dual checks at enough samples to certify each degree.

    deg F_n = 2n-1, so 2*order+2 distinct x0 values (including 0) exceed the
    degree of every compared coefficient.
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


def egf_specialized_identities(which: str, params: dict, order: int) -> IdentityReport:
    """Dispatcher for the named specialized identities."""
    if which == "derangement":
        return check_derangement_egf(order)
    if which == "F_dual":
        return check_F_dual_at(params["x0"], order)
    if which == "f_diag":
        return check_f_diagonal(order)
    if which == "d_diag":
        return check_d_diagonal(order)
    raise ValueError(f"unknown identity {which!r}")


# ---------------------------------------------------------------------------
# the PDE and the theta operator
# ---------------------------------------------------------------------------


def _rq_egf_coeffs(order: int, mutate: tuple[int, int] | None = None) -> list[MultiPoly]:
    """R_n(x;q)/n! as polynomials in (x, q); optionally bump one entry."""
    alphabet = ("x", "q")
    tri = families.triangle("Rq", order)
    coeffs = []
    for n in range(order + 1):
        poly = tri.row_multipoly(n, "x", "q")
        if mutate is not None and mutate[0] == n:
            k = mutate[1]
            poly = poly + MultiPoly(alphabet, {(k, 0): 1})
        coeffs.append(poly * Fraction(1, factorial(n)))
    return coeffs


def pde_check(order: int, mutate: tuple[int, int] | None = None) -> bool:
    """(1 - x^2 z) dR/dz = x(1-x^2) dR/dx + q x R, compared through order-1."""
    if order < 2:
        raise ValueError("order must be at least 2")
    alphabet = ("x", "q")
    a = _rq_egf_coeffs(order, mutate)
    x = MultiPoly.variable(alphabet, "x")
    q = MultiPoly.variable(alphabet, "q")
    x2 = x * x
    growth = x * (1 - x2)
    for n in range(order):
        lhs = (n + 1) * a[n + 1] - n * x2 * a[n]
        rhs = growth * a[n].derivative("x") + q * x * a[n]
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
