"""Gamma expansions, semi-gamma expansions, and David-Barton transforms.

A polynomial symmetric on a degree window [low, high] factors as x^low
times a palindromic polynomial of span d = high - low.  That palindromic
part expands uniquely as

    sum_k gamma_k x^k (1+x)^(d-2k)            (gamma form)
    (1+x)^nu sum_k lambda_k x^k (1+x^2)^(m-k) (semi-gamma form, nu = d mod 2)

and the two are linked by lambda_k = sum_i C(m-i, k-i) 2^(k-i) gamma_i.
The David-Barton transform pairs a gamma vector M(n, .) with the polynomial
sum_k 2^(2*delta-k) M(n,k) x^k (1+x)^(n-delta-k); the surd form of the same
identity becomes one polynomial equality in t under x = (1-t^2)/(1+t^2),
w = t, and is decided exactly.

All of these are sums sum_k c_k u^k v^(m-k): u = x with v = (1+x)^2, 1+x^2
or 1+x for the three assemblies, and u = 1-t^2, v = 1+t^2 and u = 1-t,
v = 1+t for the two sides of the surd identity.  `_basis_sum` builds every
one of them and `_basis_coeffs` is the one expansion back into such a basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .errors import NotSymmetric
from .polys import Poly, Scalar, divide_exact, exact, is_symmetric

_X = Poly.x()
_ONE_X = Poly([1, 1])
_ONE_X_SQ = Poly([1, 2, 1])
_ONE_X2 = Poly([1, 0, 1])


def _basis_sum(coeffs: Sequence[Scalar], u: Poly, v: Poly, m: int) -> Poly:
    """sum_k c_k u^k v^(m-k), by Horner's rule in v.

    A nonzero c_k with k > m would need a negative power of v and raises
    ValueError; a zero c_k there is skipped.

    >>> str(_basis_sum((1, 2), _X, _ONE_X_SQ, 1))
    '1 + 4*x + x^2'
    >>> str(_basis_sum((1, 1), Poly([1, -1]), _ONE_X, 2))
    '2 + 2*x'
    """
    count = max(m + 1, 0)  # the entries that get a power of v
    for k in range(count, len(coeffs)):
        if coeffs[k] != 0:
            raise ValueError(f"negative ({v}) exponent at k={k}")
    head = coeffs[:count]
    acc = Poly.zero()
    u_power = Poly.one()
    for c in head:
        acc = acc * v + u_power * c
        u_power = u_power * u
    return acc * v ** (count - len(head))


def _basis_coeffs(p: Poly, base: Poly, m: int) -> tuple[Scalar, ...]:
    """The c_0..c_m with p = sum_k c_k x^k base^(m-k); the inverse of
    `_basis_sum` with u = x and v = base.

    base has constant term 1, so once the terms below k are subtracted, c_k
    is the coefficient of x^k in what is left.  Anything left after c_m
    raises NotSymmetric.
    """
    powers = [Poly.one()]
    for _ in range(m):
        powers.append(powers[-1] * base)
    coeffs = []
    remainder = p
    for k in range(m + 1):
        c = remainder.coefficient(k)
        coeffs.append(c)
        if c != 0:
            remainder = remainder - (c * powers[m - k]).shift(k)
    if not remainder.is_zero():
        raise NotSymmetric(f"expansion in powers of {base} left a remainder {remainder}")
    return tuple(coeffs)


class GammaForm(NamedTuple):
    """gamma coefficients of a palindromic polynomial of span base_degree."""

    base_degree: int
    gammas: tuple[Scalar, ...]

    def reassemble(self) -> Poly:
        d = self.base_degree
        return _basis_sum(self.gammas, _X, _ONE_X_SQ, d // 2) * _ONE_X ** (d % 2)

    def is_positive(self) -> bool:
        return all(g >= 0 for g in self.gammas)


class SemiGammaForm(NamedTuple):
    """(1+x)^nu sum lambda_k x^k (1+x^2)^(half_degree-k)."""

    nu: int
    half_degree: int
    lambdas: tuple[Scalar, ...]

    def reassemble(self) -> Poly:
        return _basis_sum(self.lambdas, _X, _ONE_X2, self.half_degree) * _ONE_X**self.nu

    def is_positive(self) -> bool:
        return all(lam >= 0 for lam in self.lambdas)


def _peel(p: Poly, low: int, high: int) -> Poly:
    """Shift the window [low, high] down to [0, high-low], checking symmetry,
    and divide out the (1+x) that an odd span forces: a palindromic
    polynomial of odd span vanishes at -1."""
    if not is_symmetric(p, low, high):
        raise NotSymmetric(f"{p} is not symmetric on [{low}, {high}]")
    core = Poly(p.coeffs[low:]) if low else p
    return divide_exact(core, _ONE_X) if (high - low) % 2 else core


def gamma_expand(p: Poly, low: int, high: int) -> GammaForm:
    """Unique gamma expansion of a polynomial symmetric on [low, high].

    >>> gamma_expand(Poly([0, 1, 4, 1]), 1, 3).gammas
    (1, 2)
    """
    d = high - low
    return GammaForm(d, _basis_coeffs(_peel(p, low, high), _ONE_X_SQ, d // 2))


def semi_gamma_expand(p: Poly, low: int, high: int) -> SemiGammaForm:
    """Unique semi-gamma expansion of a polynomial symmetric on [low, high]."""
    d = high - low
    return SemiGammaForm(d % 2, d // 2, _basis_coeffs(_peel(p, low, high), _ONE_X2, d // 2))


def gamma_to_lambda(form: GammaForm) -> SemiGammaForm:
    """Convert a gamma form to the equivalent semi-gamma form.

    lambda_k = sum_i C(m-i, k-i) 2^(k-i) gamma_i with m = base_degree // 2;
    an odd base degree contributes the (1+x) factor as nu = 1.
    """
    m = form.base_degree // 2
    nu = form.base_degree % 2
    lambdas = []
    for k in range(m + 1):
        total = 0
        for i, g in enumerate(form.gammas[: k + 1]):
            total += comb(m - i, k - i) * 2 ** (k - i) * g
        lambdas.append(exact(total))
    return SemiGammaForm(nu, m, tuple(lambdas))


def split_even_odd(p: Poly, nu: int) -> tuple[Poly, Poly]:
    """Write p/(1+x)^nu as g1(x^2) + x*g2(x^2) and return (g1, g2)."""
    if nu not in (0, 1):
        raise ValueError("nu must be 0 or 1")
    core = divide_exact(p, _ONE_X) if nu else p
    g1 = Poly(core.coeffs[0::2])
    g2 = Poly(core.coeffs[1::2])
    return g1, g2


# ---------------------------------------------------------------------------
# David-Barton transform
# ---------------------------------------------------------------------------


def david_barton_assemble(m_row: GammaForm, n: int, delta: int) -> Poly:
    """sum_k 2^(2*delta-k) M(n,k) x^k (1+x)^(n-delta-k).

    >>> str(david_barton_assemble(GammaForm(4, (Fraction(0), Fraction(1), Fraction(2))), 3, 1))
    '2*x + 4*x^2'
    """
    if m_row.base_degree != n + delta:
        raise ValueError(
            f"gamma form has base degree {m_row.base_degree}, expected {n + delta}"
        )
    weighted = [Fraction(2) ** (2 * delta - k) * g for k, g in enumerate(m_row.gammas)]
    return _basis_sum(weighted, _X, _ONE_X, n - delta)


def default_samples(count: int) -> list[Fraction]:
    """The distinct rationals 1/2, 1/3, ..., 1/(count+1) in (0, 1)."""
    return [Fraction(1, j + 2) for j in range(count)]


def david_barton_identity_check(m_poly: Poly, n_poly: Poly, n: int, delta: int) -> bool:
    """Decide N_n(x) = ((1+x)/2)^(n-delta) (1+w)^(n+delta) M_n((1-w)/(1+w)).

    Substituting x = (1-t^2)/(1+t^2) forces w = t and (1+x)/2 = 1/(1+t^2).
    With D = max(deg N, n - delta, 0), clearing the powers of 1+t^2 turns
    the identity into one equality of polynomials in t:

        (1+t^2)^D N(x) = (1+t^2)^(D-n+delta) sum_k m_k (1-t)^k (1+t)^(n+delta-k)

    Both sums are `_basis_sum`s, and the result is exact: True is a proof.
    An M of degree above n + delta is rejected (False): the right-hand side
    then has a pole at t = -1 that the left-hand side lacks, so the identity
    cannot hold.

    >>> a2, r2 = Poly([0, 1, 1]), Poly([0, 2])
    >>> david_barton_identity_check(a2, r2, 2, 1), david_barton_identity_check(a2, r2 * 2, 2, 1)
    (True, False)
    """
    if not 0 <= delta <= n:
        raise ValueError(f"need 0 <= delta <= n, got n={n}, delta={delta}")
    if m_poly.degree > n + delta:
        return False
    d = max(n_poly.degree, n - delta, 0)
    # polynomials in t: 1 - t^2, 1 + t^2, 1 - t, 1 + t
    lhs = _basis_sum(n_poly.coeffs, Poly([1, 0, -1]), _ONE_X2, d)
    rhs = _basis_sum(m_poly.coeffs, Poly([1, -1]), _ONE_X, n + delta)
    return lhs == rhs * _ONE_X2 ** (d - n + delta)
