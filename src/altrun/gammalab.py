"""Gamma expansions, semi-gamma expansions, and David-Barton transforms.

A polynomial symmetric on a degree window [low, high] factors as x^low
times a palindromic polynomial of span d = high - low.  That palindromic
part expands uniquely as

    sum_k gamma_k x^k (1+x)^(d-2k)            (gamma form)
    (1+x)^nu sum_k lambda_k x^k (1+x^2)^(m-k) (semi-gamma form, nu = d mod 2)

and the two are linked by lambda_k = sum_i C(m-i, k-i) 2^(k-i) gamma_i.
The David-Barton transform pairs a gamma vector M(n, .) with the polynomial
sum_k 2^(2*delta-k) M(n,k) x^k (1+x)^(n-delta-k); the surd form of the same
identity is certified at rational points via x = (1-t^2)/(1+t^2), w = t.

All three are sums sum_k c_k x^k B^(m-k) over a gamma-type basis, with
B = (1+x)^2, 1+x^2 or 1+x: `_basis_sum` assembles every one of them and
`_basis_coeffs` is the one expansion back into such a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import DegenerateSample, NotSymmetric
from .polys import Poly, Scalar, as_fraction, divide_exact, exact, is_symmetric

_ONE_X = Poly([1, 1])
_ONE_X_SQ = Poly([1, 2, 1])
_ONE_X2 = Poly([1, 0, 1])


def _basis_sum(coeffs: Sequence[Scalar], base: Poly, m: int) -> Poly:
    """sum_k c_k x^k base^(m-k), by Horner's rule in base.

    A nonzero c_k with k > m would need a negative power of base and raises
    ValueError; a zero c_k there is skipped.

    >>> str(_basis_sum((1, 2), _ONE_X_SQ, 1))
    '1 + 4*x + x^2'
    """
    count = max(m + 1, 0)  # the entries that get a power of base
    for k in range(count, len(coeffs)):
        if coeffs[k] != 0:
            raise ValueError(f"negative ({base}) exponent at k={k}")
    head = coeffs[:count]
    acc = Poly.zero()
    for k, c in enumerate(head):
        acc = acc * base + Poly.from_terms({k: c})
    return acc * base ** (count - len(head))


def _basis_coeffs(p: Poly, base: Poly, m: int) -> tuple[Scalar, ...]:
    """The c_0..c_m with p = sum_k c_k x^k base^(m-k); the inverse of `_basis_sum`.

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


@dataclass(frozen=True)
class GammaForm:
    """gamma coefficients of a palindromic polynomial of span base_degree."""

    base_degree: int
    gammas: tuple[Scalar, ...]

    def reassemble(self) -> Poly:
        d = self.base_degree
        return _basis_sum(self.gammas, _ONE_X_SQ, d // 2) * _ONE_X ** (d % 2)

    def is_positive(self) -> bool:
        return all(g >= 0 for g in self.gammas)


@dataclass(frozen=True)
class SemiGammaForm:
    """(1+x)^nu sum lambda_k x^k (1+x^2)^(half_degree-k)."""

    nu: int
    half_degree: int
    lambdas: tuple[Scalar, ...]

    def reassemble(self) -> Poly:
        return _basis_sum(self.lambdas, _ONE_X2, self.half_degree) * _ONE_X**self.nu

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
    return _basis_sum(weighted, _ONE_X, n - delta)


def default_samples(count: int) -> list[Fraction]:
    """Distinct rationals in (0, 1) for certificate evaluation."""
    return [Fraction(1, j + 2) for j in range(count)]


def certificate_sample_count(n_degree: int, n: int, delta: int) -> int:
    """Number of distinct samples that turns the surd check into a proof.

    With x = (1-t^2)/(1+t^2) and w = t, write D = max(deg N, n - delta, 0).
    Clearing the (1+t^2) powers turns both sides of the identity into
    polynomials in t:

        L(t) = (1+t^2)^D N(x)                                  deg <= 2D
        R(t) = (1+t^2)^(D-n+delta) (1+t)^(n+delta) M((1-t)/(1+t))
                                                   deg <= 2D - n + 3*delta

    the second bound holding when deg M <= n + delta.  L - R therefore has
    degree at most B = max(2D, 2D - n + 3*delta), and agreement at B + 1
    distinct values of t proves L = R, hence the identity.

    >>> certificate_sample_count(3, 4, 1)
    7
    """
    if not 0 <= delta <= n:
        raise ValueError(f"need 0 <= delta <= n, got n={n}, delta={delta}")
    d = max(n_degree, n - delta, 0)
    return max(2 * d, 2 * d - n + 3 * delta) + 1


def david_barton_identity_check(
    m_poly: Poly,
    n_poly: Poly,
    n: int,
    delta: int,
    t_samples: Sequence[Scalar],
) -> bool:
    """Certify N_n(x) = ((1+x)/2)^(n-delta) (1+w)^(n+delta) M_n((1-w)/(1+w)).

    Each sample t in (0, 1) is made exact through x = (1-t^2)/(1+t^2), which
    forces w = t.  A True result is a proof: it needs at least
    `certificate_sample_count(deg N, n, delta)` distinct samples (the degree
    bound is written there), and with fewer the pair is rejected (False).
    An M of degree above n + delta is rejected too: the right-hand side
    then has a pole at t = -1 that the left-hand side lacks, so the
    identity cannot hold.
    """
    if not t_samples:
        raise ValueError("need at least one sample")
    if len(t_samples) < certificate_sample_count(n_poly.degree, n, delta):
        return False
    if m_poly.degree > n + delta:
        return False
    seen = set()
    for t in t_samples:
        t = as_fraction(t)
        if not 0 < t < 1:
            raise ValueError(f"sample {t} outside (0, 1)")
        if t in seen:
            raise ValueError(f"duplicate sample {t}")
        seen.add(t)
        x = (1 - t * t) / (1 + t * t)
        if x == -1:
            raise DegenerateSample(f"x = -1 at t = {t}")
        lhs = n_poly.evaluate(x)
        rhs = (
            ((1 + x) / 2) ** (n - delta)
            * (1 + t) ** (n + delta)
            * m_poly.evaluate((1 - t) / (1 + t))
        )
        if lhs != rhs:
            return False
    return True
