"""Truncated series combinators and the closed-form generating functions."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altrun import serieslab as sl, verify
from altrun.errors import (
    BadConstantTerm,
    DegenerateSample,
    ExtensionResidue,
    NonInvertibleConstantTerm,
)
from altrun.families import polyseq, q_specialize, triangle
from altrun.fieldext import QuadExt, RatFunc
from altrun.polys import Poly

F = Fraction


def make(coeffs, order=None):
    order = order if order is not None else len(coeffs) - 1
    return sl.Series.make([F(c) for c in coeffs], order)


def test_exp_z():
    series = make([0, 1], order=3).exp()
    assert series.coeffs == (F(1), F(1), F(1, 2), F(1, 6))


def test_sqrt_binomial():
    series = make([1, 2], order=2).sqrt()
    assert series.coeffs == (F(1), F(1), F(-1, 2))


def test_pow_identity():
    T = sl.egf_T(5)
    assert T.pow_rational(1).coeffs == T.coeffs


def test_constant_term_guards():
    with pytest.raises(BadConstantTerm):
        make([1, 1]).exp()
    with pytest.raises(BadConstantTerm):
        make([0, 1]).log()
    with pytest.raises(BadConstantTerm):
        make([2, 1]).sqrt()
    with pytest.raises(NonInvertibleConstantTerm):
        make([1, 1]) / make([0, 1])


def test_zero_constant_term_over_quadratic_extension():
    rho = QuadExt.radical(sl._DISC_RHO)
    zero = rho * 0
    numerator = sl.Series.make([zero + 1, rho], 1)
    with pytest.raises(NonInvertibleConstantTerm):
        numerator / sl.Series.make([zero, rho], 1)
    with pytest.raises(NonInvertibleConstantTerm):
        1 / sl.Series.make([zero, zero + 1], 1)


def test_series_str_table():
    text = str(make([1, 1], order=2))
    assert text.splitlines() == ["z^0/0!: 1", "z^1/1!: 1", "z^2/2!: 0"]


_series = st.lists(st.integers(-4, 4), min_size=0, max_size=5).map(
    lambda tail: make([1] + [F(c, 2) for c in tail], order=6)
)


@settings(max_examples=40)
@given(s=_series)
def test_exp_log_inverse(s):
    assert s.log().exp().coeffs == s.coeffs


@settings(max_examples=40)
@given(s=_series)
def test_sqrt_squares_back(s):
    root = s.sqrt()
    assert (root * root).coeffs == s.coeffs


@settings(max_examples=25)
@given(
    s=_series,
    a=st.fractions(min_value=-2, max_value=2, max_denominator=3),
    b=st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
def test_pow_addition_law(s, a, b):
    lhs = s.pow_rational(a) * s.pow_rational(b)
    rhs = s.pow_rational(a + b)
    assert lhs.coeffs == rhs.coeffs


# Reference recurrences on ordinary coefficients [z^n], as plain Fraction lists.


def _ref_mul(a, b):
    return [sum((a[k] * b[n - k] for k in range(n + 1)), F(0)) for n in range(len(a))]


def _ref_div(a, b):
    out = []
    for n in range(len(a)):
        acc = a[n] - sum((out[k] * b[n - k] for k in range(n)), F(0))
        out.append(acc / b[0])
    return out


def _ref_exp(s):
    out = [F(1)]
    for n in range(1, len(s)):
        out.append(sum((k * s[k] * out[n - k] for k in range(1, n + 1)), F(0)) / n)
    return out


def _ref_log(s):
    out = [F(0)]
    for n in range(1, len(s)):
        out.append(s[n] - sum((F(k, n) * out[k] * s[n - k] for k in range(1, n)), F(0)))
    return out


def _ref_sqrt(s):
    out = [F(1)]
    for n in range(1, len(s)):
        out.append((s[n] - sum((out[k] * out[n - k] for k in range(1, n)), F(0))) / 2)
    return out


_tails = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=7, max_size=7
)


@settings(max_examples=40)
@given(a=_tails, b=_tails, b0=st.sampled_from([F(1), F(-2), F(3, 4)]))
def test_binomial_convolutions_match_ordinary_recurrences(a, b, b0):
    ones, zeros = [F(1)] + a[1:], [F(0)] + a[1:]
    b = [b0] + b[1:]
    sa, sb = make(a), make(b)
    assert list((sa * sb).coeffs) == _ref_mul(a, b)
    assert list((sa / sb).coeffs) == _ref_div(a, b)
    assert list(make(zeros).exp().coeffs) == _ref_exp(zeros)
    assert list(make(ones).log().coeffs) == _ref_log(ones)
    assert list(make(ones).sqrt().coeffs) == _ref_sqrt(ones)


def test_integer_egfs_stay_integer():
    for series in (sl.egf_T(12), sl.egf_carlitz(12), sl.egf_Rq(2, 12)):
        assert all(type(c) is int for p in series.egf for c in p.coeffs)


def test_series_suite_builds_each_power_once(monkeypatch):
    built = Counter()
    pow_rational = sl.Series.pow_rational

    def counted(self, exponent):
        built[exponent, self.order] += 1
        return pow_rational(self, exponent)

    monkeypatch.setattr(sl.Series, "pow_rational", counted)
    sl.egf_Rq.cache_clear()
    assert verify.run_suite("series", order=18).overall
    sl.egf_Rq.cache_clear()
    halves = (F(1, 2), F(-1, 2))
    assert set(built) == {(q, 18) for q in (1, 2, 3, -1, -2) + halves}
    assert set(built.values()) == {1}


def test_egf_T_first_rows():
    T = sl.egf_T(3)
    assert T.egf_coefficient(0) == Poly.one()
    assert T.egf_coefficient(2) == Poly([0, 1, 1])
    assert T.egf_coefficient(3) == Poly([0, 1, 3, 2])


def test_egf_T_matches_triangle_12():
    assert sl.check_egf_T(12).ok


def test_carlitz_first_coefficients():
    C = sl.egf_carlitz(3)
    assert C.egf_coefficient(0) == Poly.one()
    assert C.egf_coefficient(1) == Poly([2])
    assert C.egf_coefficient(3) == Poly([10, 12, 2])


def test_carlitz_matches_reversed_rows_12():
    assert sl.check_egf_carlitz(12).ok


def test_egf_Rq_specializations():
    R2 = sl.egf_Rq(2, 6)
    r_tri = triangle("R", 7)
    for n in range(6):
        assert R2.egf_coefficient(n) == r_tri.row_poly(n + 1)
    rq = triangle("Rq", 5)
    half = sl.egf_Rq(F(1, 2), 5)
    for n in range(6):
        assert half.egf_coefficient(n) == q_specialize(rq.row(n), F(1, 2))


def test_egf_f_matches_f_triangle():
    series = sl.egf_f(6)
    tri = triangle("f", 6)
    assert series.egf_coefficient(3) == Poly([0, 1, 3, 5])
    for n in range(7):
        assert series.egf_coefficient(n) == tri.row_poly(n)


def test_derangement_egf():
    series = sl.egf_derangement(4)
    d = polyseq("dpoly", 4)
    assert series.egf_coefficient(3) == Poly([0, 1, 0, 1])
    for n in range(5):
        assert series.egf_coefficient(n) == d.poly(n)


def test_specialized_identity_dispatch():
    assert sl.check_derangement_egf(8).ok
    assert sl.check_f_diagonal(8).ok
    assert sl.check_d_diagonal(8).ok
    assert sl.check_F_dual_at(F(1, 2), 6).ok


def test_f_diag_values():
    report = sl.check_f_diagonal(5)
    assert report.ok
    assert list(report.closed) == [1, 1, 1, 5, 17, 121]


def test_identity_report_json():
    report = sl.check_f_diagonal(4)
    assert report.ok is True and report.order == 4


def test_F_dual_trivial_point():
    report = sl.check_F_dual_at(0, 8)
    assert report.ok
    assert list(report.closed)[1:] == [F(0)] * 8


def test_F_dual_degenerate():
    with pytest.raises(DegenerateSample):
        sl.check_F_dual_at(1, 4)


def test_pde_check():
    assert sl.pde_check(8)
    assert sl.pde_check(2)
    assert not sl.pde_check(8, mutate=(3, 2))


def test_theta_examples():
    disc = RatFunc(Poly([1, 1]), Poly([1, -1]))
    assert sl.theta_power_r(0) == QuadExt.radical(disc)
    t1 = sl.theta_power_r(1)
    assert t1 == QuadExt(0, RatFunc(Poly([0, 1]), Poly([1, 0, -1])), disc)
    t2 = sl.theta_power_r(2)
    expected_rad = RatFunc(Poly([0, 1, 1, 1])) / RatFunc(Poly([1, 0, -1])) ** 2
    assert t2 == QuadExt(0, expected_rad, disc)


def test_theta_range():
    assert sl.theta_check(10)


def test_extension_residue_guard():
    polluted = sl.Series.make([QuadExt.radical(sl._DISC_RHO)], 1)
    with pytest.raises(ExtensionResidue):
        sl._reduce_to_polys(polluted, "test")
    nonpoly = sl.Series.make(
        [QuadExt(RatFunc(Poly([1]), Poly([1, 1])), 0, sl._DISC_RHO)], 1
    )
    with pytest.raises(ExtensionResidue):
        sl._reduce_to_polys(nonpoly, "test")


def test_scale_z():
    s = make([1, 1, 1], order=2).scale_z(F(2))
    assert s.coeffs == (F(1), F(2), F(4))
