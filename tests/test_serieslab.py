"""Truncated series combinators and the closed-form generating functions."""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from altrun import families, serieslab as sl, verify
from altrun.cli import main
from altrun.errors import BadConstantTerm, NonInvertibleConstantTerm, NotDivisible
from altrun.families import PolySeq, Triangle, polyseq, q_specialize, triangle
from altrun.fieldext import QuadExt, RatFunc
from altrun.polys import Poly

F = Fraction
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
_DISC_RHO = RatFunc(Poly([1, 0, -1]))  # rho^2 = 1 - x^2, over Q(x)


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
    rho = QuadExt.radical(_DISC_RHO)
    zero = rho * 0
    numerator = sl.Series.make([zero + 1, rho], 1)
    with pytest.raises(NonInvertibleConstantTerm):
        numerator / sl.Series.make([zero, rho], 1)
    with pytest.raises(NonInvertibleConstantTerm):
        1 / sl.Series.make([zero, zero + 1], 1)


def test_series_division_over_poly_is_exact_and_names_n():
    one_plus_x, x = Poly([1, 1]), Poly.x()
    quot = sl.Series((one_plus_x, x), 1) / sl.Series((Poly.one(), 3 * x), 1)
    assert quot == sl.Series((one_plus_x, Poly([0, -2, -3])), 1)
    den = sl.Series((one_plus_x, x * x), 1)
    assert (quot * den) / den == quot
    with pytest.raises(NonInvertibleConstantTerm):
        quot / sl.Series((Poly(), x), 1)
    with pytest.raises(NotDivisible, match="coefficient 1: "):
        sl.Series((one_plus_x, Poly.one()), 1) / sl.Series((one_plus_x, x), 1)


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
    assert all(type(c) is int for row in sl.egf_R(12).egf for c in row.terms.values())


def test_series_suite_builds_R_once_per_order():
    sl.egf_R.cache_clear()
    assert verify.run_suite("series", order=18).overall
    info = sl.egf_R.cache_info()
    sl.egf_R.cache_clear()
    assert (info.misses, info.currsize) == (1, 1)


_RQ_BUMP = Poly([-1, 2]) * Poly([-1, 1]) * Poly([-2, 1]) * Poly([-3, 1])  # (2q-1)(q-1)(q-2)(q-3)


@pytest.mark.parametrize("order", [12, 18])
def test_egf_Rq_check_sees_a_bump_vanishing_at_four_q(monkeypatch, order):
    # The bump vanishes at q = 1, 2, 3, 1/2, so comparing T^q with the
    # triangle at those four values of q cannot see it.
    original = families.triangle

    def bumped(name, max_n):
        tri = original(name, max_n)
        if name != "Rq" or tri.max_n < 5:
            return tri
        rows = list(tri.rows)
        rows[5] = rows[5][:2] + (rows[5][2] + _RQ_BUMP,) + rows[5][3:]
        return Triangle(tri.name, tri.min_n, tuple(rows))

    monkeypatch.setattr(families, "triangle", bumped)
    ok, detail = verify.check_series_Rq(order=order)
    assert not ok
    assert "n=5:" in detail


def test_F_dual_names_the_bumped_row(monkeypatch):
    order = 12
    original = families.polyseq

    def bumped(name, max_n):
        seq = original(name, max_n)
        if name != "Fpoly" or seq.max_n < order:
            return seq
        polys = list(seq.polys)
        top = polys[order].degree
        polys[order] = polys[order] + Poly.from_terms({top: 1})
        return PolySeq(seq.name, seq.min_n, tuple(polys))

    monkeypatch.setattr(families, "polyseq", bumped)
    ok, detail = verify.check_series_F_dual(order=order)
    assert not ok
    assert f"n={order}:" in detail


def test_egf_T_first_rows():
    T = sl.egf_T(3)
    assert T.egf_coefficient(0) == Poly.one()
    assert T.egf_coefficient(2) == Poly([0, 1, 1])
    assert T.egf_coefficient(3) == Poly([0, 1, 3, 2])


def test_egf_T_matches_triangle_12():
    closed, expected = sl.check_egf_T(12)
    assert closed == expected


def test_carlitz_first_coefficients():
    C = sl.egf_carlitz(3)
    assert C.egf_coefficient(0) == Poly.one()
    assert C.egf_coefficient(1) == Poly([2])
    assert C.egf_coefficient(3) == Poly([10, 12, 2])


def test_carlitz_matches_reversed_rows_12():
    closed, expected = sl.check_egf_carlitz(12)
    assert closed == expected


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
    for closed, expected in (
        sl.check_derangement_egf(8),
        sl.check_f_diagonal(8),
        sl.check_d_diagonal(8),
        sl.check_F_dual_at(F(1, 2), 6),
    ):
        assert closed == expected


def test_f_diag_values():
    closed, expected = sl.check_f_diagonal(5)
    assert closed == expected
    assert list(closed) == [1, 1, 1, 5, 17, 121]


def test_identity_report_json():
    closed, expected = sl.check_f_diagonal(4)
    assert closed == expected
    assert len(closed) == len(expected) == 5


def test_F_dual_trivial_point():
    closed, expected = sl.check_F_dual_at(0, 8)
    assert closed == expected
    assert list(closed)[1:] == [F(0)] * 8


def test_pde_check():
    assert sl.pde_check(8) is None
    assert sl.pde_check(2) is None
    # row 3 first enters the comparison at n=2, through R_(n+1)
    assert sl.pde_check(8, mutate=(3, 2)) == 2


def test_theta_examples():
    disc = RatFunc(Poly([1, 1]), Poly([1, -1]))
    assert sl.theta_power_r(0) == QuadExt.radical(disc)
    t1 = sl.theta_power_r(1)
    assert t1 == QuadExt(0, RatFunc(Poly([0, 1]), Poly([1, 0, -1])), disc)
    t2 = sl.theta_power_r(2)
    expected_rad = RatFunc(Poly([0, 1, 1, 1])) / RatFunc(Poly([1, 0, -1])) ** 2
    assert t2 == QuadExt(0, expected_rad, disc)


def test_theta_range():
    assert sl.theta_check(10) is None


def test_theta_field_route_is_an_oracle():
    for n in range(11):
        assert sl.theta_power_r(n) == sl.theta_expected(n)
    for m in range(5):
        assert sl.theta_expected_odd_form(m) == sl.theta_expected(2 * m + 1)


@pytest.mark.parametrize("name, mutant", [
    # the step without its -n w' P term
    ("_theta_step", lambda p, n, u, w: (u * p + w * p.derivative()).shift(1)),
    # r^2 = (1+x)/(1-x)^2 in place of (1+x)/(1-x)
    ("_DISC_R", RatFunc(Poly([1, 1]), Poly([1, -1]) ** 2)),
])
def test_theta_check_rejects_a_mutant(monkeypatch, name, mutant):
    monkeypatch.setattr(sl, name, mutant)
    assert sl.theta_check(10) is not None


# The closed forms of T and Carlitz's EGF as they were computed over the field
# Q(x)[rho]: every RatFunc operation gcd-reduced, and every rho part asserted
# to cancel at the end.  An independent route to the same rows; its sin and
# cos are the signed odd and even terms of exp(rho z).


def _signed_terms(series, parity):
    zero = series.egf[0] * 0
    return sl.Series(
        tuple(
            (-a if n // 2 % 2 else a) if n % 2 == parity else zero
            for n, a in enumerate(series.egf)
        ),
        series.order,
    )


def _field_rows(series):
    assert all(c.rad.is_zero() and c.base.is_polynomial() for c in series.egf)
    return sl.Series(tuple(c.base.num for c in series.egf), series.order)


def _field_egf_T(order):
    x = QuadExt(RatFunc.x(), 0, _DISC_RHO)
    rho = QuadExt.radical(_DISC_RHO)
    e1 = sl.exp_cz(rho, order)
    e2 = sl.exp_cz(rho * 2, order)
    num = (1 - x) * (1 + rho + (2 * x) * e1 + (1 - rho) * e2)
    den = (1 + rho - x * x) + (1 - rho - x * x) * e2
    return _field_rows(num / den)


def _field_egf_carlitz(order):
    x = QuadExt(RatFunc.x(), 0, _DISC_RHO)
    rho = QuadExt.radical(_DISC_RHO)
    e = sl.exp_cz(rho, order)
    quot = (rho + _signed_terms(e, 1)) / (x - _signed_terms(e, 0))
    ratio = (1 - x) / (1 + x)
    return _field_rows(ratio * quot * quot)


@pytest.mark.parametrize("order", [*range(13), 18, 24])
def test_closed_forms_equal_the_field_route(order):
    assert sl.egf_T(order) == _field_egf_T(order)
    assert sl.egf_carlitz(order) == _field_egf_carlitz(order)


@pytest.mark.parametrize("w", [Poly([1, 0, -1]), Poly([-1, 0, 1])])
def test_even_odd_parts_satisfy_cosh_squared_minus_sinh_squared(w):
    c, s = sl._even_odd(w, 18)
    assert c * c - s * s * w == sl.Series.make([Poly.one()], 18)


@pytest.mark.parametrize("c", [1, -1, 2, F(1, 2), Poly.x()])
def test_sin_and_cos_are_the_signed_terms_of_exp(c):
    e = sl.exp_cz(c, 9)
    assert sl.sin_cz(c, 9) == _signed_terms(e, 1)
    assert sl.cos_cz(c, 9) == _signed_terms(e, 0)


# The arguments before `order` of each series builder.
_LEADING_ARGS = {
    "exp_cz": (1,), "_even_odd": (Poly.x(),), "sin_cz": (1,), "cos_cz": (1,),
    "egf_T": (), "egf_carlitz": (), "egf_R": (), "egf_Rq": (2,), "egf_f": (),
    "egf_derangement": (),
}


@pytest.mark.parametrize("name", sorted(_LEADING_ARGS))
def test_a_negative_order_is_a_value_error(name):
    with pytest.raises(ValueError, match="^truncation order -1 is negative$"):
        getattr(sl, name)(*_LEADING_ARGS[name], -1)


@pytest.mark.parametrize("order", [-1, 0, 1, 2])
def test_series_suite_at_small_orders_is_unchanged(order):
    # Stored from the tree that computed egf_T and egf_carlitz over Q(x)[rho].
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["verify", "--suite", "series", "--order", str(order)])
    stored = GOLDEN_DIR / f"verify-series-order{order}.json"
    assert buf.getvalue().encode("utf-8") == stored.read_bytes()


# Closed-form mutants: each must fail its check, through exact division
# over Q[x] or by a mismatch with the triangle rows.


def _mutant_T(numerator_x=1, den_sign=-1, w=Poly([1, 0, -1])):
    def egf_T(order):
        x = Poly.x()
        c, s = sl._even_odd(w, order)
        return (c + numerator_x * x - s * (1 - x * x)) / ((c + den_sign * s) * (1 + x))

    return egf_T


def _mutant_carlitz(factor=Poly([1, -1]), extra=Poly()):
    def egf_carlitz(order):
        x = Poly.x()
        c, s = sl._even_odd(x * x - 1, order)
        top = (s + 1) * factor
        bottom = c - x
        return (top * top) / (bottom * bottom * sl.exp_cz(extra, order))

    return egf_carlitz


_X4 = Poly([0, 0, 0, 0, 1])


@pytest.mark.parametrize(
    "name, mutant, check_id, detail",
    [
        # x -> 2x in the numerator: 1 + 2x at z = 0, not a multiple of 1 + x
        ("egf_T", _mutant_T(numerator_x=2), "series/egf-T",
         "NotDivisible: coefficient 0: remainder -1 dividing 1 + 2*x by 1 + x"),
        # C - S -> C + S in the denominator: divides, and is wrong from n = 1
        ("egf_T", _mutant_T(den_sign=1), "series/egf-T", "mismatch at n=1: -2 + x vs x"),
        # C and S at w = 1 + x^2 in place of 1 - x^2: inexact from n = 2
        ("egf_T", _mutant_T(w=Poly([1, 0, 1])), "series/egf-T",
         "NotDivisible: coefficient 2: remainder 2 dividing x + 2*x^2 - x^3 by 1 + x"),
        # Carlitz with (1-x) -> (1+x): (1+x)^2/(1-x)^2 at z = 0
        ("egf_carlitz", _mutant_carlitz(factor=Poly([1, 1])), "series/egf-carlitz",
         "NotDivisible: coefficient 0: remainder 4*x dividing 1 + 2*x + x^2 by 1 - 2*x + x^2"),
        # an extra factor exp(x^4 z) in the denominator divides, and is wrong
        ("egf_carlitz", _mutant_carlitz(extra=_X4), "series/egf-carlitz",
         "mismatch at n=1: 2 - x^4 vs 2"),
    ],
)
def test_closed_form_mutants_fail_their_check(monkeypatch, name, mutant, check_id, detail):
    monkeypatch.setattr(sl, name, mutant)
    sl.egf_R.cache_clear()
    try:
        report = verify.run_suite("series", order=12)
    finally:
        sl.egf_R.cache_clear()
    results = {c.check_id: c for c in report.checks}
    assert not results[check_id].ok
    assert results[check_id].detail.startswith(detail)
    assert results["series/f-diagonal"].ok


def test_scale_z():
    s = make([1, 1, 1], order=2).scale_z(F(2))
    assert s.coeffs == (F(1), F(2), F(4))
