"""Recurrence triangles and polynomial sequences against frozen values."""

from fractions import Fraction
from math import comb

import pytest

from altrun import enumeration, families
from altrun.errors import UnknownFamily
from altrun.families import (
    Triangle,
    eulerian,
    export_bfile,
    export_csv,
    export_json,
    inclusion_exclusion_Rxy,
    polyseq,
    q_specialize,
    triangle,
)
from altrun.multipoly import MultiPoly
from altrun.polys import Poly
from altrun import verify


def test_R_rows():
    tri = triangle("R", 4)
    assert tri.min_n == 1
    assert tri.row(1) == (1,)
    assert tri.row(2) == (0, 2)
    assert tri.row(3) == (0, 2, 4)
    assert tri.row(4) == (0, 2, 12, 10)


def test_T_rows():
    tri = triangle("T", 3)
    assert tri.row(0) == (1,)
    assert tri.row(3) == (0, 1, 3, 2)


def test_Rq_rows_match_paper_list():
    tri = triangle("Rq", 3)
    q = Poly.x()
    assert tri.row(0) == (Poly.one(),)
    assert tri.row(1) == (Poly.zero(), q)
    assert tri.row(2) == (Poly.zero(), q, q * q)
    assert tri.row(3) == (Poly.zero(), q, 3 * q * q, q + q**3)


def test_gamma_diagonal_entry():
    assert triangle("gamma", 4).entry(4, 4) == -15


def test_f_rows():
    tri = triangle("f", 5)
    assert tri.row(2) == (0, 1, 1)
    assert tri.row(3) == (0, 1, 3, 5)
    # diagonal continues 17, 121
    assert tri.entry(4, 4) == 17
    assert tri.entry(5, 5) == 121


def test_F_rows():
    tri = triangle("F", 4)
    assert tri.row(2) == (0, 1, 1, 1)
    assert tri.row(3) == (0, 1, 3, 7, 3, 1)
    assert tri.row(4) == (0, 1, 7, 29, 31, 29, 7, 1)


def test_a_and_b_rows():
    assert triangle("a", 3).row(3) == (0, 1, 2)
    assert triangle("b", 2).row(2) == (1, 4)


def test_triangle_unknown():
    with pytest.raises(UnknownFamily):
        triangle("zzz", 3)


def test_Rq_rows_match_Poly_arithmetic_on_the_spec():
    """The coefficient-list kernel against the recurrence in `Poly` arithmetic."""
    spec = families._TRIANGLES["Rq"]
    q = Poly.x()

    def coeff(triples, n, k):  # sum_j q^j (c0 + cn*n + ck*k)
        terms = (q**j * (c0 + cn * n + ck * k) for j, (c0, cn, ck) in enumerate(triples))
        return sum(terms, Poly.zero())

    coeffs = (spec.coeff_a, spec.coeff_b, spec.coeff_c)  # of prev[k - shift]
    p, r, d = spec.k_max
    rows = [spec.first_row]
    for n in range(1, 31):
        prev = rows[-1]
        rows.append(tuple(
            sum(
                (coeff(triples, n, k) * prev[k - shift]
                 for shift, triples in enumerate(coeffs) if 0 <= k - shift < len(prev)),
                Poly.zero(),
            )
            for k in range(max((p * n + r) // d, 0) + 1)
        ))
    assert triangle("Rq", 30).rows == tuple(rows)


def _three_term_rows(first_n, last_n, a, b, c):
    """Rows first_n..last_n of row[n][k] = a(n,k) prev[k] + b(n,k) prev[k-1]
    + c(n,k) prev[k-2], k = 0..n - first_n, from the row (1,)."""
    rows = [(1,)]
    for n in range(first_n + 1, last_n + 1):
        prev = (0, 0) + rows[-1] + (0,)  # prev[k] at index k + 2
        rows.append(tuple(
            a(n, k) * prev[k + 2] + b(n, k) * prev[k + 1] + c(n, k) * prev[k]
            for k in range(n - first_n + 1)
        ))
    return tuple(rows)


def test_R_and_T_are_the_Rq_recurrence_specialized():
    """R is Rq at q = 2 with n shifted by one, T is Rq at q = 1, and both
    are the classical recurrences, written out here."""
    rq = families._TRIANGLES["Rq"]
    assert families._TRIANGLES["R"] == families._specialize(rq, 2, 1)
    assert families._TRIANGLES["T"] == families._specialize(rq, 1, 0)
    assert families._TRIANGLES["R"] == families._TriangleSpec(
        1, (1,), (1, -1, 1), ((0, 0, 1),), ((2, 0, 0),), ((0, 1, -1),)
    )
    assert families._TRIANGLES["T"] == families._TriangleSpec(
        0, (1,), (1, 0, 1), ((0, 0, 1),), ((1, 0, 0),), ((1, 1, -1),)
    )
    r_rows = _three_term_rows(1, 30, lambda n, k: k, lambda n, k: 2, lambda n, k: n - k)
    t_rows = _three_term_rows(0, 30, lambda n, k: k, lambda n, k: 1, lambda n, k: n - k + 1)
    assert triangle("R", 30).rows == r_rows
    assert triangle("T", 30).rows == t_rows


@pytest.mark.parametrize("name", [n for n in families.TRIANGLE_FAMILIES if n != "Rq"])
def test_the_two_kernels_agree_on_every_integer_family(name):
    """With its first row as constant `Poly`s, an integer family's spec runs
    through the coefficient-list kernel and gives the integer kernel's rows,
    as constants."""
    spec = families._TRIANGLES[name]
    over_q = spec._replace(first_row=tuple(map(Poly.constant, spec.first_row)))
    rows = [over_q.first_row]
    for n in range(spec.min_n + 1, 31):
        rows.append(families._next_row(over_q, n, rows))
    int_rows = triangle(name, 30).rows
    assert all(type(entry) is int for row in int_rows for entry in row)
    assert all(type(entry) is Poly for row in rows for entry in row)
    assert rows == [tuple(map(Poly.constant, row)) for row in int_rows]


def test_Rq_next_row_accepts_int_entries():
    """An int entry steps as the constant polynomial, and the step gives Polys."""
    for n, ints in ((1, (1,)), (3, (0, 2, 4)), (5, (3, 0, -1, 7, 2))):
        step = families.next_row("Rq", n, ints)
        assert step == families.next_row("Rq", n, tuple(map(Poly.constant, ints)))
        assert all(type(entry) is Poly for entry in step)
    assert families.next_row("Rq", 1, (1,)) == triangle("Rq", 1).row(1)


def test_family_errors():
    with pytest.raises(ValueError, match="family 'R' starts at row 1"):
        triangle("R", 0)
    with pytest.raises(ValueError, match="family 'cpoly' starts at index 1"):
        polyseq("cpoly", 0)
    with pytest.raises(UnknownFamily):
        polyseq("zzz", 3)


def test_row_store_extends_from_the_last_row(monkeypatch):
    monkeypatch.setattr(families, "_TRIANGLE_ROWS", {})
    computed = []
    real_next_row = families._next_row

    def counting_next_row(spec, n, rows):
        computed.append(n)
        return real_next_row(spec, n, rows)

    monkeypatch.setattr(families, "_next_row", counting_next_row)
    small, mid, big = triangle("R", 6), triangle("R", 3), triangle("R", 9)
    assert computed == list(range(2, 10))  # each row once, in order
    assert (small.max_n, mid.max_n, big.max_n) == (6, 3, 9)
    assert big.rows[:6] == small.rows and big.rows[:3] == mid.rows
    monkeypatch.setattr(families, "_TRIANGLE_ROWS", {})
    assert triangle("R", 9) == big


def test_polyseq_store_matches_a_fresh_computation(monkeypatch):
    for name in families.POLY_FAMILIES:
        monkeypatch.setattr(families, "_POLYSEQ_POLYS", {})
        pieces = [polyseq(name, n) for n in (1, 4, 2, 7)]
        monkeypatch.setattr(families, "_POLYSEQ_POLYS", {})
        fresh = polyseq(name, 7)
        for piece in pieces:
            assert piece.polys == fresh.polys[: len(piece.polys)]
            assert piece.min_n == fresh.min_n


def test_dpoly():
    seq = polyseq("dpoly", 3)
    assert seq.poly(0) == Poly.one()
    assert seq.poly(1) == Poly.zero()
    assert seq.poly(2) == Poly.x()
    assert seq.poly(3) == Poly([0, 1, 0, 1])
    assert seq.poly(3).evaluate(-1) == -2


def test_gammapoly():
    assert polyseq("gammapoly", 3).poly(3) == Poly([0, 1, -1, 3])


def test_Fpoly():
    seq = polyseq("Fpoly", 4)
    assert seq.poly(1) == Poly.x()
    assert seq.poly(2) == Poly([0, 1, 1, 1])
    assert seq.poly(3) == Poly([0, 1, 3, 7, 3, 1])
    assert seq.poly(4) == Poly([0, 1, 7, 29, 31, 29, 7, 1])


def test_bpoly_cpoly():
    assert polyseq("bpoly", 2).poly(2) == Poly([1, 4, 3])
    assert polyseq("cpoly", 2).poly(2) == Poly([0, 1, 3])


def test_q_specialize():
    tri = triangle("Rq", 2)
    assert q_specialize(tri.row(2), 1) == Poly([0, 1, 1])
    assert q_specialize(tri.row(2), 2) == Poly([0, 2, 4])
    assert q_specialize(tri.row(0), Fraction(7, 3)) == Poly.one()


def test_q_specializations_match_T_and_R():
    rq = triangle("Rq", 8)
    t = triangle("T", 8)
    r = triangle("R", 9)
    for n in range(9):
        assert q_specialize(rq.row(n), 1) == t.row_poly(n)
        assert q_specialize(rq.row(n), 2) == r.row_poly(n + 1)


_XYQ = ("x", "y", "q")


def test_inclusion_exclusion_at_y_zero_gives_derangements():
    d = polyseq("dpoly", 3)
    for n in (0, 2, 3):
        at_y0 = inclusion_exclusion_Rxy(n).substitute({"y": 0, "q": 1}, _XYQ)
        assert at_y0 == MultiPoly(_XYQ, {(k, 0, 0): c for k, c in enumerate(d.poly(n).coeffs)})


def test_inclusion_exclusion_at_y_one_gives_Rq():
    rq = triangle("Rq", 5)
    for n in range(6):
        at_y1 = inclusion_exclusion_Rxy(n).substitute({"y": 1}, _XYQ)
        assert at_y1 == rq.row_multipoly(n).extended(_XYQ)


def test_inclusion_exclusion_at_q0_is_the_scalar_binomial_sum():
    rq = triangle("Rq", 6)
    x, y = MultiPoly.variable(("x", "y"), "x"), MultiPoly.variable(("x", "y"), "y")
    for q0 in (1, 2, Fraction(1, 2), Fraction(5, 7)):
        step = q0 * x * (y - 1)
        for n in range(7):
            binomial_sum = MultiPoly.zero(("x", "y"))
            for i in range(n + 1):
                r_coeffs = q_specialize(rq.row(n - i), q0).coeffs
                r = MultiPoly(("x", "y"), {(k, 0): c for k, c in enumerate(r_coeffs)})
                binomial_sum = binomial_sum + comb(n, i) * step**i * r
            at_q0 = inclusion_exclusion_Rxy(n).substitute({"q": q0}, _XYQ)
            assert at_q0 == binomial_sum.extended(_XYQ)


def test_inclusion_exclusion_trivial():
    assert inclusion_exclusion_Rxy(0) == MultiPoly.constant(_XYQ, 1)


def test_eulerian_values():
    assert eulerian(1, "A") == Poly.x()
    assert eulerian(2, "A") == Poly([0, 1, 1])
    assert eulerian(2, "B") == Poly([1, 6, 1])


def test_eulerian_matches_descent_enumeration():
    for n in range(1, 6):
        des = enumeration.distribution("perm", n, [("des", "x")]).as_poly("x")
        assert eulerian(n, "A") == des * Poly.x()
    for n in range(1, 5):
        des_b = enumeration.distribution("signed", n, [("des_B", "x")]).as_poly("x")
        assert eulerian(n, "B") == des_b


def test_exports():
    tri = triangle("R", 1)
    bfile = export_bfile(tri)
    lines = bfile.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "1 0 1"

    csv_text = export_csv(triangle("T", 1))
    assert csv_text.splitlines() == ["n,k,value", "0,0,1", "1,0,0", "1,1,1"]

    import json

    obj = json.loads(export_json(triangle("Rq", 1)))
    assert obj["family"] == "Rq"
    assert obj["rows"]["1"] == ["0", "q"]


def test_triangle_entry_outside_is_zero():
    tri = triangle("T", 2)
    assert tri.entry(1, 5) == 0
    assert tri.entry(-1, 0) == 0


def test_Fpoly_and_gammapoly_follow_the_paper_operators():
    """F_(m+1) = (x+2mx^2)F_m + (x-x^3)F_m' and g_(m+1) = (2m+1)x g_m + (x-4x^2)g_m'.

    The sequences are the row polynomials of the F and gamma triangles; the
    paper states their recurrences in this operator form.
    """
    F_seq, g_seq = polyseq("Fpoly", 40), polyseq("gammapoly", 40)
    F, g = Poly.one(), Poly.one()
    for m in range(41):
        assert F_seq.poly(m) == F
        assert g_seq.poly(m) == g
        F = Poly([0, 1, 2 * m]) * F + Poly([0, 1, 0, -1]) * F.derivative()
        g = (2 * m + 1) * Poly.x() * g + Poly([0, 1, -4]) * g.derivative()


def test_R_rows_log_concave():
    # not a contract, but a cheap sanity check on the run triangle
    tri = triangle("R", 12)
    for n in range(1, 13):
        row = tri.row(n)
        for k in range(1, len(row) - 1):
            assert row[k] ** 2 >= row[k - 1] * row[k + 1]


def test_identity_suite_functions():
    assert verify.check_row_sums(8)[0]
    assert verify.check_T_from_R(8)[0]
    assert verify.check_Rq_parity(8)[0]
    assert verify.check_d_at_minus_one(8)[0]
    assert verify.check_gamma_diagonal(8)[0]
    assert verify.check_f_nonnegative(20)[0]
    assert verify.check_b_two_routes(8)[0]
    assert verify.check_c_from_b(8)[0]
    assert verify.check_F_two_reassemblies(8)[0]
    assert verify.check_leibniz_convolution(8)[0]
