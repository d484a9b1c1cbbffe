"""Cross-verification suites: every identity checkable by two routes.

Each check compares two independent computations (recurrence triangle vs
brute-force enumeration, grammar image vs triangle, closed-form EGF vs
triangle, surd identity vs weighted assembly, ...) and reports one
pass/fail line.  Suites group the checks the way the acceptance criteria
do; `run_suite("all")` runs everything.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

from . import enumeration, families, gammalab, grammar, serieslab
from .multipoly import MultiPoly
from .polys import Poly, root_multiplicity

SUITES = (
    "grammar",
    "triangles",
    "enumeration",
    "davidbarton",
    "series",
    "gamma",
)


@dataclass
class CheckResult:
    check_id: str
    params: dict
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "pass": self.ok,
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> str:
        ordered = sorted(self.checks, key=lambda c: c.check_id)
        return json.dumps(
            {
                "suite": self.suite,
                "checks": [c.to_dict() for c in ordered],
                "overall": self.overall,
            },
            indent=2,
        )


def _cap(stated: int, max_n: int | None) -> int:
    return stated if max_n is None else min(stated, max_n)


def _passed(lo: int, hi: int, what: str) -> tuple[bool, str]:
    """The result of a check whose loop over n=lo..hi found no mismatch.

    An empty range compared nothing, so it fails instead of passing.
    """
    if hi < lo:
        return False, f"empty range n={lo}..{hi}, nothing checked: {what}"
    return True, f"{what} for n={lo}..{hi}"


# ---------------------------------------------------------------------------
# enumeration suite: triangle rows against brute-force distributions
# ---------------------------------------------------------------------------


def check_altrun_vs_R(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(8, max_n)
    tri = families.triangle("R", hi)
    for n in range(1, hi + 1):
        dist = enumeration.distribution("perm", n, [("altrun", "x")]).as_poly("x")
        if dist != tri.row_poly(n):
            return False, f"mismatch at n={n}: {dist} vs {tri.row_poly(n)}"
    return _passed(1, hi, "altrun distribution equals R row")


def check_udrun_vs_T(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(8, max_n)
    tri = families.triangle("T", hi)
    for n in range(1, hi + 1):
        dist = enumeration.distribution("perm", n, [("udrun", "x")]).as_poly("x")
        if dist != tri.row_poly(n):
            return False, f"mismatch at n={n}"
    return _passed(1, hi, "udrun distribution equals T row")


def check_crun_cyc_vs_Rq(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(8, max_n)
    tri = families.triangle("Rq", hi)
    for n in range(1, hi + 1):
        dist = enumeration.distribution("perm", n, [("crun", "x"), ("cyc", "q")])
        if dist != tri.row_multipoly(n, "x", "q"):
            return False, f"mismatch at n={n}"
    return _passed(1, hi, "(crun, cyc) distribution equals Rq row")


def check_derangement_crun_vs_d(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(9, max_n)
    seq = families.polyseq("dpoly", hi)
    for n in range(1, hi + 1):
        dist = enumeration.distribution("derangement", n, [("crun", "x")]).as_poly("x")
        if dist != seq.poly(n):
            return False, f"mismatch at n={n}"
    return _passed(1, hi, "derangement crun equals d_n")


def check_stirling_fap_vs_F(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(7, max_n)
    tri = families.triangle("F", hi)
    for n in range(1, hi + 1):
        dist = enumeration.distribution("stirling", n, [("fap", "x")]).as_poly("x")
        if dist != tri.row_poly(n):
            return False, f"mismatch at n={n}"
    return _passed(1, hi, "Stirling fap distribution equals F row")


def check_dual_stirling_altrun_vs_F(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(7, max_n)
    tri = families.triangle("F", hi)
    for n in range(1, hi + 1):
        dist = enumeration.distribution(
            "dual_stirling", n, [("altrun", "x")]
        ).as_poly("x")
        if dist != tri.row_poly(n):
            return False, f"mismatch at n={n}"
    return _passed(1, hi, "dual-Stirling altrun equals F row")


def check_signed_desB_vs_B(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(6, max_n)
    for n in range(1, hi + 1):
        dist = enumeration.distribution("signed", n, [("des_B", "x")]).as_poly("x")
        if dist != families.eulerian(n, "B"):
            return False, f"mismatch at n={n}"
    return _passed(1, hi, "signed des_B equals B_n")


def check_signed_hat_altrunB_vs_c(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(6, max_n)
    seq = families.polyseq("cpoly", hi)
    for n in range(1, hi + 1):
        dist = enumeration.distribution(
            "signed_hat", n, [("altrun_B", "x")]
        ).as_poly("x")
        if dist != seq.poly(n):
            return False, f"mismatch at n={n}"
    return _passed(1, hi, "signed-hat altrun equals c_n")


# ---------------------------------------------------------------------------
# grammar suite
# ---------------------------------------------------------------------------


def check_updown_grammar(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g = grammar.named_grammar("updown")
    t_tri = families.triangle("T", hi)
    r_tri = families.triangle("R", hi + 1)
    image_a = g.letter("a")
    image_a2 = g.letter("a") ** 2
    for n in range(hi + 1):
        row_t = grammar.entries_as_fractions(
            grammar.extract_row(image_a, "a", "b", "c", n)
        )
        if list(row_t) != [Fraction(t_tri.entry(n, k)) for k in range(n + 1)]:
            return False, f"D^{n}(a) does not match T row {n}"
        row_r = grammar.entries_as_fractions(
            grammar.extract_row(image_a2, g.letter("a") ** 2, "b", "c", n)
        )
        if list(row_r) != [Fraction(r_tri.entry(n + 1, k)) for k in range(n + 1)]:
            return False, f"D^{n}(a^2) does not match R row {n + 1}"
        image_a = g.derive(image_a)
        image_a2 = g.derive(image_a2)
    return _passed(0, hi, "seed a gives T rows and seed a^2 gives R rows")


def check_doubled_grammar(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g = grammar.named_grammar("doubled")
    r_tri = families.triangle("R", hi + 1)
    image = g.letter("a")
    for n in range(hi + 1):
        row = grammar.entries_as_fractions(
            grammar.extract_row(image, "a", "b", "c", n)
        )
        if list(row) != [Fraction(r_tri.entry(n + 1, k)) for k in range(n + 1)]:
            return False, f"D^{n}(a) does not match R row {n + 1}"
        image = g.derive(image)
    return _passed(0, hi, "doubled grammar matches R rows")


def check_qrun_triangle(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g = grammar.named_grammar("qrun")
    tri = families.triangle("Rq", hi)
    image = g.letter("a")
    for n in range(hi + 1):
        row = grammar.entries_as_polys(
            grammar.extract_row(image, "a", "b", "c", n), "q"
        )
        expected = [tri.entry(n, k) for k in range(n + 1)]
        expected = [e if isinstance(e, Poly) else Poly.constant(e) for e in expected]
        if row != expected:
            return False, f"D^{n}(a) does not match Rq row {n}"
        image = g.derive(image)
    return _passed(0, hi, "q-run images match the q-triangle")


def check_qrun_recurrence(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g = grammar.named_grammar("qrun")
    q = Poly.x()
    rows = []
    image = g.letter("a")
    for n in range(hi + 1):
        rows.append(
            grammar.entries_as_polys(grammar.extract_row(image, "a", "b", "c", n), "q")
        )
        image = g.derive(image)

    def entry(n, k):
        if 0 <= n < len(rows) and 0 <= k < len(rows[n]):
            return rows[n][k]
        return Poly.zero()

    for n in range(hi):
        for k in range(n + 2):
            expected = (
                k * entry(n, k)
                + q * entry(n, k - 1)
                + (n - k + 2) * entry(n, k - 2)
            )
            if entry(n + 1, k) != expected:
                return False, f"recurrence fails at (n+1,k)=({n + 1},{k})"
    return _passed(0, hi, "extracted entries satisfy the q-recurrence")


def check_plateau_triangle(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g = grammar.named_grammar("plateau")
    tri = families.triangle("F", hi)
    image = g.letter("x")
    for n in range(hi + 1):
        row = grammar.entries_as_fractions(
            grammar.extract_row(
                image, "x", "y", "z", 2 * n, co_exponent=lambda k: 2 * n - k
            )
        )
        if any(row[k] != tri.entry(n, k) for k in range(2 * n + 1)):
            return False, f"D^{n}(x) does not match F row {n}"
        image = g.derive(image)
    return _passed(0, hi, "plateau-grammar images match the F triangle")


def check_gammavec_triangle(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g = grammar.named_grammar("gammavec")
    tri = families.triangle("gamma", hi)
    image = g.letter("x")
    for n in range(hi + 1):
        row = grammar.entries_as_fractions(
            grammar.extract_row(
                image, "x", "a", "b", n, co_exponent=lambda k: 2 * n - 2 * k
            )
        )
        if any(row[k] != tri.entry(n, k) for k in range(n + 1)):
            return False, f"D^{n}(x) does not match gamma row {n}"
        image = g.derive(image)
    return _passed(0, hi, "gamma-grammar images match the gamma triangle")


def check_halfgamma_triangle(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g = grammar.named_grammar("halfgamma")
    tri = families.triangle("f", hi)
    image = g.letter("x")
    for n in range(hi + 1):
        row = grammar.entries_as_fractions(
            grammar.extract_row(image, "x", "u", "v", n)
        )
        if any(row[k] != tri.entry(n, k) for k in range(n + 1)):
            return False, f"D^{n}(x) does not match f row {n}"
        image = g.derive(image)
    return _passed(0, hi, "half-gamma images match the f triangle")


def check_gammavec_substitution(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g2 = grammar.named_grammar("plateau")
    g3 = grammar.named_grammar("gammavec")
    target = g2.alphabet  # (x, y, z)
    y = MultiPoly.variable(target, "y")
    z = MultiPoly.variable(target, "z")
    images = {"a": y * z, "b": y + z}
    im2 = g2.letter("x")
    im3 = g3.letter("x")
    for n in range(hi + 1):
        if im3.substitute(images, target) != im2:
            return False, f"substituted gamma-grammar image differs at n={n}"
        im2 = g2.derive(im2)
        im3 = g3.derive(im3)
    return _passed(0, hi, "a=yz, b=y+z carries the gamma grammar onto the plateau grammar")


def check_halfgamma_substitution(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g2 = grammar.named_grammar("plateau")
    g4 = grammar.named_grammar("halfgamma")
    target = g2.alphabet
    y = MultiPoly.variable(target, "y")
    z = MultiPoly.variable(target, "z")
    images = {"u": y * z, "v": y * y + z * z}
    im2 = g2.letter("x")
    im4 = g4.letter("x")
    for n in range(hi + 1):
        if im4.substitute(images, target) != im2:
            return False, f"substituted half-gamma image differs at n={n}"
        im2 = g2.derive(im2)
        im4 = g4.derive(im4)
    return _passed(0, hi, "u=yz, v=y^2+z^2 carries the half-gamma grammar onto the plateau grammar")


def check_qrun_to_halfgamma_morphism(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    g1 = grammar.named_grammar("qrun")
    g4 = grammar.named_grammar("halfgamma")
    target = g4.alphabet  # (x, u, v)
    u = MultiPoly.variable(target, "u")
    images = {
        "q": Fraction(1, 2),
        "a": MultiPoly.variable(target, "x"),
        "b": 2 * u,
        "c": MultiPoly.variable(target, "v"),
    }
    im1 = g1.letter("a")
    im4 = g4.letter("x")
    for n in range(hi + 1):
        if im1.substitute(images, target) != im4:
            return False, f"specialized q-run image differs at n={n}"
        im1 = g1.derive(im1)
        im4 = g4.derive(im4)
    return _passed(0, hi, "q=1/2, a=x, b=2u, c=v carries the q-run grammar onto the half-gamma grammar")


def check_leibniz_convolution(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    t_tri = families.triangle("T", hi)
    r_tri = families.triangle("R", hi + 1)
    for n in range(hi + 1):
        total = Poly.zero()
        for k in range(n + 1):
            total = total + comb(n, k) * t_tri.row_poly(k) * t_tri.row_poly(n - k)
        if total != r_tri.row_poly(n + 1):
            return False, f"convolution fails at n={n}"
    return _passed(0, hi, "R_(n+1) = sum C(n,k) T_k T_(n-k)")


def check_extraction_convolution(max_n: int | None = None) -> tuple[bool, str]:
    """Rows read off D^n(a^2) agree with the Leibniz convolution of T rows."""
    hi = _cap(10, max_n)
    g = grammar.named_grammar("updown")
    t_tri = families.triangle("T", hi)
    image = g.letter("a") ** 2
    for n in range(hi + 1):
        entries = grammar.entries_as_fractions(
            grammar.extract_row(image, g.letter("a") ** 2, "b", "c", n)
        )
        extracted = Poly(entries)
        total = Poly.zero()
        for k in range(n + 1):
            total = total + comb(n, k) * t_tri.row_poly(k) * t_tri.row_poly(n - k)
        if extracted != total:
            return False, f"extraction and convolution disagree at n={n}"
        image = g.derive(image)
    return _passed(0, hi, "D^n(a^2) rows equal the T convolution")


# ---------------------------------------------------------------------------
# triangles / identity suite
# ---------------------------------------------------------------------------


def check_row_sums(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    r_tri = families.triangle("R", hi)
    t_tri = families.triangle("T", hi)
    rq_tri = families.triangle("Rq", hi)
    fact = 1
    for n in range(1, hi + 1):
        fact *= n
        if sum(r_tri.row(n)) != fact or sum(t_tri.row(n)) != fact:
            return False, f"row sum fails at n={n}"
        if families.q_specialize(rq_tri.row(n), 1).evaluate(1) != fact:
            return False, f"Rq mass fails at n={n}"
    return _passed(1, hi, "R, T, Rq rows all have mass n!")


def check_T_from_R(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    r_tri = families.triangle("R", hi)
    t_tri = families.triangle("T", hi)
    one_x = Poly([1, 1])
    for n in range(2, hi + 1):
        if 2 * t_tri.row_poly(n) != one_x * r_tri.row_poly(n):
            return False, f"T_n = (1+x)R_n/2 fails at n={n}"
    return _passed(2, hi, "T_n = (1+x) R_n / 2")


def check_root_multiplicity(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    tri = families.triangle("R", hi)
    for n in range(2, hi + 1):
        m = root_multiplicity(tri.row_poly(n), Fraction(-1))
        if m != n // 2 - 1:
            return False, f"multiplicity {m} != {n // 2 - 1} at n={n}"
    return _passed(2, hi, "x=-1 has multiplicity floor(n/2)-1 in R_n")


def check_Rq_parity(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    tri = families.triangle("Rq", hi)
    for n in range(hi + 1):
        row = tri.row_multipoly(n, "x", "q")
        alphabet = row.alphabet
        neg_q = row.substitute(
            {"q": -MultiPoly.variable(alphabet, "q")}, alphabet
        )
        neg_x = row.substitute(
            {"x": -MultiPoly.variable(alphabet, "x")}, alphabet
        )
        neg_both = neg_q.substitute(
            {"x": -MultiPoly.variable(alphabet, "x")}, alphabet
        )
        if neg_q != neg_x or neg_both != row:
            return False, f"parity symmetry fails at n={n}"
    return _passed(0, hi, "R_n(x;-q) = R_n(-x;q) and R_n(-x;-q) = R_n(x;q)")


def check_d_at_minus_one(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    seq = families.polyseq("dpoly", hi)
    for n in range(1, hi + 1):
        if seq.poly(n).evaluate(-1) != -(n - 1):
            return False, f"d_n(-1) fails at n={n}"
    return _passed(1, hi, "d_n(-1) = -(n-1)")


def check_gamma_diagonal(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    tri = families.triangle("gamma", hi + 1)
    dfact = 1  # (2n-1)!!
    for n in range(1, hi + 1):
        if n > 1:
            dfact *= 2 * n - 1
        if tri.entry(n + 1, n + 1) != (-1) ** n * dfact:
            return False, f"gamma diagonal fails at n={n}"
    return _passed(1, hi, "gamma_(n+1,n+1) = (-1)^n (2n-1)!!")


def check_f_nonnegative(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(40, max_n)
    tri = families.triangle("f", hi)
    for n in range(hi + 1):
        if any(v < 0 for v in tri.row(n)):
            return False, f"negative entry in f row {n}"
    return _passed(0, hi, "all f entries nonnegative")


def check_b_two_routes(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    tri = families.triangle("b", hi)
    seq = families.polyseq("bpoly", hi)
    one_x = Poly([1, 1])
    for n in range(hi + 1):
        assembled = Poly.zero()
        for k, v in enumerate(tri.row(n)):
            assembled = assembled + Fraction(v, 2**k) * Poly.from_terms(
                {k: 1}
            ) * one_x ** (n - k)
        if assembled != seq.poly(n):
            return False, f"b_n routes disagree at n={n}"
    return _passed(0, hi, "triangle assembly equals b recurrence")


def check_c_from_b(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    from .polys import divide_exact

    bseq = families.polyseq("bpoly", hi)
    cseq = families.polyseq("cpoly", hi)
    one_x = Poly([1, 1])
    for n in range(1, hi + 1):
        quotient = divide_exact(Poly.x() * bseq.poly(n), one_x)
        if quotient != cseq.poly(n):
            return False, f"c_n = x b_n/(1+x) fails at n={n}"
    return _passed(1, hi, "c_n = x b_n / (1+x)")


def check_F_two_reassemblies(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    g_tri = families.triangle("gamma", hi)
    f_tri = families.triangle("f", hi)
    seq = families.polyseq("Fpoly", hi)
    one_x = Poly([1, 1])
    one_x2 = Poly([1, 0, 1])
    for n in range(1, hi + 1):
        via_gamma = Poly.zero()
        for k, v in enumerate(g_tri.row(n)):
            via_gamma = via_gamma + v * Poly.from_terms({k: 1}) * one_x ** (
                2 * n - 2 * k
            )
        via_f = Poly.zero()
        for k, v in enumerate(f_tri.row(n)):
            via_f = via_f + v * Poly.from_terms({k: 1}) * one_x2 ** (n - k)
        if via_gamma != seq.poly(n) or via_f != seq.poly(n):
            return False, f"F reassembly fails at n={n}"
    return _passed(1, hi, "gamma and f reassemblies both give F_n")


# ---------------------------------------------------------------------------
# David-Barton suite
# ---------------------------------------------------------------------------


def _a_row_form(n: int) -> gammalab.GammaForm:
    return gammalab.GammaForm(n + 1, families.triangle("a", n).row(n))


def _b_row_form(n: int) -> gammalab.GammaForm:
    return gammalab.GammaForm(n, families.triangle("b", n).row(n))


def _certificate_samples(n_poly: Poly, n: int, delta: int) -> list[Fraction]:
    count = gammalab.certificate_sample_count(n_poly.degree, n, delta)
    return gammalab.default_samples(count)


def check_davidbarton_A_R(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    r_tri = families.triangle("R", hi)
    for n in range(2, hi + 1):
        r_n = r_tri.row_poly(n)
        assembled = gammalab.david_barton_assemble(_a_row_form(n), n, 1)
        if assembled != r_n:
            return False, f"weighted assembly misses R_{n}"
        a_n = families.eulerian(n, "A")
        samples = _certificate_samples(r_n, n, 1)
        if not gammalab.david_barton_identity_check(a_n, r_n, n, 1, samples):
            return False, f"surd identity fails for (A_{n}, R_{n})"
    return _passed(2, hi, "(A_n, R_n, delta=1) certified")


def check_davidbarton_B_b(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    bseq = families.polyseq("bpoly", hi)
    for n in range(1, hi + 1):
        b_n = bseq.poly(n)
        assembled = gammalab.david_barton_assemble(_b_row_form(n), n, 0)
        if assembled != b_n:
            return False, f"weighted assembly misses b_{n}"
        big_b = families.eulerian(n, "B")
        samples = _certificate_samples(b_n, n, 0)
        if not gammalab.david_barton_identity_check(big_b, b_n, n, 0, samples):
            return False, f"surd identity fails for (B_{n}, b_{n})"
    return _passed(1, hi, "(B_n, b_n, delta=0) certified")


def check_davidbarton_mutation(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(10, max_n)
    r_tri = families.triangle("R", hi)
    for n in range(2, hi + 1):
        r_n = r_tri.row_poly(n)
        form = _a_row_form(n)
        for k in range(len(form.gammas)):
            bumped = list(form.gammas)
            bumped[k] += 1
            mutated = gammalab.david_barton_assemble(
                gammalab.GammaForm(form.base_degree, tuple(bumped)), n, 1
            )
            # translate the mutated assembly back through the surd identity:
            # it must no longer certify against the true Eulerian polynomial
            if mutated == r_n:
                return False, f"mutation (n={n}, k={k}) left the assembly fixed"
            a_n = families.eulerian(n, "A")
            # sized for the mutated side: too few samples would reject the
            # pair without evaluating it, and the check would pass vacuously
            samples = _certificate_samples(mutated, n, 1)
            if gammalab.david_barton_identity_check(a_n, mutated, n, 1, samples):
                return False, f"mutated pair still certifies at (n={n}, k={k})"
    return _passed(2, hi, "every single-entry mutation is caught")


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------


def _report_check(report: serieslab.IdentityReport) -> tuple[bool, str]:
    if report.ok:
        return True, f"{report.identity} through order {report.order}"
    return False, f"{report.identity}: {report.first_mismatch}"


def check_series_T(order: int = 12, **_) -> tuple[bool, str]:
    return _report_check(serieslab.check_egf_T(order))


def check_series_carlitz(order: int = 12, **_) -> tuple[bool, str]:
    return _report_check(serieslab.check_egf_carlitz(order))


def check_series_Rq(order: int = 12, **_) -> tuple[bool, str]:
    for q0 in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)):
        report = serieslab.check_egf_Rq(q0, order)
        if not report.ok:
            return _report_check(report)
    return True, f"T^q matches the q-triangle for q in (1, 2, 3, 1/2), order {order}"


def check_series_f(order: int = 12, **_) -> tuple[bool, str]:
    return _report_check(serieslab.check_egf_f(order))


def check_series_derangement(order: int = 12, **_) -> tuple[bool, str]:
    return _report_check(serieslab.check_derangement_egf(order))


def check_series_parity(order: int = 10, **_) -> tuple[bool, str]:
    for q0 in (Fraction(1), Fraction(2), Fraction(1, 2)):
        report = serieslab.check_parity_symmetry(q0, order)
        if not report.ok:
            return _report_check(report)
    return True, f"series-level parity symmetry for q in (1, 2, 1/2), order {order}"


def check_series_inclusion_exclusion(order: int = 8, **_) -> tuple[bool, str]:
    order = min(order, 8)
    for q0 in (Fraction(1), Fraction(2), Fraction(1, 2)):
        report = serieslab.check_inclusion_exclusion(q0, order)
        if not report.ok:
            return _report_check(report)
    return True, f"inclusion-exclusion EGF for q in (1, 2, 1/2), order {order}"


def check_series_pde(order: int = 12, **_) -> tuple[bool, str]:
    if not serieslab.pde_check(order):
        return False, "PDE fails on the true triangle"
    if serieslab.pde_check(order, mutate=(3, 2)):
        return False, "PDE check is insensitive to a mutated entry"
    return True, f"PDE holds through order {order} and rejects a mutated entry"


def check_series_f_diag(order: int = 12, **_) -> tuple[bool, str]:
    return _report_check(serieslab.check_f_diagonal(order))


def check_series_d_diag(order: int = 12, **_) -> tuple[bool, str]:
    return _report_check(serieslab.check_d_diagonal(order))


def check_series_F_dual(order: int = 12, **_) -> tuple[bool, str]:
    for x0 in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        report = serieslab.check_F_dual_at(x0, order)
        if not report.ok:
            return _report_check(report)
    return _report_check(serieslab.check_F_dual_certificate(order))


def check_series_theta(order: int = 10, **_) -> tuple[bool, str]:
    hi = min(order, 10)
    if not serieslab.theta_check(hi):
        return False, "theta-operator identity fails"
    return True, f"theta^n r = r F_n/(1-x^2)^n for n=0..{hi}"


# ---------------------------------------------------------------------------
# gamma suite
# ---------------------------------------------------------------------------


def check_gamma_roundtrip(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    cases = []
    for n in range(1, hi + 1):
        cases.append((families.eulerian(n, "A"), 1, n))
        cases.append((families.eulerian(n, "B"), 0, n))
        cases.append((families.polyseq("Fpoly", hi).poly(n), 1, 2 * n - 1))
    for p, low, high in cases:
        g = gammalab.gamma_expand(p, low, high)
        if g.reassemble().shift(low) != p:
            return False, f"gamma round trip fails on {p}"
        s = gammalab.semi_gamma_expand(p, low, high)
        if s.reassemble().shift(low) != p:
            return False, f"semi-gamma round trip fails on {p}"
    return _passed(1, hi, "round trips on A_n, B_n, F_n")


def check_gamma_to_lambda_random(
    count: int = 200, max_degree: int = 16, **_
) -> tuple[bool, str]:
    rng = random.Random(11)
    for trial in range(count):
        d = rng.randint(0, max_degree)
        full = [Fraction(0)] * (d + 1)
        for i in range(d // 2 + 1):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            full[i] = c
            full[d - i] = c
        p = Poly(full)
        g = gammalab.gamma_expand(p, 0, d)
        via_gamma = gammalab.gamma_to_lambda(g)
        direct = gammalab.semi_gamma_expand(p, 0, d)
        if via_gamma != direct:
            return False, f"trial {trial}: lambda mismatch for {p}"
    return True, f"gamma_to_lambda == semi_gamma_expand on {count} random polynomials"


def check_gamma_positivity_propagation(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    for n in range(1, hi + 1):
        for form in (_a_row_form(n), _b_row_form(n)):
            lam = gammalab.gamma_to_lambda(form)
            if not form.is_positive() or not lam.is_positive():
                return False, f"positivity propagation fails at n={n}"
    return _passed(1, hi, "gamma-positive rows give nonnegative lambdas")


def check_split_halves_gamma_positive(max_n: int | None = None) -> tuple[bool, str]:
    hi = _cap(12, max_n)
    seq = families.polyseq("Fpoly", hi)
    for n in range(1, hi + 1):
        core = Poly(seq.poly(n).coeffs[1:])  # F_n / x
        semi = gammalab.semi_gamma_expand(core, 0, 2 * n - 2)
        g1, g2 = gammalab.split_even_odd(core, semi.nu)
        form1 = gammalab.gamma_expand(g1, 0, n - 1)
        if not form1.is_positive():
            return False, f"even half not gamma-positive at n={n}"
        if n >= 2:
            form2 = gammalab.gamma_expand(g2, 0, n - 2)
            if not form2.is_positive():
                return False, f"odd half not gamma-positive at n={n}"
        # the halves' gamma vectors interleave the semi-gamma lambdas
        if form1.gammas != semi.lambdas[0::2]:
            return False, f"even-half gammas differ from lambda[0::2] at n={n}"
    return _passed(1, hi, "both split halves are gamma-positive")


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

_CHECKS: dict[str, list[tuple[str, Callable]]] = {
    "enumeration": [
        ("enumeration/altrun-vs-R", check_altrun_vs_R),
        ("enumeration/udrun-vs-T", check_udrun_vs_T),
        ("enumeration/crun-cyc-vs-Rq", check_crun_cyc_vs_Rq),
        ("enumeration/derangement-crun-vs-d", check_derangement_crun_vs_d),
        ("enumeration/stirling-fap-vs-F", check_stirling_fap_vs_F),
        ("enumeration/dual-stirling-altrun-vs-F", check_dual_stirling_altrun_vs_F),
        ("enumeration/signed-desB-vs-B", check_signed_desB_vs_B),
        ("enumeration/signed-hat-altrunB-vs-c", check_signed_hat_altrunB_vs_c),
    ],
    "grammar": [
        ("grammar/updown", check_updown_grammar),
        ("grammar/doubled", check_doubled_grammar),
        ("grammar/qrun-triangle", check_qrun_triangle),
        ("grammar/qrun-recurrence", check_qrun_recurrence),
        ("grammar/plateau-F-triangle", check_plateau_triangle),
        ("grammar/gamma-triangle", check_gammavec_triangle),
        ("grammar/halfgamma-f-triangle", check_halfgamma_triangle),
        ("grammar/gamma-substitution", check_gammavec_substitution),
        ("grammar/halfgamma-substitution", check_halfgamma_substitution),
        ("grammar/qrun-halfgamma-morphism", check_qrun_to_halfgamma_morphism),
        ("grammar/extraction-convolution", check_extraction_convolution),
    ],
    "triangles": [
        ("triangles/row-sums", check_row_sums),
        ("triangles/T-from-R", check_T_from_R),
        ("triangles/root-multiplicity", check_root_multiplicity),
        ("triangles/Rq-parity", check_Rq_parity),
        ("triangles/d-at-minus-one", check_d_at_minus_one),
        ("triangles/gamma-diagonal", check_gamma_diagonal),
        ("triangles/f-nonnegative", check_f_nonnegative),
        ("triangles/b-two-routes", check_b_two_routes),
        ("triangles/c-from-b", check_c_from_b),
        ("triangles/F-two-reassemblies", check_F_two_reassemblies),
        ("triangles/leibniz-convolution", check_leibniz_convolution),
    ],
    "davidbarton": [
        ("davidbarton/A-R-certificate", check_davidbarton_A_R),
        ("davidbarton/B-b-certificate", check_davidbarton_B_b),
        ("davidbarton/mutation-sensitivity", check_davidbarton_mutation),
    ],
    "series": [
        ("series/egf-T", check_series_T),
        ("series/egf-carlitz", check_series_carlitz),
        ("series/egf-Rq", check_series_Rq),
        ("series/egf-f", check_series_f),
        ("series/derangement", check_series_derangement),
        ("series/parity", check_series_parity),
        ("series/inclusion-exclusion", check_series_inclusion_exclusion),
        ("series/pde", check_series_pde),
        ("series/f-diagonal", check_series_f_diag),
        ("series/d-diagonal", check_series_d_diag),
        ("series/F-dual", check_series_F_dual),
        ("series/theta", check_series_theta),
    ],
    "gamma": [
        ("gamma/roundtrip", check_gamma_roundtrip),
        ("gamma/lambda-vs-semigamma", check_gamma_to_lambda_random),
        ("gamma/positivity-propagation", check_gamma_positivity_propagation),
        ("gamma/split-halves", check_split_halves_gamma_positive),
    ],
}

_SERIES_CHECKS = {check_id for check_id, _ in _CHECKS["series"]}


def run_suite(
    suite: str, max_n: int | None = None, order: int | None = None
) -> VerifyReport:
    """Run one suite (or "all"); results are sorted by check id."""
    if suite == "all":
        names = list(_CHECKS)
    elif suite in _CHECKS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    report = VerifyReport(suite)
    for name in names:
        for check_id, fn in _CHECKS[name]:
            if check_id in _SERIES_CHECKS:
                kwargs = {} if order is None else {"order": order}
                params = {"order": order}
            else:
                kwargs = {"max_n": max_n}
                params = {"max_n": max_n}
            ok, detail = fn(**kwargs)
            report.checks.append(CheckResult(check_id, params, ok, detail))
    report.checks.sort(key=lambda c: c.check_id)
    return report
