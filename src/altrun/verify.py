"""Cross-verification suites: every identity checkable by two routes.

Each check compares two independent computations (recurrence triangle vs
brute-force enumeration, grammar image vs triangle, closed-form EGF vs
triangle, surd identity vs weighted assembly, ...) and reports one
pass/fail line.  Suites group the checks the way the acceptance criteria
do; `run_suite("all")` runs everything.

Most checks are row-shaped: a generator yields (n, route A, route B) for
n = lo..hi and `_compare` fails on the first unequal pair.  The factories
below build the recurring shapes (enumeration rows, grammar rows, grammar
substitutions, series reports) on top of it.  Every check registers in
`_CHECKS` next to its definition, with its id and the `run_suite` argument
it takes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, factorial, prod
from typing import Callable, Iterator

from . import enumeration, families, gammalab, grammar, serieslab
from .errors import SizeLimit
from .multipoly import MultiPoly
from .polys import Poly, divide_exact, root_multiplicity

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


# ---------------------------------------------------------------------------
# the registry and the comparison primitive
# ---------------------------------------------------------------------------

# suite -> [(check id, check)]; a check's `arg` attribute names the run_suite
# argument it takes ("max_n" when absent)
_CHECKS: dict[str, list[tuple[str, Callable]]] = {suite: [] for suite in SUITES}

Rows = Callable[[int], Iterator[tuple]]


def _register(check_id: str, arg: str = "max_n") -> Callable:
    """Add the decorated check to the suite named by its id's prefix."""

    def add(fn: Callable) -> Callable:
        fn.arg = arg
        _CHECKS[check_id.split("/", 1)[0]].append((check_id, fn))
        return fn

    return add


def _passed(lo: int, hi: int, what: str) -> tuple[bool, str]:
    """The result of a check whose loop over n=lo..hi found no mismatch.

    An empty range compared nothing, so it fails instead of passing.
    """
    if hi < lo:
        return False, f"empty range n={lo}..{hi}, nothing checked: {what}"
    return True, f"{what} for n={lo}..{hi}"


def _compare(lo: int, stated: int, what: str, rows: Rows, max_n: int | None) -> tuple[bool, str]:
    """Compare route A with route B on every pair `rows(hi)` yields.

    `rows(hi)` yields (n, a, b) for n = lo..hi, hi = min(stated, max_n);
    the first pair with a != b fails the check.
    """
    hi = stated if max_n is None else min(stated, max_n)
    for n, a, b in rows(hi):
        if a != b:
            return False, f"mismatch at n={n}: {a} vs {b}"
    return _passed(lo, hi, what)


def _rows(check_id: str, lo: int, stated: int, what: str) -> Callable[[Rows], Callable]:
    """Register a rows generator as the check `check(max_n=None)`."""

    def make(rows: Rows) -> Callable:
        def check(max_n: int | None = None) -> tuple[bool, str]:
            return _compare(lo, stated, what, rows, max_n)

        check.__doc__ = rows.__doc__
        return _register(check_id)(check)

    return make


# ---------------------------------------------------------------------------
# enumeration suite: triangle rows against brute-force distributions
# ---------------------------------------------------------------------------


def _enumeration(check_id: str, klass: str, stats: list, stated: int, what: str, expected: Callable) -> Callable:
    """The distribution of `stats` over `klass` against `expected(hi)(n)`, n=1..hi.

    A single statistic is compared as a polynomial in x, a pair as the joint
    polynomial.
    """

    def rows(hi: int):
        want = expected(hi)
        for n in range(1, hi + 1):
            dist = enumeration.distribution(klass, n, stats)
            yield n, dist if len(stats) > 1 else dist.as_poly("x"), want(n)

    return _rows(check_id, 1, stated, what)(rows)


check_altrun_vs_R = _enumeration(
    "enumeration/altrun-vs-R", "perm", [("altrun", "x")], 8,
    "altrun distribution equals R row", lambda hi: families.triangle("R", hi).row_poly,
)
check_udrun_vs_T = _enumeration(
    "enumeration/udrun-vs-T", "perm", [("udrun", "x")], 8,
    "udrun distribution equals T row", lambda hi: families.triangle("T", hi).row_poly,
)
check_crun_cyc_vs_Rq = _enumeration(
    "enumeration/crun-cyc-vs-Rq", "perm", [("crun", "x"), ("cyc", "q")], 8,
    "(crun, cyc) distribution equals Rq row",
    lambda hi: families.triangle("Rq", hi).row_multipoly,
)
check_derangement_crun_vs_d = _enumeration(
    "enumeration/derangement-crun-vs-d", "derangement", [("crun", "x")], 9,
    "derangement crun equals d_n", lambda hi: families.polyseq("dpoly", hi).poly,
)
check_stirling_fap_vs_F = _enumeration(
    "enumeration/stirling-fap-vs-F", "stirling", [("fap", "x")], 7,
    "Stirling fap distribution equals F row", lambda hi: families.triangle("F", hi).row_poly,
)
check_dual_stirling_altrun_vs_F = _enumeration(
    "enumeration/dual-stirling-altrun-vs-F", "dual_stirling", [("altrun", "x")], 7,
    "dual-Stirling altrun equals F row", lambda hi: families.triangle("F", hi).row_poly,
)
check_signed_desB_vs_B = _enumeration(
    "enumeration/signed-desB-vs-B", "signed", [("des_B", "x")], 6,
    "signed des_B equals B_n", lambda hi: partial(families.eulerian, kind="B"),
)
check_signed_hat_altrunB_vs_c = _enumeration(
    "enumeration/signed-hat-altrunB-vs-c", "signed_hat", [("altrun_B", "x")], 6,
    "signed-hat altrun equals c_n", lambda hi: families.polyseq("cpoly", hi).poly,
)


# ---------------------------------------------------------------------------
# grammar suite
# ---------------------------------------------------------------------------


def _images(name: str, seed: str, count: str, co: str, hi: int, power: int = 1, wide: int = 1, co_step: int = 1):
    """(n, row n of D^n(seed^power)) for n=0..hi, D the grammar `name`.

    Row n has entries k = 0..wide*n, read off the terms
    seed^power * entry_k * count^k * co^(co_step*(wide*n - k)).
    """
    g = grammar.named_grammar(name)
    seed_poly = g.letter(seed) ** power
    image = seed_poly
    for n in range(hi + 1):
        w = wide * n
        yield n, grammar.extract_row(
            image, seed_poly, count, co, w, co_exponent=lambda k: co_step * (w - k)
        )
        image = g.derive(image)


def _grammar_rows(name: str, seed: str, count: str, co: str, family: str, shift: int = 0,
                  var: str | None = None, **shape) -> Rows:
    """Rows of the grammar `name` (see `_images`) against row n+shift of `family`.

    The extracted entries are rationals, or polynomials in `var` when given.
    """

    def rows(hi: int):
        tri = families.triangle(family, hi + shift)
        for n, row in _images(name, seed, count, co, hi, **shape):
            entries = grammar.entries_as_polys(row, var) if var else grammar.entries_as_fractions(row)
            yield n, entries, [tri.entry(n + shift, k) for k in range(len(row))]

    return rows


_updown_T = _grammar_rows("updown", "a", "b", "c", "T")
_updown_R = _grammar_rows("updown", "a", "b", "c", "R", shift=1, power=2)


@_rows("grammar/updown", 0, 10, "seed a gives T rows and seed a^2 gives R rows")
def check_updown_grammar(hi: int):
    yield from _updown_T(hi)
    yield from _updown_R(hi)


check_doubled_grammar = _rows("grammar/doubled", 0, 10, "doubled grammar matches R rows")(
    _grammar_rows("doubled", "a", "b", "c", "R", shift=1)
)
check_qrun_triangle = _rows("grammar/qrun-triangle", 0, 10, "q-run images match the q-triangle")(
    _grammar_rows("qrun", "a", "b", "c", "Rq", var="q")
)
check_plateau_triangle = _rows(
    "grammar/plateau-F-triangle", 0, 10, "plateau-grammar images match the F triangle"
)(_grammar_rows("plateau", "x", "y", "z", "F", wide=2))
check_gammavec_triangle = _rows(
    "grammar/gamma-triangle", 0, 10, "gamma-grammar images match the gamma triangle"
)(_grammar_rows("gammavec", "x", "a", "b", "gamma", co_step=2))
check_halfgamma_triangle = _rows(
    "grammar/halfgamma-f-triangle", 0, 10, "half-gamma images match the f triangle"
)(_grammar_rows("halfgamma", "x", "u", "v", "f"))


@_rows("grammar/qrun-recurrence", 0, 10, "extracted entries satisfy the q-recurrence")
def check_qrun_recurrence(hi: int):
    """Row n read off D^n(a) follows from row n-1 by the q-recurrence."""
    rows = [grammar.entries_as_polys(row, "q") for _, row in _images("qrun", "a", "b", "c", hi)]
    q = Poly.x()

    def entry(n, k):
        return rows[n][k] if 0 <= k < len(rows[n]) else Poly.zero()

    for n in range(1, hi + 1):
        yield n, rows[n], [
            k * entry(n - 1, k) + q * entry(n - 1, k - 1) + (n - k + 1) * entry(n - 1, k - 2)
            for k in range(n + 1)
        ]


def _convolution(t_tri: families.Triangle, n: int) -> Poly:
    """sum_k C(n,k) T_k T_(n-k)."""
    return sum(
        (comb(n, k) * t_tri.row_poly(k) * t_tri.row_poly(n - k) for k in range(n + 1)),
        Poly.zero(),
    )


@_rows("grammar/extraction-convolution", 0, 10, "D^n(a^2) rows equal the T convolution")
def check_extraction_convolution(hi: int):
    """Rows read off D^n(a^2) agree with the Leibniz convolution of T rows."""
    t_tri = families.triangle("T", hi)
    for n, row in _images("updown", "a", "b", "c", hi, power=2):
        yield n, Poly(grammar.entries_as_fractions(row)), _convolution(t_tri, n)


def _substitution(source: str, source_seed: str, target: str, images: Callable) -> Rows:
    """D^n(source_seed) in grammar `source`, its letters replaced by
    `images(variable)`, against D^n(x) in grammar `target`."""

    def rows(hi: int):
        g_src, g_dst = grammar.named_grammar(source), grammar.named_grammar(target)
        alphabet = g_dst.alphabet
        subst = images(partial(MultiPoly.variable, alphabet))
        im_src, im_dst = g_src.letter(source_seed), g_dst.letter("x")
        for n in range(hi + 1):
            yield n, im_src.substitute(subst, alphabet), im_dst
            im_src, im_dst = g_src.derive(im_src), g_dst.derive(im_dst)

    return rows


check_gammavec_substitution = _rows(
    "grammar/gamma-substitution", 0, 10,
    "a=yz, b=y+z carries the gamma grammar onto the plateau grammar",
)(_substitution("gammavec", "x", "plateau", lambda v: {"a": v("y") * v("z"), "b": v("y") + v("z")}))
check_halfgamma_substitution = _rows(
    "grammar/halfgamma-substitution", 0, 10,
    "u=yz, v=y^2+z^2 carries the half-gamma grammar onto the plateau grammar",
)(_substitution(
    "halfgamma", "x", "plateau",
    lambda v: {"u": v("y") * v("z"), "v": v("y") * v("y") + v("z") * v("z")},
))
check_qrun_to_halfgamma_morphism = _rows(
    "grammar/qrun-halfgamma-morphism", 0, 10,
    "q=1/2, a=x, b=2u, c=v carries the q-run grammar onto the half-gamma grammar",
)(_substitution(
    "qrun", "a", "halfgamma",
    lambda v: {"q": Fraction(1, 2), "a": v("x"), "b": 2 * v("u"), "c": v("v")},
))


# ---------------------------------------------------------------------------
# triangles / identity suite
# ---------------------------------------------------------------------------


@_rows("triangles/leibniz-convolution", 0, 12, "R_(n+1) = sum C(n,k) T_k T_(n-k)")
def check_leibniz_convolution(hi: int):
    t_tri = families.triangle("T", hi)
    r_tri = families.triangle("R", hi + 1)
    for n in range(hi + 1):
        yield n, _convolution(t_tri, n), r_tri.row_poly(n + 1)


@_rows("triangles/row-sums", 1, 12, "R, T, Rq rows all have mass n!")
def check_row_sums(hi: int):
    r_tri, t_tri, rq_tri = (families.triangle(name, hi) for name in ("R", "T", "Rq"))
    for n in range(1, hi + 1):
        yield n, sum(r_tri.row(n)), factorial(n)
        yield n, sum(t_tri.row(n)), factorial(n)
        yield n, families.q_specialize(rq_tri.row(n), 1).evaluate(1), factorial(n)


@_rows("triangles/T-from-R", 2, 12, "T_n = (1+x) R_n / 2")
def check_T_from_R(hi: int):
    r_tri = families.triangle("R", hi)
    t_tri = families.triangle("T", hi)
    for n in range(2, hi + 1):
        yield n, 2 * t_tri.row_poly(n), Poly([1, 1]) * r_tri.row_poly(n)


@_rows("triangles/root-multiplicity", 2, 12, "x=-1 has multiplicity floor(n/2)-1 in R_n")
def check_root_multiplicity(hi: int):
    tri = families.triangle("R", hi)
    for n in range(2, hi + 1):
        yield n, root_multiplicity(tri.row_poly(n), Fraction(-1)), n // 2 - 1


@_rows("triangles/Rq-parity", 0, 12, "R_n(x;-q) = R_n(-x;q) and R_n(-x;-q) = R_n(x;q)")
def check_Rq_parity(hi: int):
    tri = families.triangle("Rq", hi)
    for n in range(hi + 1):
        row = tri.row_multipoly(n, "x", "q")
        alphabet = row.alphabet
        neg_x = {"x": -MultiPoly.variable(alphabet, "x")}
        neg_q = row.substitute({"q": -MultiPoly.variable(alphabet, "q")}, alphabet)
        yield n, neg_q, row.substitute(neg_x, alphabet)
        yield n, neg_q.substitute(neg_x, alphabet), row


@_rows("triangles/d-at-minus-one", 1, 12, "d_n(-1) = -(n-1)")
def check_d_at_minus_one(hi: int):
    seq = families.polyseq("dpoly", hi)
    for n in range(1, hi + 1):
        yield n, seq.poly(n).evaluate(-1), -(n - 1)


@_rows("triangles/gamma-diagonal", 1, 12, "gamma_(n+1,n+1) = (-1)^n (2n-1)!!")
def check_gamma_diagonal(hi: int):
    tri = families.triangle("gamma", hi + 1)
    for n in range(1, hi + 1):
        yield n, tri.entry(n + 1, n + 1), (-1) ** n * prod(range(1, 2 * n, 2))


@_rows("triangles/f-nonnegative", 0, 40, "all f entries nonnegative")
def check_f_nonnegative(hi: int):
    """The negative entries of each f row: none."""
    tri = families.triangle("f", hi)
    for n in range(hi + 1):
        yield n, [v for v in tri.row(n) if v < 0], []


@_rows("triangles/b-two-routes", 0, 12, "triangle assembly equals b recurrence")
def check_b_two_routes(hi: int):
    tri = families.triangle("b", hi)
    seq = families.polyseq("bpoly", hi)
    for n in range(hi + 1):
        assembled = sum(
            (
                Fraction(v, 2**k) * Poly.from_terms({k: 1}) * Poly([1, 1]) ** (n - k)
                for k, v in enumerate(tri.row(n))
            ),
            Poly.zero(),
        )
        yield n, assembled, seq.poly(n)


@_rows("triangles/c-from-b", 1, 12, "c_n = x b_n / (1+x)")
def check_c_from_b(hi: int):
    bseq = families.polyseq("bpoly", hi)
    cseq = families.polyseq("cpoly", hi)
    for n in range(1, hi + 1):
        yield n, divide_exact(Poly.x() * bseq.poly(n), Poly([1, 1])), cseq.poly(n)


@_rows("triangles/F-two-reassemblies", 1, 12, "gamma and f reassemblies both give F_n")
def check_F_two_reassemblies(hi: int):
    g_tri = families.triangle("gamma", hi)
    f_tri = families.triangle("f", hi)
    seq = families.polyseq("Fpoly", hi)
    one_x, one_x2 = Poly([1, 1]), Poly([1, 0, 1])
    for n in range(1, hi + 1):
        via_gamma = sum(
            (v * Poly.from_terms({k: 1}) * one_x ** (2 * n - 2 * k) for k, v in enumerate(g_tri.row(n))),
            Poly.zero(),
        )
        via_f = sum(
            (v * Poly.from_terms({k: 1}) * one_x2 ** (n - k) for k, v in enumerate(f_tri.row(n))),
            Poly.zero(),
        )
        yield n, via_gamma, seq.poly(n)
        yield n, via_f, seq.poly(n)


# ---------------------------------------------------------------------------
# David-Barton suite
# ---------------------------------------------------------------------------


def _a_row_form(n: int) -> gammalab.GammaForm:
    return gammalab.GammaForm(n + 1, families.triangle("a", n).row(n))


def _b_row_form(n: int) -> gammalab.GammaForm:
    return gammalab.GammaForm(n, families.triangle("b", n).row(n))


def _certified(m_poly: Poly, n_poly: Poly, n: int, delta: int) -> bool:
    """The surd identity for (M, N), at the sample count its degree bound needs."""
    count = gammalab.certificate_sample_count(n_poly.degree, n, delta)
    return gammalab.david_barton_identity_check(
        m_poly, n_poly, n, delta, gammalab.default_samples(count)
    )


@_rows("davidbarton/A-R-certificate", 2, 10, "(A_n, R_n, delta=1) certified")
def check_davidbarton_A_R(hi: int):
    r_tri = families.triangle("R", hi)
    for n in range(2, hi + 1):
        r_n = r_tri.row_poly(n)
        yield n, gammalab.david_barton_assemble(_a_row_form(n), n, 1), r_n
        yield n, _certified(families.eulerian(n, "A"), r_n, n, 1), True


@_rows("davidbarton/B-b-certificate", 1, 10, "(B_n, b_n, delta=0) certified")
def check_davidbarton_B_b(hi: int):
    bseq = families.polyseq("bpoly", hi)
    for n in range(1, hi + 1):
        b_n = bseq.poly(n)
        yield n, gammalab.david_barton_assemble(_b_row_form(n), n, 0), b_n
        yield n, _certified(families.eulerian(n, "B"), b_n, n, 0), True


@_rows("davidbarton/mutation-sensitivity", 2, 10, "every single-entry mutation is caught")
def check_davidbarton_mutation(hi: int):
    """Bumping any one gamma entry of A_n must move the assembly off R_n and
    break the surd identity against the true A_n."""
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
            yield n, mutated != r_n, True
            # sized for the mutated side: too few samples would reject the
            # pair without evaluating it, and the check would pass vacuously
            yield n, _certified(families.eulerian(n, "A"), mutated, n, 1), False


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------


def _report_check(report: serieslab.IdentityReport) -> tuple[bool, str]:
    if report.ok:
        return True, f"{report.identity} through order {report.order}"
    return False, f"{report.identity}: {report.first_mismatch}"


def _series(check_id: str, reports: Callable, default: int = 12, summary: str | None = None,
            cap: int | None = None) -> Callable:
    """Register `reports(order)` (serieslab identity reports) as an order check.

    The first failing report fails the check.  A pass is described by
    `summary` (formatted with the order), or else by the last report.
    """

    def check(order: int = default, **_) -> tuple[bool, str]:
        if cap is not None:
            order = min(order, cap)
        for report in reports(order):
            if not report.ok:
                return _report_check(report)
        return (True, summary.format(order)) if summary else _report_check(report)

    return _register(check_id, "order")(check)


def _F_dual_reports(order: int):
    for x0 in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        yield serieslab.check_F_dual_at(x0, order)
    yield serieslab.check_F_dual_certificate(order)


_Q3 = (Fraction(1), Fraction(2), Fraction(1, 2))
_Q4 = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))

check_series_T = _series("series/egf-T", lambda order: [serieslab.check_egf_T(order)])
check_series_carlitz = _series(
    "series/egf-carlitz", lambda order: [serieslab.check_egf_carlitz(order)]
)
check_series_Rq = _series(
    "series/egf-Rq", lambda order: (serieslab.check_egf_Rq(q0, order) for q0 in _Q4),
    summary="T^q matches the q-triangle for q in (1, 2, 3, 1/2), order {}",
)
check_series_f = _series("series/egf-f", lambda order: [serieslab.check_egf_f(order)])
check_series_derangement = _series(
    "series/derangement", lambda order: [serieslab.check_derangement_egf(order)]
)
check_series_parity = _series(
    "series/parity", lambda order: (serieslab.check_parity_symmetry(q0, order) for q0 in _Q3),
    default=10, summary="series-level parity symmetry for q in (1, 2, 1/2), order {}",
)
check_series_inclusion_exclusion = _series(
    "series/inclusion-exclusion",
    lambda order: (serieslab.check_inclusion_exclusion(q0, order) for q0 in _Q3),
    default=8, summary="inclusion-exclusion EGF for q in (1, 2, 1/2), order {}", cap=8,
)
check_series_f_diag = _series("series/f-diagonal", lambda order: [serieslab.check_f_diagonal(order)])
check_series_d_diag = _series("series/d-diagonal", lambda order: [serieslab.check_d_diagonal(order)])
check_series_F_dual = _series("series/F-dual", _F_dual_reports)


@_register("series/pde", "order")
def check_series_pde(order: int = 12, **_) -> tuple[bool, str]:
    if not serieslab.pde_check(order):
        return False, "PDE fails on the true triangle"
    if serieslab.pde_check(order, mutate=(3, 2)):
        return False, "PDE check is insensitive to a mutated entry"
    return True, f"PDE holds through order {order} and rejects a mutated entry"


@_register("series/theta", "order")
def check_series_theta(order: int = 10, **_) -> tuple[bool, str]:
    hi = min(order, 10)
    if not serieslab.theta_check(hi):
        return False, "theta-operator identity fails"
    return True, f"theta^n r = r F_n/(1-x^2)^n for n=0..{hi}"


# ---------------------------------------------------------------------------
# gamma suite
# ---------------------------------------------------------------------------


@_rows("gamma/roundtrip", 1, 12, "round trips on A_n, B_n, F_n")
def check_gamma_roundtrip(hi: int):
    """Gamma and semi-gamma expansions of A_n, B_n, F_n reassemble to them."""
    f_seq = families.polyseq("Fpoly", hi)
    for n in range(1, hi + 1):
        cases = ((families.eulerian(n, "A"), 1, n), (families.eulerian(n, "B"), 0, n), (f_seq.poly(n), 1, 2 * n - 1))
        for p, low, high in cases:
            yield n, gammalab.gamma_expand(p, low, high).reassemble().shift(low), p
            yield n, gammalab.semi_gamma_expand(p, low, high).reassemble().shift(low), p


@_register("gamma/lambda-vs-semigamma")
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


@_rows("gamma/positivity-propagation", 1, 12, "gamma-positive rows give nonnegative lambdas")
def check_gamma_positivity_propagation(hi: int):
    for n in range(1, hi + 1):
        for form in (_a_row_form(n), _b_row_form(n)):
            yield n, (form.is_positive(), gammalab.gamma_to_lambda(form).is_positive()), (True, True)


@_rows("gamma/split-halves", 1, 12, "both split halves are gamma-positive")
def check_split_halves_gamma_positive(hi: int):
    """Both halves of F_n/x are gamma-positive, and the even half's gammas
    interleave the semi-gamma lambdas."""
    seq = families.polyseq("Fpoly", hi)
    for n in range(1, hi + 1):
        core = Poly(seq.poly(n).coeffs[1:])  # F_n / x
        semi = gammalab.semi_gamma_expand(core, 0, 2 * n - 2)
        g1, g2 = gammalab.split_even_odd(core, semi.nu)
        form1 = gammalab.gamma_expand(g1, 0, n - 1)
        yield n, form1.is_positive(), True
        if n >= 2:
            yield n, gammalab.gamma_expand(g2, 0, n - 2).is_positive(), True
        yield n, form1.gammas, semi.lambdas[0::2]


# ---------------------------------------------------------------------------
# running suites
# ---------------------------------------------------------------------------


def run_suite(
    suite: str, max_n: int | None = None, order: int | None = None
) -> VerifyReport:
    """Run one suite (or "all"); results are sorted by check id.

    A check that raises is reported as failing, with the exception's type
    and message, and the other checks still run.  Only the enumeration
    budget (`SizeLimit`) aborts the report.
    """
    if suite != "all" and suite not in _CHECKS:
        raise ValueError(f"unknown suite {suite!r}")
    values = {"max_n": max_n, "order": order}
    report = VerifyReport(suite)
    for name, entries in _CHECKS.items():
        if suite not in ("all", name):
            continue
        for check_id, fn in entries:
            arg = getattr(fn, "arg", "max_n")
            value = values[arg]
            try:
                ok, detail = fn(**({} if value is None else {arg: value}))
            except SizeLimit:
                raise
            except Exception as exc:  # one failing check must not end the report
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            report.checks.append(CheckResult(check_id, {arg: value}, ok, detail))
    report.checks.sort(key=lambda c: c.check_id)
    return report
