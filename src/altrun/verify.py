"""Cross-verification suites: every identity checkable by two routes.

Each check compares two independent computations (recurrence triangle vs
brute-force enumeration, grammar image vs triangle, closed-form EGF vs
triangle, surd identity vs weighted assembly, ...) and reports one
pass/fail line.  Suites group the checks the way the acceptance criteria
do; `run_suite("all")` runs everything.

Every check but three is row-shaped: a generator yields (n, route A,
route B) for n = lo..hi, `_compare` fails on the first unequal pair, and a
pass states the range it compared.  The factories below build the recurring
shapes (enumeration rows, grammar rows, grammar substitutions, the two sides
of a series identity) on top of it.  Every check registers in `_CHECKS` next
to its definition, with its id and the `run_suite` argument it takes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import partial
from itertools import count
from math import comb, factorial, prod
from typing import Callable, Iterator, NamedTuple

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


class CheckResult(NamedTuple):
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


class VerifyReport:
    def __init__(self, suite: str, checks: list[CheckResult] | None = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    def __eq__(self, other) -> bool:
        if type(other) is not VerifyReport:
            return NotImplemented
        return self.suite == other.suite and self.checks == other.checks

    def __repr__(self) -> str:
        return f"VerifyReport(suite={self.suite!r}, checks={self.checks!r})"

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


def _empty(lo: int, hi: int, what: str) -> tuple[bool, str]:
    """The result of a check that compared nothing in n=lo..hi: it fails."""
    return False, f"empty range n={lo}..{hi}, nothing checked: {what}"


def _compare(lo: int, hi: int, what: str, rows: Rows) -> tuple[bool, str]:
    """Compare route A with route B on every pair `rows(hi)` yields.

    `rows(hi)` yields (n, a, b) for n = lo..hi, or fewer where a route caps
    its range; the first pair with a != b fails the check.  A pass states
    lo..the last n compared.  An empty range (hi < lo) fails before any
    route is built, and so do rows that yield nothing.
    """
    if hi < lo:
        return _empty(lo, hi, what)
    last = None
    for n, a, b in rows(hi):
        if a != b:
            return False, f"mismatch at n={n}: {a} vs {b}"
        last = n
    if last is None:
        return _empty(lo, hi, what)
    return True, f"{what} for n={lo}..{last}"


def _rows(check_id: str, lo: int, stated: int, what: str) -> Callable[[Rows], Callable]:
    """Register a rows generator as the check `check(max_n=None)`, which
    compares n=lo..min(stated, max_n)."""

    def make(rows: Rows) -> Callable:
        def check(max_n: int | None = None) -> tuple[bool, str]:
            return _compare(lo, stated if max_n is None else min(stated, max_n), what, rows)

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


@_rows("grammar/qrun-recurrence", 1, 10, "extracted entries satisfy the q-recurrence")
def check_qrun_recurrence(hi: int):
    """Row n read off D^n(a) is the Rq step applied to row n-1 read off D^(n-1)(a)."""
    images = _images("qrun", "a", "b", "c", hi)
    rows = [tuple(grammar.entries_as_polys(row, "q")) for _, row in images]
    for n in range(1, hi + 1):
        yield n, rows[n], families.next_row("Rq", n, rows[n - 1])


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
        row = tri.row_multipoly(n)
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
    seq = families.polyseq("bpoly", hi)
    for n in range(hi + 1):
        yield n, gammalab.david_barton_assemble(_b_row_form(n), n, 0), seq.poly(n)


@_rows("triangles/c-from-b", 1, 12, "c_n = x b_n / (1+x)")
def check_c_from_b(hi: int):
    bseq = families.polyseq("bpoly", hi)
    cseq = families.polyseq("cpoly", hi)
    for n in range(1, hi + 1):
        yield n, divide_exact(Poly.x() * bseq.poly(n), Poly([1, 1])), cseq.poly(n)


@_rows("triangles/F-two-reassemblies", 1, 12, "gamma and f reassemblies give F_n")
def check_F_two_reassemblies(hi: int):
    g_tri = families.triangle("gamma", hi)
    f_tri = families.triangle("f", hi)
    seq = families.polyseq("Fpoly", hi)
    for n in range(1, hi + 1):
        yield n, gammalab.GammaForm(2 * n, g_tri.row(n)).reassemble(), seq.poly(n)
        yield n, gammalab.SemiGammaForm(0, n, f_tri.row(n)).reassemble(), seq.poly(n)


# ---------------------------------------------------------------------------
# David-Barton suite
# ---------------------------------------------------------------------------


def _a_row_form(n: int) -> gammalab.GammaForm:
    return gammalab.GammaForm(n + 1, families.triangle("a", n).row(n))


def _b_row_form(n: int) -> gammalab.GammaForm:
    return gammalab.GammaForm(n, families.triangle("b", n).row(n))


@_rows("davidbarton/A-R-certificate", 2, 10, "(A_n, R_n, delta=1) certified")
def check_davidbarton_A_R(hi: int):
    r_tri = families.triangle("R", hi)
    for n in range(2, hi + 1):
        r_n = r_tri.row_poly(n)
        yield n, gammalab.david_barton_assemble(_a_row_form(n), n, 1), r_n
        yield n, gammalab.david_barton_identity_check(families.eulerian(n, "A"), r_n, n, 1), True


@_rows("davidbarton/B-b-certificate", 1, 10, "(B_n, b_n, delta=0) certified")
def check_davidbarton_B_b(hi: int):
    bseq = families.polyseq("bpoly", hi)
    for n in range(1, hi + 1):
        b_n = bseq.poly(n)
        yield n, gammalab.david_barton_assemble(_b_row_form(n), n, 0), b_n
        yield n, gammalab.david_barton_identity_check(families.eulerian(n, "B"), b_n, n, 0), True


@_rows("davidbarton/mutation-sensitivity", 2, 10, "every single-entry mutation is caught")
def check_davidbarton_mutation(hi: int):
    """Bumping any one gamma entry of A_n must move the assembly off R_n and
    break the surd identity against the true A_n."""
    r_tri = families.triangle("R", hi)
    for n in range(2, hi + 1):
        r_n = r_tri.row_poly(n)
        a_n = families.eulerian(n, "A")
        form = _a_row_form(n)
        for k in range(len(form.gammas)):
            bumped = list(form.gammas)
            bumped[k] += 1
            mutated = gammalab.david_barton_assemble(
                gammalab.GammaForm(form.base_degree, tuple(bumped)), n, 1
            )
            yield n, mutated != r_n, True
            yield n, gammalab.david_barton_identity_check(a_n, mutated, n, 1), False


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------


def _series(check_id: str, what: str, sides: Callable) -> Callable:
    """Register `sides(order)`, the two sides of one serieslab identity as
    tuples indexed by n, as an order check compared by `_compare`."""

    def check(order: int = 12, **_) -> tuple[bool, str]:
        return _compare(0, order, what, lambda hi: zip(count(), *sides(hi)))

    return _register(check_id, "order")(check)


# Each side is looked up in serieslab when the check runs, not captured here:
# the benchmark's tracer rebinds serieslab's globals after import.
check_series_T = _series(
    "series/egf-T", "egf_T vs T triangle", lambda order: serieslab.check_egf_T(order)
)
check_series_carlitz = _series(
    "series/egf-carlitz", "egf_carlitz vs reversed R rows",
    lambda order: serieslab.check_egf_carlitz(order),
)
check_series_Rq = _series(
    "series/egf-Rq", "R = exp(q log T) vs Rq triangle in (x, q)",
    lambda order: serieslab.check_egf_Rq(order),
)
check_series_f = _series(
    "series/egf-f", "sqrt(T(2x,z)) vs f triangle", lambda order: serieslab.check_egf_f(order)
)
check_series_derangement = _series(
    "series/derangement", "exp(-xz) T(x,z) vs derangement polynomials",
    lambda order: serieslab.check_derangement_egf(order),
)
check_series_parity = _series(
    "series/parity", "R(x,z;-q) = R(-x,z;q) in (x, q)",
    lambda order: serieslab.check_parity_symmetry(order),
)
check_series_inclusion_exclusion = _series(
    "series/inclusion-exclusion", "exp(qx(y-1)z) R(x,z;q) vs inclusion-exclusion in (x, y, q)",
    lambda order: serieslab.check_inclusion_exclusion(order),
)
check_series_f_diag = _series(
    "series/f-diagonal", "sqrt((1+tan)/(1-tan)) vs f diagonal",
    lambda order: serieslab.check_f_diagonal(order),
)
check_series_d_diag = _series(
    "series/d-diagonal", "exp(-x) (tan x + sec x) vs derangement diagonal",
    lambda order: serieslab.check_d_diagonal(order),
)
check_series_F_dual = _series(
    "series/F-dual", "sqrt(T(2x/(1+x^2),(1+x^2)z)) vs Fpoly rows",
    lambda order: serieslab.check_F_dual_certificate(order),
)


@_register("series/pde", "order")
def check_series_pde(order: int = 12, **_) -> tuple[bool, str]:
    # Compared for n < order, so row min(order, 3), which gets bumped, is read.
    if order < 1:
        return _empty(0, order - 1, "(1 - x^2 z) R_z = x(1-x^2) R_x + q x R on the Rq rows")
    n = serieslab.pde_check(order)
    if n is not None:
        return False, f"PDE fails at n={n} on the Rq rows"
    if serieslab.pde_check(order, mutate=(min(order, 3), 2)) is None:
        return False, "PDE check is insensitive to a mutated entry"
    return True, f"PDE holds through order {order} and rejects a mutated entry"


@_register("series/theta", "order")
def check_series_theta(order: int = 10, **_) -> tuple[bool, str]:
    hi, what = min(order, 10), "theta^n r = r F_n/(1-x^2)^n"
    if hi < 0:
        return _empty(0, hi, what)
    n = serieslab.theta_check(hi)
    if n is not None:
        return False, f"theta-operator identity fails at n={n}"
    return True, f"{what} for n=0..{hi}"


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
    count: int = 0, max_degree: int = 16, max_n: int | None = None
) -> tuple[bool, str]:
    """gamma_to_lambda against semi_gamma_expand on `count` random
    palindromes, then on each x^i + x^(n-i), of span n = 0..min(max_degree,
    max_n).  The x^i + x^(n-i) span the polynomials symmetric on [0, n] and
    both routes are linear, so they decide the routes on every such
    polynomial."""

    def palindromes(hi: int):
        rng = random.Random(11)
        for _ in range(count):
            d = rng.randint(0, hi)
            full = [Fraction(0)] * (d + 1)
            for i in range(d // 2 + 1):
                full[i] = full[d - i] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            yield d, Poly(full)
        for d in range(hi + 1):
            for i in range(d // 2 + 1):
                yield d, Poly.one().shift(i) + Poly.one().shift(d - i)

    def rows(hi: int):
        for d, p in palindromes(hi):
            yield (
                d,
                gammalab.gamma_to_lambda(gammalab.gamma_expand(p, 0, d)),
                gammalab.semi_gamma_expand(p, 0, d),
            )

    hi = max_degree if max_n is None else min(max_degree, max_n)
    return _compare(0, hi, "gamma_to_lambda == semi_gamma_expand on x^i + x^(n-i)", rows)


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
