"""Suite-level behaviour of `verify.run_suite`."""

from math import comb

import pytest

from altrun import families, gammalab, verify
from altrun.polys import Poly

EMPTY_AT_MAX_N_1 = {
    "davidbarton/A-R-certificate",
    "davidbarton/mutation-sensitivity",
    "triangles/T-from-R",
    "triangles/root-multiplicity",
}


def test_empty_range_fails_closed():
    report = verify.run_suite("all", max_n=1)
    failed = {c.check_id: c.detail for c in report.checks if not c.ok}
    assert set(failed) == EMPTY_AT_MAX_N_1
    for detail in failed.values():
        assert detail.startswith("empty range n=2..1")
    assert report.overall is False


def test_theta_empty_range_fails_closed():
    report = verify.run_suite("series", order=-1)
    theta = next(c for c in report.checks if c.check_id == "series/theta")
    assert not theta.ok
    assert theta.detail.startswith("empty range n=0..-1")


def test_negative_order_is_an_empty_series_range():
    report = verify.run_suite("series", order=-1)
    assert not any("IndexError" in c.detail for c in report.checks)
    built = {
        check_id for check_id, fn in verify._CHECKS["series"]
        if fn.__qualname__.startswith("_series.")
    }
    assert len(built) == 10
    for c in report.checks:
        if c.check_id in built:
            assert not c.ok
            assert c.detail.startswith("empty range n=0..-1"), c


def test_series_pde_at_small_orders():
    # The PDE compares n < order; from order 1 on, the bumped row min(order, 3)
    # is one it reads.
    for order in (-1, 0):
        ok, detail = verify.check_series_pde(order)
        assert not ok
        assert detail.startswith(f"empty range n=0..{order - 1}, nothing checked: ")
    for order in (1, 2):
        assert verify.check_series_pde(order) == (
            True, f"PDE holds through order {order} and rejects a mutated entry"
        )


def test_qrun_recurrence_fails_an_empty_range():
    # Its rows start at n=1, so at max_n=0 it compared nothing.
    report = verify.run_suite("grammar", max_n=0)
    qrun = next(c for c in report.checks if c.check_id == "grammar/qrun-recurrence")
    assert not qrun.ok
    assert qrun.detail.startswith("empty range n=1..0")


def test_negative_max_n_is_an_empty_range_for_every_row_check():
    # Every check that reads max_n fails, as an empty range, before any row
    # store is asked for a negative index: the checks registered by `_rows`
    # and gamma/lambda-vs-semigamma.  The others ignore max_n.
    report = verify.run_suite("all", max_n=-1)
    failed = {c.check_id: c.detail for c in report.checks if not c.ok}
    row_checks = {
        check_id for entries in verify._CHECKS.values()
        for check_id, fn in entries if fn.__qualname__.startswith("_rows.")
    }
    assert len(row_checks) == 36
    assert set(failed) == row_checks | {"gamma/lambda-vs-semigamma"}
    for check_id, detail in failed.items():
        assert detail.startswith("empty range n="), (check_id, detail)
        assert "..-1, nothing checked: " in detail, (check_id, detail)


def test_compare_fails_rows_that_yield_nothing():
    ok, detail = verify._compare(0, 3, "no rows", lambda hi: iter(()))
    assert not ok
    assert detail == "empty range n=0..3, nothing checked: no rows"


def test_compare_states_the_range_it_compared():
    def capped(hi):
        return ((n, n, n) for n in range(min(hi, 8) + 1))

    assert verify._compare(0, 12, "capped rows", capped) == (True, "capped rows for n=0..8")
    assert verify._compare(0, 5, "capped rows", capped) == (True, "capped rows for n=0..5")


# The checks that decide in a body of their own; every other check hands its
# pairs to `_compare`: a rows generator registered by `_rows`, a pair of
# series sides registered by `_series`, or the palindromes of
# gamma/lambda-vs-semigamma.
OWN_BODY = {"series/pde", "series/theta"}


def test_every_other_check_is_compared_by_one_loop(monkeypatch):
    compared = []
    monkeypatch.setattr(verify, "_compare", lambda *args: compared.append(args) or (True, ""))
    for entries in verify._CHECKS.values():
        for check_id, fn in entries:
            compared.clear()
            fn(**{getattr(fn, "arg", "max_n"): 3})
            assert bool(compared) == (check_id not in OWN_BODY), check_id
    registered = {
        check_id: fn.__qualname__.split(".", 1)[0]
        for entries in verify._CHECKS.values() for check_id, fn in entries
    }
    assert {c for c, factory in registered.items() if factory not in ("_rows", "_series")} == (
        OWN_BODY | {"gamma/lambda-vs-semigamma"}
    )


# Checks that fail when entry k=1 of row 4 of one family is bumped by one,
# at max_n=5, order=6: exactly the checks that compare that row by a second
# route.  A registry row that stops comparing drops out of its set.
CORRUPTED_ROW_FAILS = {
    "F": {
        "enumeration/dual-stirling-altrun-vs-F",
        "enumeration/stirling-fap-vs-F",
        "gamma/roundtrip",
        "gamma/split-halves",
        "grammar/plateau-F-triangle",
        "series/F-dual",
        "series/theta",
        "triangles/F-two-reassemblies",
    },
    "Fpoly": {
        "gamma/roundtrip",
        "gamma/split-halves",
        "series/F-dual",
        "series/theta",
        "triangles/F-two-reassemblies",
    },
    "R": {
        "davidbarton/A-R-certificate",
        "enumeration/altrun-vs-R",
        "grammar/doubled",
        "grammar/updown",
        "series/egf-carlitz",
        "triangles/T-from-R",
        "triangles/leibniz-convolution",
        "triangles/root-multiplicity",
        "triangles/row-sums",
    },
    "Rq": {
        "enumeration/crun-cyc-vs-Rq",
        "grammar/qrun-triangle",
        "series/egf-Rq",
        "series/inclusion-exclusion",
        "series/pde",
        "triangles/Rq-parity",
        "triangles/row-sums",
    },
    "T": {
        "enumeration/udrun-vs-T",
        "grammar/extraction-convolution",
        "grammar/updown",
        "series/egf-T",
        "triangles/T-from-R",
        "triangles/leibniz-convolution",
        "triangles/row-sums",
    },
    "a": {"davidbarton/A-R-certificate"},
    "b": {
        "davidbarton/B-b-certificate",
        "enumeration/signed-desB-vs-B",
        "triangles/b-two-routes",
    },
    "bpoly": {
        "davidbarton/B-b-certificate",
        "triangles/b-two-routes",
        "triangles/c-from-b",
    },
    "cpoly": {"enumeration/signed-hat-altrunB-vs-c", "triangles/c-from-b"},
    "dpoly": {
        "enumeration/derangement-crun-vs-d",
        "series/derangement",
        "triangles/d-at-minus-one",
    },
    "eulerA": {"davidbarton/A-R-certificate", "gamma/roundtrip"},
    "eulerB": {
        "davidbarton/B-b-certificate",
        "enumeration/signed-desB-vs-B",
        "gamma/roundtrip",
    },
    "f": {
        "grammar/halfgamma-f-triangle",
        "series/egf-f",
        "triangles/F-two-reassemblies",
    },
    "gamma": {"grammar/gamma-triangle", "triangles/F-two-reassemblies"},
}

_F_SERIES_DETAILS = {
    "series/F-dual": "mismatch at n=4: x + 7*x^2 + 29*x^3 + 31*x^4 + 29*x^5 + 7*x^6 + x^7 vs 2*x + 7*x^2 + 29*x^3 + 31*x^4 + 29*x^5 + 7*x^6 + x^7",
    "series/theta": "theta-operator identity fails at n=4",
}

# The detail of each failing series check in those runs: the first index
# where the closed form and the corrupted row part, printed both ways.
# Fpoly is the row polynomial of F, so both corruptions read the same.
CORRUPTED_ROW_SERIES_DETAILS = {
    "F": _F_SERIES_DETAILS,
    "Fpoly": _F_SERIES_DETAILS,
    "R": {
        "series/egf-carlitz": "mismatch at n=3: 10 + 12*x + 2*x^2 vs 10 + 12*x + 3*x^2",
    },
    "Rq": {
        "series/egf-Rq": "mismatch at n=4: x*q + 7*x^2*q^2 + 5*x^3*q + 6*x^3*q^3 + 4*x^4*q^2 + x^4*q^4 vs x + x*q + 7*x^2*q^2 + 5*x^3*q + 6*x^3*q^3 + 4*x^4*q^2 + x^4*q^4",
        "series/inclusion-exclusion": "mismatch at n=4: x*q + 3*x^2*q^2 + 5*x^3*q + 4*x^2*y*q^2 + 4*x^4*y*q^2 + 6*x^3*y^2*q^3 + x^4*y^4*q^4 vs x + x*q + 3*x^2*q^2 + 5*x^3*q + 4*x^2*y*q^2 + 4*x^4*y*q^2 + 6*x^3*y^2*q^3 + x^4*y^4*q^4",
        "series/pde": "PDE fails at n=3 on the Rq rows",
    },
    "T": {
        "series/egf-T": "mismatch at n=4: x + 7*x^2 + 11*x^3 + 5*x^4 vs 2*x + 7*x^2 + 11*x^3 + 5*x^4",
    },
    "dpoly": {
        "series/derangement": "mismatch at n=4: x + 3*x^2 + 5*x^3 vs 2*x + 3*x^2 + 5*x^3",
    },
    "f": {
        "series/egf-f": "mismatch at n=4: x + 7*x^2 + 26*x^3 + 17*x^4 vs 2*x + 7*x^2 + 26*x^3 + 17*x^4",
    },
}


# Past every row or polynomial that `verify` reads at max_n=5, order=6.
_STORED_THROUGH = 20


def _corrupt(monkeypatch, family: str) -> list:
    """Bump entry k=1 of row 4 of `family` in its row store; return the store.

    The store is first extended past every index that verify reads, so
    every reader, however it reaches the store, sees the bumped entry, and
    no later entry is computed from it.
    """
    # fresh row stores, so corrupted rows cannot leak into later tests
    monkeypatch.setattr(families, "_TRIANGLE_ROWS", {})
    monkeypatch.setattr(families, "_POLYSEQ_POLYS", {})
    if family in families.TRIANGLE_FAMILIES:
        families.triangle(family, _STORED_THROUGH)
        store, min_n = families._TRIANGLE_ROWS[family], families._TRIANGLES[family].min_n
        row = store[4 - min_n]
        store[4 - min_n] = row[:1] + (row[1] + 1,) + row[2:]
    else:
        families.polyseq(family, _STORED_THROUGH)
        store, min_n = families._POLYSEQ_POLYS[family], families._POLYSEQS[family].min_n
        store[4 - min_n] = store[4 - min_n] + Poly.x()
    return store


@pytest.mark.parametrize("family", sorted(CORRUPTED_ROW_FAILS))
def test_corrupted_row_fails_exactly_the_checks_comparing_it(monkeypatch, family):
    store = _corrupt(monkeypatch, family)
    stored = len(store)
    report = verify.run_suite("all", max_n=5, order=6)
    assert len(store) == stored  # verify read nothing past the corrupted store
    assert len(report.checks) == 49
    failed = {c.check_id: c.detail for c in report.checks if not c.ok}
    assert set(failed) == CORRUPTED_ROW_FAILS[family]
    series = {k: v for k, v in failed.items() if k.startswith("series/")}
    assert series == CORRUPTED_ROW_SERIES_DETAILS.get(family, {})


# The checks that fail when the constant term c0 of one recurrence
# coefficient in `families._TRIANGLES` is bumped by one, at max_n=5, order=6:
# exactly the checks that read that recurrence, through its rows, through
# Fpoly, the row polynomial of F, or through `next_row`.  Rq's q coefficient
# bumps to the two-term q + 1.  R and T are Rq's data specialized at q = 2
# and q = 1, so a bumped Rq reaches every check that reads R or T as well.
_RQ_READERS = {
    "enumeration/crun-cyc-vs-Rq", "grammar/qrun-recurrence", "grammar/qrun-triangle",
    "series/egf-Rq", "series/inclusion-exclusion", "series/pde", "triangles/row-sums",
}
_R_AND_T_READERS = {
    "davidbarton/A-R-certificate", "enumeration/altrun-vs-R", "enumeration/udrun-vs-T",
    "grammar/doubled", "grammar/extraction-convolution", "grammar/updown", "series/egf-T",
    "series/egf-carlitz", "triangles/T-from-R", "triangles/leibniz-convolution",
    "triangles/root-multiplicity",
}
BUMPED_COEFF_FAILS = {
    ("F", "coeff_b"): {
        "enumeration/dual-stirling-altrun-vs-F", "enumeration/stirling-fap-vs-F",
        "grammar/plateau-F-triangle", "series/F-dual", "series/theta",
        "triangles/F-two-reassemblies",
    },
    ("Rq", "coeff_b"): _RQ_READERS | _R_AND_T_READERS | {"triangles/Rq-parity"},
    ("Rq", "coeff_c"): _RQ_READERS | _R_AND_T_READERS,
}


@pytest.mark.parametrize("family, coeff", sorted(BUMPED_COEFF_FAILS))
def test_bumped_recurrence_coefficient_fails_the_checks_reading_it(monkeypatch, family, coeff):
    spec = families._TRIANGLES[family]
    (c0, cn, ck), *higher = getattr(spec, coeff)  # the q^0 term first
    bumped = spec._replace(**{coeff: ((c0 + 1, cn, ck), *higher)})
    monkeypatch.setitem(families._TRIANGLES, family, bumped)
    if family == "Rq":  # rebuild R and T from the bumped data, as families does
        monkeypatch.setitem(families._TRIANGLES, "R", families._specialize(bumped, 2, 1))
        monkeypatch.setitem(families._TRIANGLES, "T", families._specialize(bumped, 1, 0))
    monkeypatch.setattr(families, "_TRIANGLE_ROWS", {})
    monkeypatch.setattr(families, "_POLYSEQ_POLYS", {})
    report = verify.run_suite("all", max_n=5, order=6)
    failed = {c.check_id: c.detail for c in report.checks if not c.ok}
    assert set(failed) == BUMPED_COEFF_FAILS[family, coeff]
    # each fails on a wrong row, not on an error raised by the bumped step
    for check_id, detail in failed.items():
        assert detail.startswith("mismatch at n=") or check_id in OWN_BODY, detail


def _lambdas_by_three(form):
    """`gammalab.gamma_to_lambda` with 3^(k-i) in place of 2^(k-i)."""
    m = form.base_degree // 2
    lambdas = tuple(
        sum(comb(m - i, k - i) * 3 ** (k - i) * g for i, g in enumerate(form.gammas[: k + 1]))
        for k in range(m + 1)
    )
    return gammalab.SemiGammaForm(form.base_degree % 2, m, lambdas)


def test_lambda_vs_semigamma_fails_a_wrong_conversion(monkeypatch):
    # It draws nothing by default: the palindromes x^i + x^(n-i) decide it.
    assert verify.check_gamma_to_lambda_random()[0]
    monkeypatch.setattr(gammalab, "gamma_to_lambda", _lambdas_by_three)
    ok, detail = verify.check_gamma_to_lambda_random()
    assert not ok
    assert detail.startswith("mismatch at n=2: SemiGammaForm(nu=0, half_degree=1, lambdas=")
    # spans n <= 1 have one lambda, where 3^0 = 2^0, so max_n bounds what is read
    assert verify.check_gamma_to_lambda_random(max_n=1) == (
        True, "gamma_to_lambda == semi_gamma_expand on x^i + x^(n-i) for n=0..1"
    )
    assert not verify.check_gamma_to_lambda_random(max_n=2)[0]


def test_raising_check_fails_on_its_own(monkeypatch):
    _corrupt(monkeypatch, "bpoly")
    report = verify.run_suite("triangles", max_n=5)
    details = {c.check_id: c.detail for c in report.checks if not c.ok}
    assert details["triangles/c-from-b"].startswith("NotDivisible: remainder 1 dividing")
    assert len(report.checks) == 11
