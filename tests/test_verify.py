"""Suite-level behaviour of `verify.run_suite`."""

import pytest

from altrun import families, verify
from altrun.families import PolySeq, Triangle
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


# Checks that fail when entry k=1 of row 4 of one family is bumped by one,
# at max_n=5, order=6: exactly the checks that compare that row by a second
# route.  A registry row that stops comparing drops out of its set.
CORRUPTED_ROW_FAILS = {
    "F": {
        "enumeration/dual-stirling-altrun-vs-F",
        "enumeration/stirling-fap-vs-F",
        "grammar/plateau-F-triangle",
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


def _corrupt(monkeypatch, family: str) -> None:
    """Bump entry k=1 of row 4 of `family` in everything verify reads."""
    # fresh row stores, so corrupted rows cannot leak into later tests
    monkeypatch.setattr(families, "_TRIANGLE_ROWS", {})
    monkeypatch.setattr(families, "_POLYSEQ_POLYS", {})
    triangle, polyseq, eulerian = families.triangle, families.polyseq, families.eulerian

    def bumped_triangle(name, max_n):
        tri = triangle(name, max_n)
        if name != family or tri.max_n < 4:
            return tri
        rows = list(tri.rows)
        row = list(rows[4 - tri.min_n])
        row[1] = row[1] + 1
        rows[4 - tri.min_n] = tuple(row)
        return Triangle(tri.name, tri.min_n, tuple(rows))

    def bumped_polyseq(name, max_n):
        seq = polyseq(name, max_n)
        if name != family or seq.max_n < 4:
            return seq
        polys = list(seq.polys)
        polys[4 - seq.min_n] = polys[4 - seq.min_n] + Poly.x()
        return PolySeq(seq.name, seq.min_n, tuple(polys))

    def bumped_eulerian(n, kind):
        poly = eulerian(n, kind)
        return poly + Poly.x() if (n, "euler" + kind) == (4, family) else poly

    if family in families.TRIANGLE_FAMILIES:
        monkeypatch.setattr(families, "triangle", bumped_triangle)
    elif family in ("eulerA", "eulerB"):
        monkeypatch.setattr(families, "eulerian", bumped_eulerian)
    else:
        monkeypatch.setattr(families, "polyseq", bumped_polyseq)


@pytest.mark.parametrize("family", sorted(CORRUPTED_ROW_FAILS))
def test_corrupted_row_fails_exactly_the_checks_comparing_it(monkeypatch, family):
    _corrupt(monkeypatch, family)
    report = verify.run_suite("all", max_n=5, order=6)
    assert len(report.checks) == 49
    failed = {c.check_id for c in report.checks if not c.ok}
    assert failed == CORRUPTED_ROW_FAILS[family]


def test_raising_check_fails_on_its_own(monkeypatch):
    _corrupt(monkeypatch, "bpoly")
    report = verify.run_suite("triangles", max_n=5)
    details = {c.check_id: c.detail for c in report.checks if not c.ok}
    assert details["triangles/c-from-b"].startswith("NotDivisible: remainder 1 dividing")
    assert len(report.checks) == 11
