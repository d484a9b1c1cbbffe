"""Suite-level behaviour of `verify.run_suite`."""

from altrun import verify

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
