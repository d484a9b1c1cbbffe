"""Command-line behaviour: formats, determinism, exit codes."""

import json

import pytest

from altrun.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_Fpoly_4(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "Fpoly", "--n", "4")
    assert code == 0
    assert out.strip() == "x + 7*x^2 + 29*x^3 + 31*x^4 + 29*x^5 + 7*x^6 + x^7"


def test_dist_altrun(capsys):
    code, out, _ = run_cli(capsys, "dist", "--class", "perm", "--stat", "altrun", "--n", "3")
    assert code == 0
    assert out.strip() == "2*x + 4*x^2"


def test_dist_joint(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--class", "perm", "--stat", "crun,cyc", "--n", "2"
    )
    assert code == 0
    assert out.strip() == "x*q + x^2*q^2"


def test_triangle_bfile(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "--family", "R", "--rows", "1", "--format", "bfile"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1:] == ["1 0 1"]


def test_triangle_table(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "--family", "Rq", "--rows", "2", "--format", "table"
    )
    assert code == 0
    assert out.splitlines() == ["n=0: 1", "n=1: 0 | q", "n=2: 0 | q | q^2"]


def test_triangle_csv(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "--family", "T", "--rows", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,k,value", "0,0,1", "1,0,0", "1,1,1"]


def test_triangle_json_exact_strings(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "--family", "gamma", "--rows", "4", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"]["4"] == ["0", "1", "1", "10", "-15"]


def test_output_deterministic(capsys):
    first = run_cli(capsys, "triangle", "--family", "F", "--rows", "5", "--format", "json")
    second = run_cli(capsys, "triangle", "--family", "F", "--rows", "5", "--format", "json")
    assert first == second
    v1 = run_cli(capsys, "verify", "--suite", "gamma", "--max-n", "4")
    v2 = run_cli(capsys, "verify", "--suite", "gamma", "--max-n", "4")
    assert v1 == v2


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "triangles", "--max-n", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    ids = [c["check_id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert all(set(c) == {"check_id", "params", "pass", "detail"} for c in report["checks"])


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["triangle", "--family", "nope", "--rows", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("ALTRUN_BUDGET", "5")
    code, out, err = run_cli(capsys, "dist", "--class", "perm", "--stat", "altrun", "--n", "8")
    assert code == 3
    assert "budget" in err


def test_malformed_budget_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("ALTRUN_BUDGET", "abc")
    with pytest.raises(SystemExit) as err:
        main(["dist", "--class", "perm", "--stat", "altrun", "--n", "3"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "ALTRUN_BUDGET must be a positive integer, got 'abc'" in err_text
    assert "invalid literal" not in err_text


def test_verify_failure_exit_code(capsys, monkeypatch):
    from altrun import verify

    def broken(max_n=None):
        return False, "forced failure"

    monkeypatch.setattr(
        verify, "_CHECKS", {**verify._CHECKS, "gamma": [("gamma/forced", broken)]}
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "gamma")
    assert code == 1
    assert json.loads(out)["overall"] is False


def test_verify_bad_parameter_fails_its_checks_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "0")
    report = json.loads(out)
    assert code == 1
    assert len(report["checks"]) == 49
    failed = {c["check_id"]: c["detail"] for c in report["checks"] if not c["pass"]}
    assert failed["triangles/row-sums"] == "ValueError: family 'R' starts at row 1"
    assert failed["triangles/c-from-b"] == "ValueError: family 'cpoly' starts at index 1"
    assert all(
        d.startswith(("ValueError: family", "empty range n=1..0")) for d in failed.values()
    )

    code, out, _ = run_cli(capsys, "verify", "--order", "1")
    report = json.loads(out)
    assert code == 1
    assert len(report["checks"]) == 49
    failed = {c["check_id"]: c["detail"] for c in report["checks"] if not c["pass"]}
    assert failed == {"series/pde": "ValueError: order must be at least 2"}


def test_verify_budget_still_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("ALTRUN_BUDGET", "100")
    code, out, err = run_cli(capsys, "verify", "--suite", "enumeration")
    assert code == 3
    assert out == ""
    assert "budget" in err
