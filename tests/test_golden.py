"""Byte-identity of CLI output against stored golden files.

Each case is one `altrun` command; its stdout must equal the file of the
same name under `tests/data/golden/` byte for byte.  To rewrite the files
from the current tree (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from altrun import families, verify
from altrun.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

CASES: dict[str, list[str]] = {}
for _family in families.TRIANGLE_FAMILIES:
    for _fmt in ("table", "bfile", "csv", "json"):
        CASES[f"triangle-{_family}-12.{_fmt}"] = [
            "triangle", "--family", _family, "--rows", "12", "--format", _fmt
        ]
for _family in families.POLY_FAMILIES:
    CASES[f"poly-{_family}-20.txt"] = ["poly", "--family", _family, "--n", "20"]
CASES["dist-perm-altrun-6.txt"] = ["dist", "--class", "perm", "--stat", "altrun", "--n", "6"]
CASES["dist-perm-crun-cyc-6.txt"] = ["dist", "--class", "perm", "--stat", "crun,cyc", "--n", "6"]
CASES["dist-perm-altrun-des-7.txt"] = ["dist", "--class", "perm", "--stat", "altrun,des", "--n", "7"]
CASES["dist-dual_stirling-altrun-udrun-5.txt"] = [
    "dist", "--class", "dual_stirling", "--stat", "altrun,udrun", "--n", "5"
]
CASES["dist-dual_stirling-altrun-6.txt"] = [
    "dist", "--class", "dual_stirling", "--stat", "altrun", "--n", "6"
]
CASES["dist-stirling-ap-fap-5.txt"] = ["dist", "--class", "stirling", "--stat", "ap,fap", "--n", "5"]
CASES["dist-signed-desB-altrunB-4.txt"] = [
    "dist", "--class", "signed", "--stat", "des_B,altrun_B", "--n", "4"
]
CASES["dist-signed_hat-altrunB-5.txt"] = [
    "dist", "--class", "signed_hat", "--stat", "altrun_B", "--n", "5"
]
CASES["dist-derangement-crun-7.txt"] = ["dist", "--class", "derangement", "--stat", "crun", "--n", "7"]
CASES["verify-all-defaults.json"] = ["verify", "--suite", "all"]
CASES["verify-all-n7-o10.json"] = ["verify", "--suite", "all", "--max-n", "7", "--order", "10"]


def run_capture(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = run_capture(CASES[name])
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suite_matches_its_part_of_the_golden_report(suite):
    """`verify --suite S` prints the S/ checks of the stored `--suite all` report."""
    full = json.loads((GOLDEN_DIR / "verify-all-n7-o10.json").read_text())
    checks = [c for c in full["checks"] if c["check_id"].startswith(suite + "/")]
    assert checks
    expected = json.dumps(
        {"suite": suite, "checks": checks, "overall": all(c["pass"] for c in checks)},
        indent=2,
    )
    code, out = run_capture(["verify", "--suite", suite, "--max-n", "7", "--order", "10"])
    assert code == 0
    assert out == (expected + "\n").encode("utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = run_capture(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN_DIR / name).write_bytes(out)
        print(f"wrote {name} ({len(out)} bytes)")
