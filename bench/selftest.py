"""Self-test of the benchmark; run from the checkout root:

    python3 bench/selftest.py

1. Runs every workload at a tiny size, traced and untraced, and asserts that
   each emits exactly the metrics BENCHMARK.json names, with their units,
   and that the traced run sees work in the layers the workload exercises.
2. Corrupts real outputs (one changed coefficient; one removed check id) and
   asserts that every output check rejects them.
3. Runs the benchmark from a directory holding only BENCHMARK.json and
   bench/, and asserts that it exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import run
from run import ROOT, Workload, tables_commands, verify_command

TINY = {
    "verify-all": Workload("tiny", (verify_command("all", "--max-n", "4", "--order", "4"),)),
    "tables": Workload("tiny", tables_commands(rows=8, n_a=6, n_f=8, n_d=8)),
    "series-deep": Workload("tiny", (verify_command("series", "--order", "6"),)),
}

# Per-layer counters that must be nonzero (True) or zero (False) per workload.
LAYER_WORK = {
    "verify-all": {
        "enumeration.objects": True, "families.calls": True, "polys.mul_calls": True,
        "multipoly.ops": True, "grammar.derive_calls": True, "gammalab.calls": True,
        "serieslab.series_ops": True, "fieldext.ratfunc_ops": True,
        "verify.suite_s.davidbarton": True, "families.export_s": False,
    },
    "tables": {
        "enumeration.objects": False, "families.export_s": True, "families.calls": True,
        "polys.mul_calls": True, "multipoly.ops": False, "serieslab.series_ops": False,
        "verify.checks": False, "cli.output_bytes": True,
    },
    "series-deep": {
        "enumeration.objects": False, "fieldext.ratfunc_ops": True,
        "fieldext.quadext_ops": True, "serieslab.series_ops": True, "polys.gcd_calls": True,
        "verify.checks": True, "verify.suite_s.series": True, "verify.suite_s.enumeration": False,
    },
}


def run_tiny(name: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            workloads=TINY,
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_metrics_emitted(spec: dict) -> None:
    assert set(TINY) == set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    for name in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_tiny(name, trace)
            assert code == 0, (name, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert all(isinstance(v, (int, float)) for v in values.values())
            if trace:
                for metric, busy in LAYER_WORK[name].items():
                    assert (values[metric] > 0) == busy, (name, metric, values[metric])
                assert values["verify.checks_failed"] == 0
            else:
                assert all(v > 0 for v in values.values()), (name, values)
            print(f"ok   {name} trace={trace}: {len(values)} metrics")


def cli_output(argv: tuple[str, ...]) -> str:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    proc = subprocess.run(
        [sys.executable, "-m", "altrun.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def bump_last_coefficient(text: str) -> str:
    """Change one coefficient: the last `<digits>*` in the text, plus one."""
    m = list(re.finditer(r"(\d+)\*", text))[-1]
    return text[: m.start(1)] + str(int(m.group(1)) + 1) + text[m.end(1):]


def drop_first_check(text: str) -> str:
    report = json.loads(text)
    report["checks"].pop(0)
    return json.dumps(report, indent=2)


def test_checks_reject_corruption() -> None:
    commands = [c for w in TINY.values() for c in w.commands]
    for command in commands:
        text = cli_output(command.argv)
        ops, problems = command.check(text)
        assert ops >= 1 and problems == [], (command.argv, problems)
        corrupt = drop_first_check if command.argv[0] == "verify" else bump_last_coefficient
        bad = corrupt(text)
        assert bad != text
        ops, problems = command.check(bad)
        assert problems, f"check accepted a corrupted output of {command.argv}"
        print(f"ok   rejects corrupted `altrun {' '.join(command.argv)}`: {problems[0]}")


def test_fails_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok   exits {proc.returncode} without sources: {proc.stderr.strip()}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_metrics_emitted(spec)
    test_checks_reject_corruption()
    test_fails_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
