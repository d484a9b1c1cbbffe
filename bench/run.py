"""End-to-end benchmark of the `altrun` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and needs nothing built: each command
is a fresh `python3 -m altrun.cli ...` process with `src/` on PYTHONPATH, one
at a time (a closed loop with one client), so the `lru_cache` state in
`families` and `serieslab` is cold on every command, as it is for a CLI user.
One pass runs the workload's commands in order; passes repeat until the next
one would end after S seconds (at least one pass).  Every output is checked
against closed forms kept in `bench/checks.py`.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics (medians over passes).  With `--trace 1` each pass is run twice, once
plain and once under `bench/tracer.py`, and the JSON holds the per-layer
metrics of the traced passes plus the tracing overhead.  Lines before it give
quartiles, sample counts, the fail ratio and the environment.  The exit code
is 0 when every output checks, 1 when one does not, and 2 when the checkout
has no `src/altrun` to run.

The workload inputs are fixed CLI arguments; `--seed` is recorded only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from math import factorial
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SETUP_PAIRS = 12
# Wall time of a bare `python3 -c pass` on the reference machine (README.md).
BARE_START_REF_S = 0.065
RUN_LIMIT_S = 170.0  # after this long a run kills its command and stops


@dataclass(frozen=True)
class Command:
    """One `altrun` invocation and the checker for its stdout."""

    argv: tuple[str, ...]
    check: Callable[[str], tuple[int, list[str]]]


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[Command, ...]


def verify_command(suite: str, *extra: str) -> Command:
    return Command(("verify", "--suite", suite) + extra, partial(checks.check_verify, suite=suite))


def tables_commands(rows: int, n_a: int, n_f: int, n_d: int) -> tuple[Command, ...]:
    def poly(family, n, expected, what):
        return Command(
            ("poly", "--family", family, "--n", str(n)),
            partial(checks.check_value_at_one, expected=expected, what=what),
        )

    return (
        Command(
            ("triangle", "--family", "Rq", "--rows", str(rows), "--format", "bfile"),
            partial(checks.check_rq_bfile, rows=rows),
        ),
        poly("eulerA", n_a, factorial(n_a), f"A_{n_a}(1) = {n_a}!"),
        poly("Fpoly", n_f, checks.double_factorial_odd(n_f), f"F_{n_f}(1) = (2n-1)!!"),
        poly("dpoly", n_d, checks.derangements(n_d), f"d_{n_d}(1) = D_{n_d}"),
    )


WORKLOADS = {
    "verify-all": Workload(
        "the headline use: all 49 checks at their defaults; enumeration-heavy, "
        "with many small, cached triangle/polyseq calls",
        (verify_command("all"),),
    ),
    "tables": Workload(
        "large exact tables: a few deep families calls, Fraction-heavy polys work "
        "and export formatting; no enumeration, grammar or series",
        tables_commands(rows=90, n_a=60, n_f=150, n_d=120),
    ),
    "series-deep": Workload(
        "the series suite at order 18 (defaults are 12): serieslab, fieldext "
        "and polys, no enumeration; shows growth in truncation order",
        (verify_command("series", "--order", "18"),),
    ),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Pass:
    """Totals over one pass of a workload's commands."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


class Runner:
    """Starts child processes for one benchmark run and checks their output."""

    def __init__(self, root: Path, started: float):
        self.root = root
        self.out = root / ".bench_out"
        self.deadline = started + RUN_LIMIT_S
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ALTRUN_BUDGET")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        self._verified: dict[tuple[tuple[str, ...], bytes], tuple[int, list[str]]] = {}

    def spawn(self, argv: list[str], env: dict[str, str] | None = None) -> tuple[bytes, int, float, float, int]:
        """Run one child to completion: (stdout, exit code, wall s, cpu s, max RSS KB)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        with open(self.out / "stderr.log", "wb") as err:
            t0 = time.perf_counter()
            with subprocess.Popen(
                argv, cwd=self.root, env=env or self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err,
            ) as proc:
                watchdog = threading.Timer(remaining, proc.kill)
                watchdog.start()
                try:
                    stdout = proc.stdout.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    watchdog.cancel()
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
        return stdout, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def stderr_tail(self) -> str:
        text = (self.out / "stderr.log").read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else "no stderr"

    def prepare(self) -> None:
        """Import once, writing the bytecode cache, and check what was imported.

        An installed package has its bytecode compiled already; writing it here,
        even where PYTHONDONTWRITEBYTECODE is set, keeps compilation out of
        every timed command.
        """
        self.out.mkdir(exist_ok=True)
        probe = "import altrun.cli, altrun; print(altrun.__file__)"
        env = {k: v for k, v in self.env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        stdout, code, *_ = self.spawn([sys.executable, "-c", probe], env=env)
        expected = self.root / "src" / "altrun" / "__init__.py"
        if code != 0 or Path(stdout.decode().strip()).resolve() != expected.resolve():
            raise SetupError(f"could not import altrun from {expected.parent}: {self.stderr_tail()}")

    def setup_times(self, pairs: int) -> tuple[list[float], list[float]]:
        """Wall times of alternating fresh `python3 -c pass` and `import altrun.cli` processes."""
        bare, imports = [], []
        for _ in range(pairs):
            for code_arg, times in (("pass", bare), ("import altrun.cli", imports)):
                _, code, wall, _, _ = self.spawn([sys.executable, "-c", code_arg])
                if code != 0:
                    raise SetupError(f"python3 -c {code_arg!r} failed: {self.stderr_tail()}")
                times.append(wall)
        return bare, imports

    def run_pass(self, workload: Workload, traced: bool) -> Pass:
        result = Pass()
        for i, command in enumerate(workload.commands):
            if traced:
                spans = self.out / f"spans-{i}.tsv"
                summary = self.out / f"summary-{i}.json"
                summary.unlink(missing_ok=True)
                prefix = [sys.executable, str(self.root / "bench" / "tracer.py"), str(spans), str(summary), "--"]
            else:
                prefix = [sys.executable, "-m", "altrun.cli"]
            stdout, code, wall, cpu, rss = self.spawn(prefix + list(command.argv))
            ops, problems = self.check(command, stdout, code)
            if traced:
                try:
                    layers = json.loads(summary.read_text())
                except (OSError, ValueError) as exc:
                    layers = {}
                    problems = problems or [f"no trace summary ({exc})"]
                wall -= layers.pop("post_s", 0.0)
                for key, value in layers.items():
                    result.layers[key] = result.layers.get(key, 0) + value
                result.layers["cli.output_bytes"] = result.layers.get("cli.output_bytes", 0) + len(stdout)
            result.wall += wall
            result.cpu += cpu
            result.rss_kb = max(result.rss_kb, rss)
            result.ops += ops
            result.failed += min(ops, len(problems))
            result.problems += [f"{' '.join(command.argv)}: {p}" for p in problems]
        return result

    def check(self, command: Command, stdout: bytes, code: int) -> tuple[int, list[str]]:
        # Identical bytes get the verdict already computed for them.
        key = (command.argv, hashlib.sha256(stdout).digest())
        if key not in self._verified:
            self._verified[key] = command.check(stdout.decode(errors="replace"))
        ops, problems = self._verified[key]
        if code != 0:
            return ops, [f"exit code {code}: {self.stderr_tail()}"] * ops
        return ops, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"cpu={cpu!r} git={git_sha(ROOT)}")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repository."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "none"


def measure(workload: Workload, runner: Runner, seconds: float, trace: bool, started: float):
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        t0 = time.perf_counter()
        try:
            plain.append(runner.run_pass(workload, traced=False))
            if trace:
                traced.append(runner.run_pass(workload, traced=True))
        except TimeoutError:
            break
        now = time.perf_counter()
        if now - started + (now - t0) > seconds:
            break
    return plain, traced


def metric_units(section: str) -> dict[str, str]:
    """Names and units of one metric section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def layer_metrics(plain: list[Pass], traced: list[Pass], units: dict[str, str]) -> dict[str, float]:
    metrics = {}
    for name, unit in units.items():
        # Counts repeat exactly from pass to pass; keep them whole numbers.
        median = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = median(p.layers.get(name, 0) for p in traced)
    enum_s = metrics["enumeration.self_s"]
    metrics["enumeration.objects_per_s"] = metrics["enumeration.objects"] / enum_s if enum_s else 0.0
    metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p.wall for p in plain)
    return metrics


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]

    started = time.perf_counter()
    if not (ROOT / "src" / "altrun" / "cli.py").is_file():
        print(f"error: no altrun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(ROOT, started)
    try:
        runner.prepare()
        bare, imports = ([], []) if args.trace else runner.setup_times(SETUP_PAIRS)
    except (SetupError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plain, traced = measure(workload, runner, args.seconds, bool(args.trace), time.perf_counter())
    if not plain or (args.trace and not traced):
        print("error: no pass completed within the run time limit", file=sys.stderr)
        return 2

    passes = plain + traced
    ops = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} commands/pass={len(workload.commands)}")
    print(f"# why: {workload.why}")
    for command in workload.commands:
        print(f"# command: altrun {' '.join(command.argv)}")
    print(f"# env: {environment()}")
    if args.trace:
        units = metric_units("per_layer")
        metrics = layer_metrics(plain, traced, units)
    else:
        # The host's speed drifts by up to half between runs minutes apart;
        # a bare interpreter start measured next to each import cancels it.
        samples = {
            "wall_s": [p.wall for p in plain],
            "cpu_s": [p.cpu for p in plain],
            "setup_s": [BARE_START_REF_S * i / b for i, b in zip(imports, bare)],
        }
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            print(f"{name:<12} {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
        print(f"{'':<12} setup_s is {BARE_START_REF_S} s x median(import / bare start); measured "
              f"medians: import {statistics.median(imports):.4f} s, bare {statistics.median(bare):.4f} s")
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["peak_rss_mb"] = max(p.rss_kb for p in plain) / 1024
        print(f"{'peak_rss_mb':<12} {metrics['peak_rss_mb']:.1f} MB  (max over {len(plain)} passes)")
        units = metric_units("end_to_end")
    print(f"{'fail_ratio':<12} {failed / ops:.4g} ratio  ({failed} of {ops} operations failed)")
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
