"""Output checks for the benchmark, independent of the code they check.

Every table output is compared against a closed form that does not come from
the recurrences in `altrun.families`, and every `verify` report against a
fixed list of check ids kept here, so a check that silently disappears from
the package counts as a failure.

Each checker takes the command's stdout and returns ``(operations, problems)``:
the number of operations the output stands for and one message per failed
operation.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

_NUMBER = r"\d+(?:/\d+)?"
_SPLIT = re.compile(r" ([+-]) ")

SUITE_IDS = {
    "enumeration": (
        "altrun-vs-R", "udrun-vs-T", "crun-cyc-vs-Rq", "derangement-crun-vs-d",
        "stirling-fap-vs-F", "dual-stirling-altrun-vs-F", "signed-desB-vs-B",
        "signed-hat-altrunB-vs-c",
    ),
    "grammar": (
        "updown", "doubled", "qrun-triangle", "qrun-recurrence",
        "plateau-F-triangle", "gamma-triangle", "halfgamma-f-triangle",
        "gamma-substitution", "halfgamma-substitution",
        "qrun-halfgamma-morphism", "extraction-convolution",
    ),
    "triangles": (
        "row-sums", "T-from-R", "root-multiplicity", "Rq-parity",
        "d-at-minus-one", "gamma-diagonal", "f-nonnegative", "b-two-routes",
        "c-from-b", "F-two-reassemblies", "leibniz-convolution",
    ),
    "davidbarton": ("A-R-certificate", "B-b-certificate", "mutation-sensitivity"),
    "series": (
        "egf-T", "egf-carlitz", "egf-Rq", "egf-f", "derangement", "parity",
        "inclusion-exclusion", "pde", "f-diagonal", "d-diagonal", "F-dual",
        "theta",
    ),
    "gamma": (
        "roundtrip", "lambda-vs-semigamma", "positivity-propagation",
        "split-halves",
    ),
}


def expected_ids(suite: str) -> frozenset[str]:
    """The check ids `altrun verify --suite <suite>` must report."""
    suites = SUITE_IDS if suite == "all" else {suite: SUITE_IDS[suite]}
    return frozenset(f"{name}/{short}" for name, ids in suites.items() for short in ids)


def parse_poly(text: str, var: str) -> dict[int, Fraction]:
    """Parse the CLI's polynomial notation (``2*q + q^3 - 1/2``) into {degree: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    parts = _SPLIT.split(text)
    signs = [1] + [1 if s == "+" else -1 for s in parts[1::2]]
    term_re = re.compile(rf"(?:({_NUMBER})\*)?{re.escape(var)}(?:\^(\d+))?|({_NUMBER})")
    coeffs: dict[int, Fraction] = {}
    for i, (sign, term) in enumerate(zip(signs, parts[0::2])):
        if i == 0 and term.startswith("-"):
            sign, term = -sign, term[1:]
        m = term_re.fullmatch(term)
        if m is None:
            raise ValueError(f"malformed term {term!r}")
        mag, power, constant = m.groups()
        if constant is not None:
            degree, value = 0, Fraction(constant)
        else:
            degree = 1 if power is None else int(power)
            value = Fraction(mag) if mag is not None else Fraction(1)
        if degree in coeffs or value == 0:
            raise ValueError(f"repeated or zero term {term!r}")
        coeffs[degree] = sign * value
    return coeffs


def _rising_factorials(max_n: int):
    """Yield the coefficient lists of q(q+1)...(q+n-1) for n = 0..max_n."""
    coeffs = [1]
    yield 0, coeffs
    for n in range(1, max_n + 1):
        shifted = [0] + coeffs
        coeffs = [s + (n - 1) * c for s, c in zip(shifted, coeffs + [0])]
        yield n, coeffs


def check_rq_bfile(text: str, rows: int) -> tuple[int, list[str]]:
    """b-file of Rq rows 0..rows: each row must sum to q(q+1)...(q+n-1).

    One operation per row.
    """
    lines = text.split("\n")
    if not lines or not lines[0].startswith(f"# family Rq: rows 0..{rows};"):
        return rows + 1, ["missing or wrong b-file header"] * (rows + 1)
    if lines[-1] != "":
        return rows + 1, ["b-file does not end with a newline"] * (rows + 1)
    body = iter(lines[1:-1])
    problems = []
    for n, expected in _rising_factorials(rows):
        total: dict[int, Fraction] = {}
        try:
            for k in range(n + 1):
                ln, lk, value = next(body).split(" ", 2)
                if (int(ln), int(lk)) != (n, k):
                    raise ValueError(f"line for n={ln} k={lk} where n={n} k={k} was due")
                for degree, c in parse_poly(value, "q").items():
                    total[degree] = total.get(degree, 0) + c
        except (StopIteration, ValueError) as exc:
            unread = f"rows {n}..{rows}: unreadable ({exc or 'truncated'})"
            return rows + 1, problems + [unread] * (rows + 1 - n)
        want = {d: c for d, c in enumerate(expected) if c}
        if {d: c for d, c in total.items() if c} != want:
            problems.append(f"row {n}: sum_k Rq(n,k) != q(q+1)...(q+n-1)")
    if next(body, None) is not None:
        problems.append(f"lines beyond row {rows}")
    return rows + 1, problems


def check_value_at_one(text: str, expected: int, what: str) -> tuple[int, list[str]]:
    """A single printed polynomial in x whose coefficients must sum to `expected`."""
    try:
        value = sum(parse_poly(text, "x").values())
    except ValueError as exc:
        return 1, [f"{what}: unreadable ({exc})"]
    if value != expected:
        return 1, [f"{what}: value at x=1 is {value}, closed form gives {expected}"]
    return 1, []


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!, as (2n)! / (2^n n!)."""
    return math.factorial(2 * n) // (2**n * math.factorial(n))


def derangements(n: int) -> int:
    """D_n by inclusion-exclusion, sum_i (-1)^i n!/i!."""
    return sum((-1) ** i * (math.factorial(n) // math.factorial(i)) for i in range(n + 1))


def check_verify(text: str, suite: str) -> tuple[int, list[str]]:
    """A `verify` JSON report: every expected check present, passing, nothing extra.

    One operation per expected check id.
    """
    want = expected_ids(suite)
    try:
        report = json.loads(text)
        got = {c["check_id"]: c["pass"] for c in report["checks"]}
        overall = report["overall"]
    except (ValueError, KeyError, TypeError) as exc:
        return len(want), [f"unreadable verify report ({exc})"] * len(want)
    problems = [f"{cid}: missing" for cid in sorted(want - got.keys())]
    problems += [f"{cid}: did not pass" for cid in sorted(want & got.keys()) if got[cid] is not True]
    problems += [f"{cid}: unexpected check" for cid in sorted(got.keys() - want)]
    if overall is not True and not problems:
        problems.append('"overall" is not true')
    if report.get("suite") != suite and not problems:
        problems.append(f"suite is {report.get('suite')!r}, not {suite!r}")
    return len(want), problems
