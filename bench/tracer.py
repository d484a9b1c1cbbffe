"""Traced run of one `altrun` CLI command, in a fresh process.

    python3 bench/tracer.py SPANS_TSV SUMMARY_JSON -- <altrun arguments>

Installs wrappers around the public entry points of each altrun module, then
calls `altrun.cli.main(argv)` with the command's stdout passing through
unchanged.  Every wrapped call records a span (layer, name, start, end,
parent span) in memory; when the command ends the spans are written to
SPANS_TSV and the per-layer totals to SUMMARY_JSON.

A layer's self time is the time of its spans minus the time of their child
spans, so time in unwrapped helpers (and in `fractions` beneath them) counts
towards the nearest wrapped caller.  Only entry points called at most about
1e5 times per workload are wrapped: the per-object enumeration statistics,
`Poly.coefficient`, `Poly.__init__` and `as_fraction` run millions of times
and wrapping them would swamp the timings.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

_CLOCK = time.perf_counter_ns

_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)

# layer -> (module, {class name or None: attribute names})
_TARGETS = {
    "polys": ("altrun.polys", {
        "Poly": _ARITH + ("__divmod__", "derivative", "evaluate", "compose", "shift", "scale_x"),
        None: ("divide_exact", "poly_gcd", "root_multiplicity", "is_symmetric"),
    }),
    "multipoly": ("altrun.multipoly", {
        "MultiPoly": _ARITH + ("derivative", "substitute", "evaluate", "as_poly", "extended"),
    }),
    "fieldext": ("altrun.fieldext", {
        "RatFunc": _ARITH + ("derivative", "evaluate"),
        "QuadExt": _ARITH + ("derivative", "conjugate", "norm", "inverse"),
    }),
    "serieslab": ("altrun.serieslab", {
        "Series": _ARITH + ("exp", "log", "sqrt", "pow_rational", "scale_z"),
        None: (
            "exp_cz", "sin_cz", "cos_cz", "egf_T", "egf_carlitz", "egf_Rq", "egf_f",
            "egf_derangement", "check_egf_T", "check_egf_carlitz", "check_egf_Rq",
            "check_egf_f", "check_derangement_egf", "check_parity_symmetry",
            "check_inclusion_exclusion", "check_f_diagonal", "check_d_diagonal",
            "check_F_dual_at", "check_F_dual_certificate", "pde_check",
            "theta_power_r", "theta_expected", "theta_expected_odd_form", "theta_check",
        ),
    }),
    "grammar": ("altrun.grammar", {
        "Grammar": ("parse", "derive", "iterate"),
        None: ("extract_row", "entries_as_fractions", "entries_as_polys",
               "named_grammar", "parse_polynomial"),
    }),
    "gammalab": ("altrun.gammalab", {
        "GammaForm": ("reassemble",),
        "SemiGammaForm": ("reassemble",),
        None: ("gamma_expand", "semi_gamma_expand", "gamma_to_lambda", "split_even_odd",
               "david_barton_assemble", "default_samples", "david_barton_identity_check"),
    }),
    "families": ("altrun.families", {
        None: ("triangle", "polyseq", "eulerian", "q_specialize",
               "inclusion_exclusion_Rxy", "export_bfile", "export_csv", "export_json"),
    }),
    "enumeration": ("altrun.enumeration", {None: ("distribution", "generate")}),
}

_EXPORTS = {"export_bfile", "export_csv", "export_json"}


class Tracer:
    """Spans and counters for one traced command."""

    def __init__(self):
        # Span i is (sites[site[i]], start[i], end[i], parent[i]); parent -1
        # marks a root.  Flat arrays keep the spans out of the cyclic garbage
        # collector, which would otherwise rescan every stored span.
        self.sites: list[tuple[str, str]] = []  # (layer, name) per wrapped entry point
        self.site = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.objects = 0
        self.family_rows: list[tuple[str, int, int]] = []
        self.check_results: list[bool] = []

    def wrap(self, layer: str, name: str, fn, observe=None):
        site_id = len(self.sites)
        self.sites.append((layer, name))
        site, start, end, parent, stack = self.site, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            site.append(site_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(_CLOCK())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = _CLOCK()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers ---------------------------------------------------------

    def _count_objects(self, args, _result):
        self.objects += self._cardinality(args[0], args[1])

    def _note_rows(self, args, result):
        size = len(result.rows) if hasattr(result, "rows") else len(result.polys)
        self.family_rows.append((args[0], result.min_n, result.min_n + size - 1))

    def _note_check(self, _args, result):
        self.check_results.append(result[0] is True)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import altrun.cli  # noqa: F401  (loads every altrun module)
        from altrun import enumeration, verify

        self._cardinality = enumeration.cardinality

        observers = {
            ("enumeration", "generate"): self._count_objects,
            ("families", "triangle"): self._note_rows,
            ("families", "polyseq"): self._note_rows,
        }
        for layer, (modname, groups) in _TARGETS.items():
            module = sys.modules[modname]
            for clsname, attrs in groups.items():
                for attr in attrs:
                    observe = observers.get((layer, attr))
                    if clsname is None:
                        self._patch_global(module, attr, layer, observe)
                    else:
                        self._patch_method(getattr(module, clsname), attr, layer)
        # `verify._CHECKS` holds the check functions themselves, so patching
        # `verify.check_*` would not intercept them; wrap the table entries.
        for entries in verify._CHECKS.values():
            for i, (check_id, fn) in enumerate(entries):
                entries[i] = (check_id, self.wrap("verify", check_id, fn, self._note_check))

    def _patch_global(self, module, attr, layer, observe) -> None:
        original = getattr(module, attr)
        traced = self.wrap(layer, attr, original, observe)
        # Rebind every altrun module global that refers to this function, so
        # `from .polys import poly_gcd` in another module is intercepted too.
        for name, mod in list(sys.modules.items()):
            if name == "altrun" or name.startswith("altrun."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def _patch_method(self, cls, attr, layer) -> None:
        static = cls.__dict__.get(attr)
        if static is None:  # not every class defines every operator in _ARITH
            return
        name = f"{cls.__name__}.{attr}"
        if isinstance(static, classmethod):
            setattr(cls, attr, classmethod(self.wrap(layer, name, static.__func__)))
        else:
            setattr(cls, attr, self.wrap(layer, name, static))

    # -- aggregation -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics for this command (seconds, counts)."""
        spans = list(zip(self.site, self.start, self.end, self.parent))
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        export_ns = 0
        suite_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, (site, start, end, _) in enumerate(spans):
            layer, name = self.sites[site]
            own = end - start - child_ns[i]
            self_ns[layer] += own
            calls[layer, name] += 1
            if name in _EXPORTS:
                export_ns += own
            if layer == "verify":
                suite_ns[name.split("/", 1)[0]] += end - start

        def count(layer, prefix=""):
            return sum(n for (lay, name), n in calls.items() if lay == layer and name.startswith(prefix))

        distinct: dict[str, tuple[int, int]] = {}
        for name, lo, hi in self.family_rows:
            old = distinct.get(name, (lo, hi))
            distinct[name] = (min(lo, old[0]), max(hi, old[1]))
        layers = ("enumeration", "families", "polys", "multipoly", "fieldext",
                  "serieslab", "grammar", "gammalab", "verify", "cli")
        out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in layers if layer != "verify"}
        out.update({
            "enumeration.objects": self.objects,
            "families.calls": count("families", "triangle") + count("families", "polyseq"),
            "families.rows_requested": sum(hi - lo + 1 for _, lo, hi in self.family_rows),
            "families.rows_distinct": sum(hi - lo + 1 for lo, hi in distinct.values()),
            "families.export_s": export_ns / 1e9,
            "polys.mul_calls": count("polys", "Poly.__mul__") + count("polys", "Poly.__rmul__"),
            "polys.gcd_calls": count("polys", "poly_gcd"),
            "multipoly.ops": count("multipoly"),
            "fieldext.ratfunc_ops": count("fieldext", "RatFunc."),
            "fieldext.quadext_ops": count("fieldext", "QuadExt."),
            "serieslab.series_ops": count("serieslab", "Series."),
            "grammar.derive_calls": count("grammar", "Grammar.derive"),
            "gammalab.calls": count("gammalab"),
            "verify.checks": len(self.check_results),
            "verify.checks_failed": self.check_results.count(False),
        })
        for suite in ("enumeration", "series", "gamma", "triangles", "grammar", "davidbarton"):
            out[f"verify.suite_s.{suite}"] = suite_ns[suite] / 1e9
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tname\tstart_ns\tend_ns\n")
            for i, (site, start, end, parent) in enumerate(
                zip(self.site, self.start, self.end, self.parent)
            ):
                layer, name = self.sites[site]
                fh.write(f"{i}\t{parent}\t{layer}\t{name}\t{start}\t{end}\n")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_TSV SUMMARY_JSON -- <altrun arguments>", file=sys.stderr)
        return 2
    spans_path, summary_path, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    from altrun import cli

    main_fn = tracer.wrap("cli", "cli.main", cli.main)
    try:
        code = main_fn(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    after_main = _CLOCK()
    tracer.write_spans(spans_path)
    summary = tracer.summary()
    summary["post_s"] = (_CLOCK() - after_main) / 1e9
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
