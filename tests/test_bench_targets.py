"""Every entry point that the traced benchmark wraps still exists.

`bench/tracer.py` wraps the names in its `_TARGETS` table with `getattr`, so
a renamed or deleted module, class or module-level function crashes every
traced run.  This test reads that table and resolves each name, without
installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("altrun_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


_TRACER = _load_tracer()


@pytest.mark.parametrize("layer", sorted(_TRACER._TARGETS))
def test_traced_names_resolve(layer):
    modname, groups = _TRACER._TARGETS[layer]
    module = importlib.import_module(modname)
    for clsname, attrs in groups.items():
        if clsname is None:
            missing = [a for a in attrs if not callable(getattr(module, a, None))]
            assert not missing, f"{modname} lacks functions {missing}"
            continue
        cls = getattr(module, clsname, None)
        assert isinstance(cls, type), f"{modname} lacks class {clsname}"
        # The arithmetic operators are wrapped only where a class defines them;
        # every other named method must exist.
        methods = [a for a in attrs if a not in _TRACER._ARITH]
        missing = [a for a in methods if not callable(getattr(cls, a, None))]
        assert not missing, f"{modname}.{clsname} lacks methods {missing}"


def test_distribution_streams_through_the_module_generate(monkeypatch):
    # The tracer counts `enumeration.objects` on the module-global `generate`;
    # a `distribution` that called a private generator would read 0 objects.
    from altrun import enumeration

    calls = []
    real = enumeration.generate

    def counting(kind, n):
        calls.append((kind, n))
        return real(kind, n)

    monkeypatch.setattr(enumeration, "generate", counting)
    for kind in enumeration.CLASSES:
        names = sorted(enumeration._STATS_BY_CLASS[kind])
        enumeration.distribution(kind, 2, [(names[0], "x")])
        enumeration.distribution(kind, 2, [(names[0], "x"), (names[1], "q")])
    assert calls == [(kind, 2) for kind in enumeration.CLASSES for _ in range(2)]
