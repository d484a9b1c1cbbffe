"""The package's record types, and what `import altrun.cli` loads.

Each record keeps its equality, hashing, `repr` and immutability; the
start-up guard checks that importing the CLI loads every altrun module and
none of the standard library's heavier introspection modules.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import altrun
from altrun.errors import UnknownSymbol
from altrun.families import PolySeq, Triangle, _SeqSpec, _TriangleSpec
from altrun.gammalab import GammaForm, SemiGammaForm
from altrun.grammar import Grammar, parse_polynomial
from altrun.polys import Poly
from altrun.serieslab import Series
from altrun.verify import CheckResult, VerifyReport

_AB = ("a", "b")
_RULES = {"a": parse_polynomial("a*b", _AB)}
_CHECK = CheckResult("grammar/x", {}, True, "")


def test_import_cli_loads_every_module_and_no_dataclasses():
    package = Path(altrun.__file__).parent
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import altrun.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True,
        env={"PYTHONPATH": str(package.parent)},
    ).stdout
    loaded = set(json.loads(out))
    assert not {"csv", "dataclasses", "inspect"} & loaded
    modules = {f"altrun.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    assert modules | {"altrun"} <= loaded


# (record, an equal copy, a record differing in one field, its repr, hashable)
RECORDS = {
    "Triangle": (
        Triangle("R", 1, ((1,), (0, 2))), Triangle("R", 1, ((1,), (0, 2))),
        Triangle("R", 1, ((1,),)), "Triangle(name='R', min_n=1, rows=((1,), (0, 2)))", True,
    ),
    "_TriangleSpec": (
        _TriangleSpec(1, (1,), (1, -1, 1), ((0, 0, 1),), ((2, 0, 0),), ((0, 1, -1),)),
        _TriangleSpec(1, (1,), (1, -1, 1), ((0, 0, 1),), ((2, 0, 0),), ((0, 1, -1),)),
        _TriangleSpec(1, (1,), (1, -1, 1), ((0, 0, 1),), ((3, 0, 0),), ((0, 1, -1),)),
        "_TriangleSpec(min_n=1, first_row=(1,), k_max=(1, -1, 1), "
        "coeff_a=((0, 0, 1),), coeff_b=((2, 0, 0),), coeff_c=((0, 1, -1),))",
        True,
    ),
    "PolySeq": (
        PolySeq("dpoly", 0, (Poly.one(),)), PolySeq("dpoly", 0, (Poly([1]),)),
        PolySeq("dpoly", 0, (Poly.x(),)), "PolySeq(name='dpoly', min_n=0, polys=(Poly('1'),))", True,
    ),
    "_SeqSpec": (
        _SeqSpec(0, (Poly.x(),), abs), _SeqSpec(0, (Poly.x(),), abs), _SeqSpec(0, (), abs),
        "_SeqSpec(min_n=0, initial=(Poly('x'),), step=<built-in function abs>)", True,
    ),
    "GammaForm": (
        GammaForm(2, (1, 1)), GammaForm(2, (1, 1)), GammaForm(2, (1, 2)),
        "GammaForm(base_degree=2, gammas=(1, 1))", True,
    ),
    "SemiGammaForm": (
        SemiGammaForm(1, 1, (Fraction(1, 2),)), SemiGammaForm(1, 1, (Fraction(1, 2),)),
        SemiGammaForm(0, 1, (Fraction(1, 2),)),
        "SemiGammaForm(nu=1, half_degree=1, lambdas=(Fraction(1, 2),))", True,
    ),
    "Series": (
        Series((1, 2), 1), Series((1, 2), 1), Series((1, 2, 0), 2),
        "Series(egf=(1, 2), order=1)", True,
    ),
    "CheckResult": (
        CheckResult("grammar/x", {"max_n": None}, True, "ok"),
        CheckResult("grammar/x", {"max_n": None}, True, "ok"),
        CheckResult("grammar/x", {"max_n": None}, False, "ok"),
        "CheckResult(check_id='grammar/x', params={'max_n': None}, ok=True, detail='ok')", False,
    ),
    "Grammar": (
        Grammar(_AB, _RULES), Grammar(_AB, dict(_RULES)), Grammar(_AB),
        "Grammar(alphabet=('a', 'b'), rules={'a': MultiPoly('a*b', alphabet=('a', 'b'))})",
        False,
    ),
    "VerifyReport": (
        VerifyReport("grammar", [_CHECK]), VerifyReport("grammar", [_CHECK]),
        VerifyReport("grammar"),
        "VerifyReport(suite='grammar', checks=[CheckResult(check_id='grammar/x', "
        "params={}, ok=True, detail='')])",
        False,
    ),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_equality_hash_and_repr(kind):
    record, same, other, text, hashable = RECORDS[kind]
    assert record == same and not record != same
    assert record != other
    assert repr(record) == text
    if hashable:
        assert hash(record) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("kind", sorted(set(RECORDS) - {"VerifyReport"}))
def test_record_is_immutable(kind):
    record = RECORDS[kind][0]
    fields = getattr(record, "_fields", None) or type(record).__slots__
    for name in (fields[0], "tag"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_grammar_constructor_errors():
    with pytest.raises(UnknownSymbol):
        Grammar(("a",), {"b": parse_polynomial("a", ("a",))})
    with pytest.raises(ValueError, match="rule image over a different alphabet"):
        Grammar(_AB, {"a": parse_polynomial("a", ("a",))})
