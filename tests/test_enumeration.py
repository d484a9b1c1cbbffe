"""Generators, statistics, and brute-force distributions."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from altrun import enumeration as en
from altrun.errors import InvalidStirlingWord, SizeLimit, StatClassMismatch
from altrun.families import polyseq, triangle
from altrun.multipoly import MultiPoly
from altrun.polys import Poly


def test_generate_counts():
    assert len(list(en.generate("perm", 3))) == 6
    assert len(list(en.generate("signed", 3))) == 48
    assert len(list(en.generate("signed_hat", 3))) == 24
    assert len(list(en.generate("stirling", 3))) == 15
    assert len(list(en.generate("dual_stirling", 3))) == 15
    assert len(list(en.generate("derangement", 4))) == 9


def test_generate_small_streams():
    assert list(en.generate("stirling", 2)) == [
        (1, 1, 2, 2),
        (1, 2, 2, 1),
        (2, 2, 1, 1),
    ]
    assert list(en.generate("derangement", 3)) == [(2, 3, 1), (3, 1, 2)]
    assert list(en.generate("perm", 0)) == [()]
    assert list(en.generate("stirling", 0)) == [()]


def test_streams_are_lexicographic():
    for kind, n in (("perm", 4), ("signed", 3), ("signed_hat", 3),
                    ("stirling", 4), ("stirling", 7), ("dual_stirling", 4),
                    ("dual_stirling", 7), ("derangement", 6), ("derangement", 9)):
        words = list(en.generate(kind, n))
        assert words == sorted(words)
        assert len(set(words)) == len(words) == en.cardinality(kind, n)


def test_stirling_words_are_valid_by_construction():
    for n in range(7):
        for word in en.generate("stirling", n):
            assert en._check_stirling(word) == n


def test_dual_stirling_stream_is_the_doubled_stirling_stream():
    for n in range(7):
        doubled = [en.dual_map(w) for w in en.generate("stirling", n)]
        assert list(en.generate("dual_stirling", n)) == doubled


def test_derangements_are_the_fixed_point_free_permutations():
    for n in range(10):
        expected = [
            w for w in permutations(range(1, n + 1))
            if all(v != i for i, v in enumerate(w, start=1))
        ]
        assert list(en.generate("derangement", n)) == expected


def test_tail_table_does_not_outlive_its_stream():
    # With the cyclic collector off, memory must return to its level before
    # the stream once the stream is drained, or half read and closed.  The
    # completion memo holds over 200 kB while the stream is read; the
    # stream's recursive closures, left to the collector, are a few kB.
    # Freed tuples stay on CPython's free lists, where tracemalloc still
    # counts them, so one drain and one half read warm those lists first.
    def allocated():
        return tracemalloc.get_traced_memory()[0]

    def drain():
        return sum(1 for _ in en.generate("dual_stirling", 7))

    def half_read_and_close():
        words = en.generate("dual_stirling", 7)
        for _ in zip(range(60000), words):
            pass
        reading = allocated()
        words.close()
        return reading

    gc.disable()
    tracemalloc.start()
    try:
        drain()
        half_read_and_close()
        start = allocated()
        assert drain() == 135135
        drained = allocated() - start
        reading = half_read_and_close() - start
        closed = allocated() - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert reading > 64 * 1024
    assert drained < 8 * 1024 and closed < 8 * 1024


def test_signed_hat_requires_positive_start():
    assert all(w[0] > 0 for w in en.generate("signed_hat", 3))
    with pytest.raises(ValueError):
        en.cardinality("signed_hat", 0)


def test_altrun_udrun_example():
    word = (3, 2, 4, 1, 5, 6)
    assert en.altrun(word) == 4
    assert en.udrun(word) == 5


def test_altrun_boundary_conventions():
    assert en.altrun((1,)) == 0
    assert en.altrun(()) == 0
    assert en.udrun(()) == 0
    assert en.udrun((1,)) == 1


def test_crun_examples():
    assert en.crun((1, 2, 3)) == 3  # (1)(2)(3)
    assert en.crun((3, 1, 2)) == 3  # cycle (1 3 2)
    assert en.cycle_runs((1, 3, 2)) == 3
    # crun(w) = 2 cpk(w) + 1 on single cycles
    for word in en.generate("perm", 5):
        cycles = en.cycle_canonical(word)
        for cyc in cycles:
            # appended infinity sentinel: the final entry is never a peak
            peaks = sum(
                1
                for i in range(1, len(cyc) - 1)
                if cyc[i - 1] < cyc[i] > cyc[i + 1]
            )
            assert en.cycle_runs(cyc) == 2 * peaks + 1


def test_canonical_cycles_start_at_their_minima_in_increasing_order():
    # The premise of the canonical-cycle-form walk, which opens each cycle
    # at the least value left; the round trip through cycles_to_word does
    # not check it.
    for n in range(8):
        for word in permutations(range(1, n + 1)):
            cycles = en.cycle_canonical(word)
            minima = [c[0] for c in cycles]
            assert all(c[0] == min(c) for c in cycles), word
            assert minima == sorted(set(minima)), word


def test_fap_is_ap_plus_la_off_stirling_words():
    # fap = ap + la = 2 ap + [0 < w1 == w2].  test_dual_map_invariants_through_7
    # covers every Stirling word n <= 7; here the prepended 0 adds no
    # plateau, or the word is too short for one.
    for word in ((0, 0, 1), (-1, -1), (2, 1, 1), (1,), (), (1, 1, 2, 2)):
        fap = 2 * en.ascent_plateaus(word) + (len(word) > 1 and 0 < word[0] == word[1])
        assert en.flag_ascent_plateaus(word) == fap


def test_runs_reject_equal_neighbours():
    for stat_fn, word in ((en.altrun, (1, 2, 2)), (en.altrun, (2, 1, 1)),
                          (en.udrun, (1, 1)), (en.udrun, (-1, 2, 2))):
        with pytest.raises(ValueError, match="equal neighbours"):
            stat_fn(word)


def test_cycle_canonical_examples():
    assert en.cycle_canonical((2, 3, 1)) == ((1, 2, 3),)
    assert en.cycle_canonical((2, 1, 4, 3)) == ((1, 2), (3, 4))
    assert en.cycle_canonical((3, 1, 2)) == ((1, 3, 2),)
    assert en.crun_of_cycles(((1,), (2,), (3,))) == 3


def test_cycle_canonical_is_bijective():
    for n in range(9):
        for word in en.generate("perm", n):
            assert en.cycles_to_word(en.cycle_canonical(word), n) == word


def test_dual_map_examples():
    assert en.dual_map((2, 2, 1, 3, 3, 1)) == (4, 3, 2, 6, 5, 1)
    assert en.dual_map((1, 1)) == (2, 1)
    assert en.dual_map((1, 1, 2, 2)) == (2, 1, 4, 3)


def test_dual_map_rejects_invalid():
    with pytest.raises(InvalidStirlingWord):
        en.dual_map((2, 1, 1, 2))  # 1-pair inside the 2-pair
    with pytest.raises(InvalidStirlingWord):
        en.dual_map((1, 1, 1))
    with pytest.raises(InvalidStirlingWord):
        en.dual_map((1, 2, 2))


def test_dual_map_invariants_through_7():
    for n in range(1, 8):
        for sw in en.generate("stirling", n):
            img = en.dual_map(sw)
            fap = en.flag_ascent_plateaus(sw)
            assert fap == en.altrun(img)
            assert fap == 2 * en.ascent_plateaus(sw) + (sw[0] == sw[1])
            # images always end with a descending run
            assert img[-2] > img[-1]


def test_dual_map_pair_positions():
    # 2j precedes 2j-1 and everything between them is larger than 2j
    for n in range(1, 6):
        for sw in en.generate("stirling", n):
            img = en.dual_map(sw)
            for j in range(1, n + 1):
                lo = img.index(2 * j)
                hi = img.index(2 * j - 1)
                assert lo < hi
                assert all(v > 2 * j for v in img[lo + 1 : hi])


def test_as_equals_udrun():
    for n in range(1, 9):
        for word in en.generate("perm", n):
            assert en.longest_alternating_subsequence(word) == en.udrun(word)


def test_signed_altrun_examples():
    for word, runs in (((1, 2), 1), ((2, -1), 2), ((1,), 1)):
        assert en.signed_altrun(word) == en.stat(word, "altrun_B", "signed") == runs


def test_distribution_examples():
    assert en.distribution("perm", 3, [("altrun", "x")]).as_poly("x") == Poly([0, 2, 4])
    assert en.distribution("stirling", 2, [("fap", "x")]).as_poly("x") == Poly(
        [0, 1, 1, 1]
    )
    rq3 = en.distribution("perm", 3, [("crun", "x"), ("cyc", "q")])
    assert rq3 == triangle("Rq", 3).row_multipoly(3)


TAIL_CLASSES = ("perm", "signed", "signed_hat", "derangement", "stirling", "dual_stirling")


def _sizes(kind, largest=7):
    """n = 0..largest, one less for the signed classes; signed_hat starts at 1."""
    return range(1 if kind == "signed_hat" else 0, largest + (0 if kind.startswith("signed") else 1))


def _word_distribution(kind, n, stats):
    fns = [en._statistic(kind, name) for name, _ in stats]
    counts = Counter(tuple(fn(w) for fn in fns) for w in en.generate(kind, n))
    return MultiPoly(tuple(var for _, var in stats), counts)


def _fold_mismatches(kind, stats, sizes):
    """The n at which `distribution` of `stats` differs from a word-by-word count."""
    return [n for n in sizes
            if en.distribution(kind, n, stats) != _word_distribution(kind, n, stats)]


def _as_stats(names):
    return [(name, f"x{i}") for i, name in enumerate(names)]


def _local_names(kind):
    return [name for name, fn in en._STATS_BY_CLASS[kind].items() if fn in en._LOCAL_STATS]


def _local_tuples(kind):
    """Each local statistic of `kind` alone, every ordered pair of distinct
    ones, and (altrun, altrun) where the class has altrun."""
    names = _local_names(kind)
    repeated = [("altrun", "altrun")] if "altrun" in names else []
    return [(name,) for name in names] + list(permutations(names, 2)) + repeated


def test_blocks_join_into_the_stream():
    for kind in TAIL_CLASSES:
        for n in _sizes(kind):
            joined = [p + t for p, _, tails in en._blocks(*en._WALKS[kind](n)) for t in tails]
            assert joined == list(en.generate(kind, n)), (kind, n)


def test_local_fold_equals_the_word_fold(monkeypatch):
    folded, calls = [], 0
    real = en._local_fold
    monkeypatch.setattr(en, "_local_fold", lambda *a: folded.append(a) or real(*a))
    tuples = 0
    for kind in TAIL_CLASSES:
        for names in _local_tuples(kind):
            tuples += 1
            calls += len(_sizes(kind, 6))
            assert _fold_mismatches(kind, _as_stats(names), _sizes(kind, 6)) == [], (kind, names)
    # altrun, udrun, des on three classes: 3 alone, 6 pairs and (altrun,
    # altrun); des_B, altrun_B on two: 2 and 2; ap, la, fap: 3 and 6
    assert tuples == 3 * 10 + 2 * 4 + 9
    assert len(folded) == calls


def test_no_folded_statistic_reaches_the_stride():
    # `_stride` is a bound written in its docstring; here no value reaches
    # it on any word at n <= 7 (signed <= 6).  The widest fold of each
    # class, all its local statistics at once (and crun, cyc on the classes
    # of `_SHORTEST`), must equal the word count there too.
    for kind in TAIL_CLASSES:
        for names in [_local_names(kind)] + [["crun", "cyc"]] * (kind in en._SHORTEST):
            stats = _as_stats(names)
            for n in _sizes(kind):
                words = _word_distribution(kind, n, stats)
                assert max(map(max, words.terms), default=0) < en._stride(n), (kind, names, n)
                assert en.distribution(kind, n, stats) == words, (kind, names, n)


def test_too_small_a_stride_breaks_the_joint_fold(monkeypatch):
    # n + 1 exceeds every statistic of a permutation, but not fap or the
    # runs of the 2n letters of a dual Stirling word, so a value carries
    # into the next statistic's digit.
    monkeypatch.setattr(en, "_stride", lambda n: n + 1)
    for kind, names in (("stirling", ("ap", "fap")), ("dual_stirling", ("altrun", "udrun"))):
        assert _fold_mismatches(kind, _as_stats(names), _sizes(kind, 6)), kind


def test_fold_memo_does_not_outlive_its_call():
    # With the cyclic collector off, memory must return to its level before
    # the call: the fold refers to itself, and unless that cycle is broken
    # when it returns, its memo (over 1 MB here) waits for the collector.
    # What is left is the tuple free lists' churn, a few kB.
    def allocated():
        return tracemalloc.get_traced_memory()[0]

    gc.disable()
    tracemalloc.start()
    try:
        en.distribution("stirling", 7, [("fap", "x")])  # warm the free lists
        start = allocated()
        dist = en.distribution("stirling", 7, [("fap", "x")])
        peak = tracemalloc.get_traced_memory()[1] - start
        del dist
        left = allocated() - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak > 1024 * 1024
    assert left < 64 * 1024


def test_a_memo_keyed_by_the_last_letter_alone_breaks_the_fold(monkeypatch):
    # Whether the next letter turns a run or makes a plateau depends on the
    # last two letters, so completions shared by (state, last letter) are
    # miscounted.
    real = en._fold

    def last_letter_keys(root, steps, done, bound):
        def coarse(node):
            for shift, (state, key), child in steps(node):
                yield shift, (state, key[-1:]), child

        return real(root, coarse, done, bound)

    monkeypatch.setattr(en, "_fold", last_letter_keys)
    for kind, name in (("perm", "altrun"), ("dual_stirling", "altrun"), ("stirling", "fap")):
        assert _fold_mismatches(kind, [(name, "x")], _sizes(kind)), (kind, name)


def test_a_decreasing_local_statistic_raises(monkeypatch):
    # A step that lowers a statistic would need a negative shift of the
    # packed counts.  Each step of (-altrun, altrun) shifts by (stride - 1)
    # times what it adds to altrun, never below 0, so only a check of each
    # statistic on its own catches the fall of the first.
    def negated(word):
        return -en.altrun(word)

    monkeypatch.setitem(en._PERM_STATS, "negated", negated)
    monkeypatch.setattr(en, "_LOCAL_STATS", en._LOCAL_STATS | {negated})
    for stats in ([("negated", "x")], [("negated", "x"), ("altrun", "y")]):
        with pytest.raises(ValueError, match="negative shift count"):
            en.distribution("perm", 4, stats)


def inversions(word):
    return sum(a > b for a, b in combinations(word, 2))


@pytest.mark.parametrize("name, fn", [("fix", en.fixed_points), ("inv", inversions)])
def test_a_nonlocal_statistic_in_the_local_set_breaks_the_fold(monkeypatch, name, fn):
    # Fixed points depend on positions and inversions on every pair, so
    # neither satisfies f(p + t) = f(p) + f(p[-2:] + t) - f(p[-2:]); folding
    # either through the tail tables must give a wrong distribution.  (The
    # longest alternating subsequence cannot serve here: on words with
    # distinct letters it equals udrun, which is local; see
    # test_as_equals_udrun.)
    monkeypatch.setitem(en._PERM_STATS, name, fn)
    monkeypatch.setattr(en, "_LOCAL_STATS", en._LOCAL_STATS | {fn})
    assert _fold_mismatches("dual_stirling", [(name, "x")], _sizes("dual_stirling"))


def test_distribution_total_mass():
    for n in range(7):
        dist = en.distribution("perm", n, [("altrun", "x")])
        assert dist.evaluate({"x": 1}) == math.factorial(n)


def test_stat_dispatch():
    assert en.stat((3, 2, 4, 1, 5, 6), "altrun") == 4
    assert en.stat((2, -1), "altrun_B", "signed") == 2
    assert en.stat((1, 1, 2, 2), "fap", "stirling") == 3
    with pytest.raises(StatClassMismatch):
        en.stat((1, 2), "fap", "perm")
    with pytest.raises(StatClassMismatch):
        en.stat((1, 2), "altrun", "signed")


NOT_PERMUTATIONS = ((1, 1), (0, 1), (3, 1, 1), (2,))

_STAT_ON_NON_PERMUTATIONS = f"""
from altrun import enumeration as en
for word in {NOT_PERMUTATIONS!r}:
    for name in ("crun", "cyc", "cpk"):
        for kind in ("perm", "derangement", "dual_stirling"):
            try:
                en.stat(word, name, kind)
            except ValueError as exc:
                assert str(exc) == f"{{word}} is not a permutation of 1..{{len(word)}}", exc
            else:
                raise AssertionError(f"stat({{word}}, {{name!r}}, {{kind!r}}) returned")
"""


def test_stat_rejects_a_word_that_is_not_a_permutation():
    # An unchecked cycle statistic on (1, 1) follows word[v - 1] forever, so
    # the calls run in a subprocess with a timeout: a regression fails here
    # instead of hanging the suite.
    env = {**os.environ, "PYTHONPATH": str(Path(en.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _STAT_ON_NON_PERMUTATIONS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_every_class_is_a_walk():
    assert set(en._WALKS) == set(en.CLASSES)
    assert set(en._SHORTEST) <= set(en.CLASSES)


def test_an_unknown_class_is_a_value_error():
    with pytest.raises(ValueError, match="unknown class 'bogus'"):
        en.generate("bogus", 3)
    with pytest.raises(ValueError, match="unknown class 'bogus'"):
        en.distribution("bogus", 3, [("altrun", "x")])


def test_budget(monkeypatch):
    monkeypatch.setenv("ALTRUN_BUDGET", "10")
    with pytest.raises(SizeLimit):
        list(en.generate("perm", 4))
    with pytest.raises(SizeLimit):
        en.distribution("perm", 4, [("altrun", "x")])
    monkeypatch.delenv("ALTRUN_BUDGET")
    assert len(list(en.generate("perm", 4))) == 24


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-3", ""])
def test_malformed_budget_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("ALTRUN_BUDGET", raw)
    with pytest.raises(ValueError, match="ALTRUN_BUDGET must be a positive integer"):
        en.enumeration_budget()


def test_signed_hat_distribution_matches_c():
    seq = polyseq("cpoly", 4)
    for n in range(1, 5):
        dist = en.distribution("signed_hat", n, [("altrun_B", "x")]).as_poly("x")
        assert dist == seq.poly(n)


def test_derangement_crun_matches_d():
    seq = polyseq("dpoly", 5)
    for n in range(1, 6):
        dist = en.distribution("derangement", n, [("crun", "x")]).as_poly("x")
        assert dist == seq.poly(n)


CYCLE_SIZES = {"perm": range(8), "derangement": range(9)}


def _cycles_of(form):
    """The cycles of a cycle-form word, which has a 0 after each cycle."""
    cycles, cycle = [], []
    for letter in form:
        if letter:
            cycle.append(letter)
        else:
            cycles.append(tuple(cycle))
            cycle = []
    assert not cycle
    return cycles


def _cycle_forms(state, form, runs, cycles, shortest):
    """(cycle form, crun, cyc) for every completion of `state`, step by step."""
    if state is None:
        yield form, runs, cycles
        return
    for letters, more_runs, more_cycles, child in en._cycle_steps(state, shortest):
        yield from _cycle_forms(child, form + letters, runs + more_runs, cycles + more_cycles, shortest)


def test_cycle_walk_visits_each_object_once_with_its_statistics():
    for kind, sizes in CYCLE_SIZES.items():
        for n in sizes:
            shortest = en._SHORTEST[kind]
            # 1 opens the first cycle: one letter, one run, one cycle.
            root = (tuple(range(2, n + 1)), 1, True, shortest == 1), (1,), 1, 1
            seen = Counter()
            for form, runs, cycles in _cycle_forms(*(root if n else (None, (), 0, 0)), shortest):
                word = en.cycles_to_word(_cycles_of(form), n)
                assert runs == en.crun(word), (kind, word)
                assert cycles == en.cycle_count(word), (kind, word)
                seen[word] += 1
            assert seen == Counter(en.generate(kind, n)), (kind, n)


CYCLE_STAT_SETS = (
    [("crun", "x")],
    [("cyc", "q")],
    [("crun", "x"), ("cyc", "q")],
    [("cyc", "q"), ("crun", "x")],
    [("crun", "x"), ("crun", "y")],
)


@pytest.mark.parametrize("stats", CYCLE_STAT_SETS, ids=lambda s: ",".join(n for n, _ in s))
def test_cycle_fold_equals_the_word_fold(monkeypatch, stats):
    folded = []
    real = en._cycle_fold
    monkeypatch.setattr(en, "_cycle_fold", lambda *a: folded.append(a) or real(*a))
    for kind, sizes in CYCLE_SIZES.items():
        assert _fold_mismatches(kind, stats, sizes) == [], kind
    assert len(folded) == len(CYCLE_SIZES["perm"]) + len(CYCLE_SIZES["derangement"])


def test_other_statistics_bypass_the_cycle_fold(monkeypatch):
    monkeypatch.setattr(en, "_cycle_fold", None)  # any call raises TypeError
    assert en.distribution("perm", 5, [("altrun", "x")]) == _word_distribution("perm", 5, [("altrun", "x")])
    # A mix of cycle and local statistics reaches neither fold.
    monkeypatch.setattr(en, "_local_fold", None)
    for kind, stats in (("perm", [("crun", "x"), ("fix", "y")]), ("derangement", [("cpk", "x")]),
                        ("dual_stirling", [("crun", "x")]), ("perm", [("crun", "x"), ("altrun", "y")]),
                        ("derangement", [("des", "x"), ("cyc", "q")])):
        assert en.distribution(kind, 5, stats) == _word_distribution(kind, 5, stats)


def _dropping_the_infinity_run(steps):
    def mutant(state, shortest):
        for letters, runs, cycles, child in steps(state, shortest):
            closes_after_a_descent = letters[0] == 0 and not state[2]
            yield letters, runs - closes_after_a_descent, cycles, child

    return mutant


def _key_without_direction(key):
    def mutant(state):
        full = key(state)
        return full and full[:2] + full[3:]

    return mutant


CRUN_CYC = [("crun", "x"), ("cyc", "q")]


@pytest.mark.parametrize("stats, mutate", [
    (CRUN_CYC, lambda mp: mp.setattr(en, "_cycle_steps", _dropping_the_infinity_run(en._cycle_steps))),
    (CRUN_CYC, lambda mp: mp.setattr(en, "_cycle_key", _key_without_direction(en._cycle_key))),
    ([("altrun", "x"), ("cyc", "q")], lambda mp: mp.setitem(en._CYCLE_STATS, en.altrun, 0)),
], ids=["infinity-run-dropped", "key-without-direction", "altrun-admitted"])
def test_a_broken_cycle_fold_fails_against_the_word_oracle(monkeypatch, stats, mutate):
    # The word-level statistics stay the definition: a walk that drops the
    # infinity run, tables shared across directions, or a non-cycle
    # statistic read off the walk must each give a wrong distribution.
    mutate(monkeypatch)
    for kind, sizes in CYCLE_SIZES.items():
        assert _fold_mismatches(kind, stats, sizes), kind


def test_repeated_variable_names_fail_before_generating(monkeypatch):
    def refuse(kind, n):
        raise AssertionError("generate called")

    monkeypatch.setattr(en, "generate", refuse)
    for kind, stats in (("perm", [("altrun", "x"), ("des", "x")]),
                        ("derangement", [("crun", "x"), ("crun", "x")]),
                        ("stirling", [("fap", "t"), ("ap", "u"), ("la", "t")])):
        with pytest.raises(ValueError, match="variable names must be distinct"):
            en.distribution(kind, 9, stats)
