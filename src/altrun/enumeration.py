"""Exhaustive generation of permutation-like objects and their statistics.

Classes of objects (all streamed in lexicographic order of the printed word):

    perm           permutations of [n], as tuples
    signed         signed permutations: |word| is a permutation of [n]
    signed_hat     signed permutations with a positive first letter
    derangement    fixed-point-free permutations
    stirling       words over {1,1,...,n,n} with the nesting condition
    dual_stirling  images of Stirling words under the doubling map

Every class is a walk, built by its entry in `_WALKS` as (root, children,
cut, done): `children(state)` yields (letter, child state) by increasing
letter, and a word is complete at a state that is `done`.  Streams are
plain iterators.  `perm` streams from `itertools.permutations`, which is
faster than its walk; every other class streams from its walk: Python
writes the letters of a prefix until only a few letters are left to
choose, and then appends to the prefix each entry of a table that lists
every completion of that state in lexicographic order.  The tables come
from the same `children` rule, down to a state that is `done`, and each is
built once per distinct state, so most words cost one tuple concatenation;
they are dropped when the stream ends or is closed.  The tail starts with
at most two Stirling values left to open, four derangement positions or
three signed absolute values left to place.

Every stream is valid by construction: the Stirling walk only ever closes
the innermost open pair or opens a value above it, and the derangement
walk never writes a fixed point.  The dual Stirling stream is the same walk
writing 2j when it opens j and 2j-1 when it closes j, so no word is checked
again; `dual_map` validates its argument because it takes outside input.

Statistics are plain functions on tuples; `stat` dispatches by class name and
`distribution` folds a statistic tuple into an exact polynomial.  These
distributions are the brute-force oracle for the recurrence triangles.  A
statistic f is local when f(p + t) = f(p) + f(p[-2:] + t) - f(p[-2:]) for
every prefix p of length at least 2: altrun, udrun, des, des_B, altrun_B, ap,
la and fap are.  A tuple of local statistics is folded through its class's
walk (`_local_fold`): what the completions of a state add to each f depends
only on the state and the last two letters written, so it is counted once
per such pair, from its children, and no word is built.

A tuple of the cycle statistics `crun` and `cyc`, in any order, on the
classes of `_SHORTEST` (`perm` and `derangement`), is folded through a
second walk over the same permutations, in canonical cycle form: each cycle
written from its minimum, the cycles by increasing minimum (the fundamental
bijection, Stanley, EC1 1.3).  In that form both statistics add up along
the walk (`_cycle_steps`), and what the completions of a state add is
counted once per pattern of the state (`_cycle_key`, `_cycle_fold`).  Both
folds are one memoized recursion (`_fold`) that lives only as long as its
call, and both carry a tuple of any width as one weighted sum along the
walk (the transfer-matrix method, Stanley, EC1 4.7): statistic i counts
`_stride(n)`**i, and `_unpacked` reads the values back.  Every other
statistic and every mix of cycle and local statistics is folded word by
word.  The word-level `crun` and `cycle_count` are read from their
definitions, the standard decomposition `cycle_canonical` and, for `crun`,
`crun_of_cycles` and `cycle_runs`.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import Counter
from itertools import permutations, tee
from operator import gt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidStirlingWord, SizeLimit, StatClassMismatch
from .multipoly import MultiPoly

Word = tuple[int, ...]
Block = tuple[Word, object, list[Word]]  # (prefix, walk state, completions)
Walk = tuple[object, Callable, Callable, Callable]  # (root, children, cut, done)
CycleState = tuple[Word, int, bool, bool]  # (values left, last letter, up, may close)

DEFAULT_BUDGET = 10**8

CLASSES = ("perm", "signed", "signed_hat", "derangement", "stirling", "dual_stirling")


def enumeration_budget() -> int:
    """Object budget; override with the ALTRUN_BUDGET environment variable."""
    raw = os.environ.get("ALTRUN_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0  # reported below, like any other non-positive value
    if budget < 1:
        raise ValueError(f"ALTRUN_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _derangement_count(n: int) -> int:
    a, b = 1, 0  # D_0, D_1
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, (m - 1) * (a + b)
    return b


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!! with the empty product equal to 1."""
    out = 1
    for v in range(1, 2 * n, 2):
        out *= v
    return out


def cardinality(kind: str, n: int) -> int:
    if kind == "perm":
        return math.factorial(n)
    if kind == "signed":
        return 2**n * math.factorial(n)
    if kind == "signed_hat":
        if n < 1:
            raise ValueError("signed_hat requires n >= 1")
        return 2 ** (n - 1) * math.factorial(n)
    if kind == "derangement":
        return _derangement_count(n)
    if kind in ("stirling", "dual_stirling"):
        return _double_factorial_odd(n)
    raise ValueError(f"unknown class {kind!r}")


def _check_budget(kind: str, n: int) -> None:
    count = cardinality(kind, n)
    budget = enumeration_budget()
    if count > budget:
        raise SizeLimit(f"{kind} n={n} has {count} objects, budget is {budget}")


def _blocks(root, children: Callable, cut: Callable, done: Callable) -> Iterator[Block]:
    """(prefix, state, completions) for every word below `root`, in word order.

    `children(state)` yields (letter, child state) by increasing letter, and
    `done(state)` holds when the word is complete.  The walk writes letters
    until `cut(state)` holds; then the completions of that state are listed
    in lexicographic order by the same `children`, down to `done`.  Every
    state's completions, cut or below a cut, are listed once and kept in one
    memo, which lives only as long as the walk.  A state with no child that
    is not done has no completion.
    """
    memo: dict = {}

    def complete(state) -> list[Word]:
        tails = memo.get(state)
        if tails is None:
            tails = memo[state] = [()] if done(state) else [
                (letter, *tail) for letter, child in children(state) for tail in complete(child)
            ]
        return tails

    def walk(state, prefix: Word) -> Iterator[Block]:
        if cut(state):
            yield prefix, state, complete(state)
            return
        for letter, child in children(state):
            yield from walk(child, (*prefix, letter))

    try:
        yield from walk(root, ())
    finally:
        memo.clear()


def _joined(blocks: Iterator[Block]) -> Iterator[Word]:
    for prefix, _, tails in blocks:
        yield from map(prefix.__add__, tails)


def _fold(root, steps: Callable, done: Callable, bound: int) -> dict[int, int]:
    """{s: number of completions of `root` whose steps' shifts sum to s}.

    `steps(state)` yields (shift, key, child) for each step from `state`,
    and `done(state)` holds at a complete word.  Children with equal keys
    must have the same sums over their completions: each key's are counted
    once, from its first child, in one memo that is freed when the call
    returns or raises.  A state with no step that is not done has no
    completion.  The counts of a state are packed in one int, count c of
    sum s as c << (b*s) with b = bound.bit_length() + 1 (at least 1, when
    `bound` is 0), so no count of at most `bound` carries into the next;
    `bound` must bound the completions of every state reached.  A negative
    shift raises ValueError (a negative shift count).  The folds of
    `distribution` carry a tuple of statistics in one shift, each weighted
    by its place value (`_stride`), so a sum s is a packed tuple of sums.
    """
    bits = bound.bit_length() + 1
    memo: dict = {}

    def fold(state) -> int:
        if done(state):
            return 1
        total = 0
        for shift, key, child in steps(state):
            if key not in memo:
                memo[key] = fold(child)
            total += memo[key] << shift * bits
        return total

    try:
        packed = fold(root)
    finally:
        del fold  # it refers to itself: breaking the cycle frees the memo now, not at a collection
    mask = (1 << bits) - 1
    return {s: c for s in range(packed.bit_length() // bits + 1)
            if (c := packed >> s * bits & mask)}


def _stride(n: int) -> int:
    """The base in which the folds pack a tuple of statistics on objects of size n.

    It exceeds every folded statistic of such an object, so each value is
    one digit of the packed sum.  A word has at most 2n letters.  altrun,
    udrun, des, des_B and altrun_B count runs or descents of the word with
    at most one letter prepended, so they are at most 2n.  On a Stirling
    word ap and la are at most n, since each value's two copies make at
    most one plateau, so fap = ap + la is at most 2n.  crun and cyc are at
    most n, since a cycle of k letters has at most k runs with infinity
    appended.  So every value is at most 2n.
    """
    return 2 * n + 1


def _unpacked(counts: dict[int, int], head: int, stride: int, width: int) -> dict[tuple[int, ...], int]:
    """{values: count} from `_fold`'s {sum: count}: value i is digit i, in
    base `stride`, of `head` plus the sum."""
    return {tuple((head + s) // stride**i % stride for i in range(width)): c
            for s, c in counts.items()}


def _signed_words(n: int, positive: int) -> Walk:
    # A state is the increasing tuple of absolute values not yet written, so
    # n - len(left) letters are written.  The children come by increasing
    # letter: each value left negated, the largest first, then each value
    # left.  The first `positive` letters are positive: none for signed
    # permutations, one for signed_hat, and all n, so never a negative, for
    # permutations.
    def children(left: Word) -> Iterator[tuple[int, Word]]:
        rests = [left[:i] + left[i + 1:] for i in range(len(left))]
        if n - len(left) >= positive:
            yield from zip([-a for a in reversed(left)], reversed(rests))
        yield from zip(left, rests)

    return (tuple(range(1, n + 1)), children, lambda left: len(left) <= 3,
            lambda left: not left)


def _derangements(n: int) -> Walk:
    # A state is (next position, values left).  The walk skips fixed points,
    # so a state whose only value left is its own position is a dead end.
    def children(state: tuple[int, Word]) -> Iterator[tuple[int, tuple[int, Word]]]:
        i, left = state
        for j, v in enumerate(left):
            if v != i:
                yield v, (i + 1, left[:j] + left[j + 1:])

    return ((1, tuple(range(1, n + 1))), children, lambda s: len(s[1]) <= 4,
            lambda s: not s[1])


def _stirling_words(n: int, double: bool = False) -> Walk:
    # A state is (stack of open values, values not yet opened).  Open values
    # nest (LIFO): a value opened inside the pair of t must exceed t, so the
    # smallest legal next letter is always "close the top", then unopened
    # values above the top in increasing order.  With `double` the walk
    # writes the dual Stirling word: 2j opens j and 2j-1 closes it, which
    # keeps the order, since both letters of a smaller value are smaller
    # than both letters of a larger one.  The walk is cut once at most two
    # values are left to open; the word is done once every value is opened
    # and closed.
    opens = [2 * v if double else v for v in range(n + 1)]
    closes = [2 * v - 1 if double else v for v in range(n + 1)]

    def children(state: tuple[Word, Word]) -> Iterator[tuple[int, tuple[Word, Word]]]:
        stack, left = state
        top = stack[-1] if stack else 0
        if stack:
            yield closes[top], (stack[:-1], left)
        for i, v in enumerate(left):
            if v > top:
                yield opens[v], ((*stack, v), left[:i] + left[i + 1:])

    return (((), tuple(range(1, n + 1))), children, lambda s: len(s[1]) <= 2,
            lambda s: s == ((), ()))


# The walk of every class, by class name.
_WALKS: dict[str, Callable[[int], Walk]] = {
    "perm": lambda n: _signed_words(n, positive=n),
    "signed": lambda n: _signed_words(n, positive=0),
    "signed_hat": lambda n: _signed_words(n, positive=1),
    "derangement": _derangements,
    "stirling": _stirling_words,
    "dual_stirling": lambda n: _stirling_words(n, double=True),
}


def generate(kind: str, n: int) -> Iterator[Word]:
    """Stream every object of the class exactly once, lexicographically."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_budget(kind, n)  # also rejects an unknown class
    if kind == "perm":
        return permutations(range(1, n + 1))  # the same words as its walk, about 6x faster
    return _joined(_blocks(*_WALKS[kind](n)))


# ---------------------------------------------------------------------------
# word statistics
# ---------------------------------------------------------------------------


def _runs(word: Sequence[float]) -> int:
    """Number of maximal strictly monotone segments; 0 for short words."""
    if len(word) < 2:
        return 0
    count = 1
    letters = iter(word)
    prev = next(letters)
    up = word[1] > prev
    for cur in letters:
        if cur > prev:
            if not up:
                count += 1
                up = True
        elif cur < prev:
            if up:
                count += 1
                up = False
        else:
            raise ValueError("runs undefined for words with equal neighbours")
        prev = cur
    return count


def altrun(word: Sequence[int]) -> int:
    """Alternating runs of a word with distinct entries.

    >>> altrun((3, 2, 4, 1, 5, 6))
    4
    """
    return _runs(word)


def udrun(word: Sequence[int]) -> int:
    """Alternating runs after prepending 0: up-down runs on permutations,
    and `altrun_B` on signed words.

    >>> udrun((3, 2, 4, 1, 5, 6))
    5
    """
    return _runs((0, *word))


def descents(word: Sequence[int]) -> int:
    return sum(map(gt, word, word[1:]))


def longest_alternating_subsequence(word: Sequence[int]) -> int:
    """Length of the longest subsequence shaped a1 > a2 < a3 > ...

    Quadratic DP: track the best subsequence ending at each position whose
    last comparison was a descent / an ascent.
    """
    n = len(word)
    if n == 0:
        return 0
    down = [0] * n  # last step was a descent (length >= 2)
    up = [0] * n  # last step was an ascent; only valid after a descent
    best = 1
    for j in range(n):
        for i in range(j):
            if word[i] > word[j]:
                down[j] = max(down[j], max(up[i], 1) + 1)
            elif word[i] < word[j] and down[i]:
                up[j] = max(up[j], down[i] + 1)
        best = max(best, down[j], up[j])
    return best


def descents_type_b(word: Sequence[int]) -> int:
    """Type B descents of a signed word, counting position 0 against 0."""
    return descents((0, *word))


def signed_altrun(word: Sequence[int]) -> int:
    """Alternating runs of the 0-prepended signed word: the public name of
    `altrun_B`, which is the same scan as `udrun`.

    >>> signed_altrun((2, -1))
    2
    """
    return udrun(word)


def fixed_points(word: Sequence[int]) -> int:
    return sum(1 for i, v in enumerate(word, start=1) if v == i)


def cycle_canonical(word: Sequence[int]) -> tuple[Word, ...]:
    """Standard cycle decomposition: each cycle starts at its minimum and
    cycles are ordered by increasing minimum.

    >>> cycle_canonical((3, 1, 2))
    ((1, 3, 2),)
    """
    n = len(word)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        v = word[start - 1]
        while v != start:
            cycle.append(v)
            seen[v] = True
            v = word[v - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def cycles_to_word(cycles: Iterable[Sequence[int]], n: int) -> Word:
    """Inverse of cycle_canonical."""
    word = [0] * n
    for cycle in cycles:
        for i, v in enumerate(cycle):
            word[v - 1] = cycle[(i + 1) % len(cycle)]
    if 0 in word:
        raise ValueError("cycles do not cover [n]")
    return tuple(word)


def _cycle_scan(cycle: Sequence[int]) -> tuple[int, int, int]:
    """(peaks, double ascents, double descents) of a canonical cycle word,
    scanning positions 2..k with an infinity sentinel appended."""
    k = len(cycle)
    peaks = dasc = ddes = 0
    for i in range(1, k):
        prev = cycle[i - 1]
        cur = cycle[i]
        nxt = cycle[i + 1] if i + 1 < k else math.inf
        if prev < cur > nxt:
            peaks += 1
        elif prev < cur < nxt:
            dasc += 1
        elif prev > cur > nxt:
            ddes += 1
    return peaks, dasc, ddes


def cycle_runs(cycle: Sequence[int]) -> int:
    """Alternating runs of a canonical cycle word with infinity appended."""
    return _runs((*cycle, math.inf))


def crun_of_cycles(cycles: Iterable[Sequence[int]]) -> int:
    return sum(cycle_runs(c) for c in cycles)


def crun(word: Sequence[int]) -> int:
    """Cycle-run statistic: total cycle runs over the standard decomposition.

    >>> crun((3, 1, 2))
    3
    """
    return crun_of_cycles(cycle_canonical(word))


def cycle_count(word: Sequence[int]) -> int:
    """Number of cycles."""
    return len(cycle_canonical(word))


def cycle_peaks(word: Sequence[int]) -> int:
    return sum(_cycle_scan(c)[0] for c in cycle_canonical(word))


def cycle_double_ascents(word: Sequence[int]) -> int:
    return sum(_cycle_scan(c)[1] for c in cycle_canonical(word))


def cycle_double_descents(word: Sequence[int]) -> int:
    return sum(_cycle_scan(c)[2] for c in cycle_canonical(word))


def _check_stirling(word: Sequence[int]) -> int:
    """Validate the Stirling nesting condition; return the order n."""
    if len(word) % 2:
        raise InvalidStirlingWord("odd length")
    n = len(word) // 2
    counts = [0] * (n + 1)
    open_stack: list[int] = []
    for v in word:
        if not 1 <= v <= n:
            raise InvalidStirlingWord(f"letter {v} outside 1..{n}")
        counts[v] += 1
        if counts[v] > 2:
            raise InvalidStirlingWord(f"letter {v} occurs more than twice")
        if open_stack and open_stack[-1] == v:
            open_stack.pop()
        else:
            if open_stack and v < open_stack[-1]:
                raise InvalidStirlingWord(
                    f"letter {v} inside the pair of {open_stack[-1]}"
                )
            open_stack.append(v)
    if open_stack:
        raise InvalidStirlingWord("unclosed letters")
    return n


def ascent_plateaus(word: Sequence[int]) -> int:
    """Positions i >= 2 with word[i-1] < word[i] == word[i+1] (1-based)."""
    return sum(
        1
        for i in range(1, len(word) - 1)
        if word[i - 1] < word[i] == word[i + 1]
    )


def left_ascent_plateaus(word: Sequence[int]) -> int:
    """Ascent plateaus with a 0 boundary prepended."""
    return ascent_plateaus((0, *word))


def flag_ascent_plateaus(word: Sequence[int]) -> int:
    """fap = ap + la, read from its definition.  Since la = ap + [0 < w1 == w2]
    counts the one extra plateau the prepended 0 can make, fap = 2 ap +
    [0 < w1 == w2].

    >>> flag_ascent_plateaus((1, 1, 2, 2))
    3
    """
    return ascent_plateaus(word) + left_ascent_plateaus(word)


def dual_map(word: Sequence[int]) -> Word:
    """Send the first copy of j to 2j and the second to 2j-1.

    >>> dual_map((2, 2, 1, 3, 3, 1))
    (4, 3, 2, 6, 5, 1)
    """
    _check_stirling(word)
    seen: set[int] = set()
    out = []
    for v in word:
        if v in seen:
            out.append(2 * v - 1)
        else:
            seen.add(v)
            out.append(2 * v)
    return tuple(out)


# ---------------------------------------------------------------------------
# the canonical-cycle-form walk
# ---------------------------------------------------------------------------

# The walk writes a permutation's canonical cycle form (`cycle_canonical`)
# as one word, with a 0 after each cycle: (3, 1, 2) is (1, 3, 2, 0) and
# (2, 1, 4, 3) is (1, 2, 0, 3, 4, 0).  A state is (values left, increasing;
# the last letter; whether the last step rose; whether the open cycle may
# close).  Each cycle opens at the least value left, so the open cycle's
# minimum lies below every letter still to come and the state need not
# carry it.  None is the state after the last cycle has closed.


def _cycle_steps(
    state: CycleState, shortest: int
) -> Iterator[tuple[Word, int, int, CycleState | None]]:
    """(letters, added crun, added cyc, child state) for each step from `state`.

    The rules are those of `cycle_runs` on each cycle written from its
    minimum: opening a cycle adds one run and one cycle; the first step from
    the minimum goes up; each change of direction adds a run; closing a
    cycle after a descent adds the run of the appended infinity.  A new
    cycle may close once it has `shortest` letters, which is 1 or 2.
    """
    left, last, up, may_close = state
    if may_close:
        infinity_run = 0 if up else 1
        if left:
            low = left[0]
            yield (0, low), infinity_run + 1, 1, (left[1:], low, True, shortest == 1)
        else:
            yield (0,), infinity_run, 0, None
    for i, v in enumerate(left):
        rise = v > last
        yield (v,), rise != up, 0, (left[:i] + left[i + 1:], v, rise, True)


def _cycle_key(state: CycleState | None) -> tuple | None:
    """(values left, rank of the last letter among them, direction, may close)."""
    if state is None:
        return None
    left, last, up, may_close = state
    return len(left), bisect_left(left, last), up, may_close


def _cycle_fold(fns: Sequence[Callable], kind: str, n: int) -> dict[tuple[int, ...], int]:
    """{values of `fns`: number of permutations} over class `kind` (one of
    `_SHORTEST`), from the canonical-cycle-form walk; each of `fns` is
    `crun` or `cycle_count`.

    What a completion adds to crun and cyc depends only on the relative
    order of the last letter and the values left (the open cycle's minimum
    lies below them all), on the direction of the last step and on whether
    the open cycle may close.  So `_fold` counts the completions once per
    `_cycle_key`, at every depth.  A step adding r runs and c cycles shifts
    by r * per_run + c * per_cycle, where per_run sums the place values
    `_stride(n)`**i of the statistics i that are `crun`, and per_cycle those
    that are `cycle_count`.
    """
    shortest, stride = _SHORTEST[kind], _stride(n)
    per_run, per_cycle = (sum(stride**i for i, fn in enumerate(fns) if _CYCLE_STATS[fn] == j)
                          for j in (0, 1))

    def steps(state: CycleState) -> Iterator[tuple[int, tuple | None, CycleState | None]]:
        for _, runs, cycles, child in _cycle_steps(state, shortest):
            yield runs * per_run + cycles * per_cycle, _cycle_key(child), child

    # 1 opens the first cycle, with one run; the empty permutation has none.
    root, head = ((tuple(range(2, n + 1)), 1, True, shortest == 1), per_run + per_cycle) if n else (None, 0)
    counts = _fold(root, steps, lambda state: state is None, cardinality(kind, n))
    return _unpacked(counts, head, stride, len(fns))


# ---------------------------------------------------------------------------
# statistic dispatch
# ---------------------------------------------------------------------------

_PERM_STATS = {
    "altrun": altrun,
    "udrun": udrun,
    "des": descents,
    "as": longest_alternating_subsequence,
    "crun": crun,
    "cyc": cycle_count,
    "fix": fixed_points,
    "cpk": cycle_peaks,
    "cdasc": cycle_double_ascents,
    "cddes": cycle_double_descents,
}

_SIGNED_STATS = {
    "des_B": descents_type_b,
    "altrun_B": udrun,
}

_STIRLING_STATS = {
    "ap": ascent_plateaus,
    "la": left_ascent_plateaus,
    "fap": flag_ascent_plateaus,
}

_STATS_BY_CLASS = {
    "perm": _PERM_STATS,
    "derangement": _PERM_STATS,
    "dual_stirling": _PERM_STATS,
    "signed": _SIGNED_STATS,
    "signed_hat": _SIGNED_STATS,
    "stirling": _STIRLING_STATS,
}

# A statistic f is local when f(p + t) = f(p) + f(p[-2:] + t) - f(p[-2:])
# for every prefix p with len(p) >= 2: a head term on w[:2] plus a sum over
# windows of at most three adjacent letters, none depending on its position.
# (For len(p) < 2 the identity holds trivially, since p[-2:] == p.)
# `distribution` folds any tuple of these through the walks, keyed by the
# last two letters written.
_LOCAL_STATS = frozenset({
    altrun, udrun, descents, descents_type_b,
    ascent_plateaus, left_ascent_plateaus, flag_ascent_plateaus,
})

# The statistics `distribution` folds through the canonical-cycle-form walk,
# each with its index in the walk's (crun, cyc), and the classes it walks,
# each with the fewest letters a cycle of theirs may have.
_CYCLE_STATS = {crun: 0, cycle_count: 1}
_SHORTEST = {"perm": 1, "derangement": 2}

STAT_NAMES = tuple(
    sorted(set(_PERM_STATS) | set(_SIGNED_STATS) | set(_STIRLING_STATS))
)


def _statistic(kind: str, name: str) -> Callable[[tuple], int]:
    """The statistic `name` on objects of class `kind`."""
    table = _STATS_BY_CLASS.get(kind)
    if table is None:
        raise ValueError(f"unknown class {kind!r}")
    if name not in table:
        raise StatClassMismatch(f"statistic {name!r} undefined for class {kind!r}")
    return table[name]


def stat(word: Sequence[int], name: str, kind: str = "perm") -> int:
    """Evaluate a named statistic on an object of the given class.

    The word comes from outside, so on the classes of permutations its
    letters must be exactly 1..len(word): the cycle statistics follow
    word[v - 1] round each cycle, and on any other word they never stop.

    >>> stat((1, 1), "crun")
    Traceback (most recent call last):
    ...
    ValueError: (1, 1) is not a permutation of 1..2
    """
    fn = _statistic(kind, name)
    word = tuple(word)
    if _STATS_BY_CLASS[kind] is _PERM_STATS and sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"{word} is not a permutation of 1..{len(word)}")
    return fn(word)


def distribution(
    kind: str,
    n: int,
    stats: Sequence[tuple[str, str]],
) -> MultiPoly:
    """Sum over all objects of prod variable^statistic, exactly.

    `stats` is a nonempty sequence of (statistic name, variable name) pairs
    with distinct variable names; repeated names fail before any object is
    generated.  There are three paths, and each takes a tuple of any width.
    On the classes of `_SHORTEST` (`perm` and `derangement`), statistics
    that are all `crun` or `cyc` (see `_CYCLE_STATS`) are folded through the
    canonical-cycle-form walk (`_cycle_fold`).  Statistics that are all local
    (see `_LOCAL_STATS`) are folded through their class's walk
    (`_local_fold`), once per (state, last two letters), with no word built.
    Everything else is folded word by word.  Every path first calls
    `generate`, which enforces the enumeration budget.

    >>> str(distribution("perm", 3, [("altrun", "x")]))
    '2*x + 4*x^2'
    >>> str(distribution("stirling", 3, [("fap", "x")]))
    'x + 3*x^2 + 7*x^3 + 3*x^4 + x^5'
    """
    if kind not in _STATS_BY_CLASS:
        raise ValueError(f"unknown class {kind!r}")
    fns = [_statistic(kind, stat_name) for stat_name, _ in stats]
    if not fns:
        raise ValueError("no statistic given")
    variables = tuple(var for _, var in stats)
    if len(set(variables)) != len(variables):
        raise ValueError(f"variable names must be distinct, got {', '.join(variables)}")
    words = generate(kind, n)
    if kind in _SHORTEST and all(fn in _CYCLE_STATS for fn in fns):
        counts = _cycle_fold(fns, kind, n)
    elif all(fn in _LOCAL_STATS for fn in fns):
        counts = _local_fold(fns, kind, n)
    else:
        counts = Counter(zip(*map(map, fns, tee(words, len(fns)))))
    return MultiPoly(variables, counts)


def _local_fold(fns: Sequence[Callable], kind: str, n: int) -> dict[tuple[int, ...], int]:
    """{values of `fns`: number of words} of local statistics on class `kind`.

    With `key` the last two letters of a prefix p, locality gives f(p + t)
    - f(p) = f(key + t) - f(key) for every completion t of the walk's state
    s after p.  So `_fold` counts these once per (s, key), from the
    children: a step writing a letter adds f_i(longer) - f_i(key), longer =
    key + (letter,), to statistic i, and shifts the child's counts at
    (child, longer[-2:]) by the sum of these weighted by their place values
    `_stride(n)`**i; each shift is computed once per `longer`.  The
    distribution is the values of `fns` on () plus the root's counts.  The
    counts are packed with bound `cardinality(kind, n)`: the completions of
    a state reached from the root extend one prefix to distinct objects of
    the class.  No statistic decreases along a step: each local statistic
    is a head term on the first two letters plus a count of patterns (runs,
    descents, plateaus) in windows of adjacent letters, all zero on the
    empty word, and appending a letter keeps every window it had.  A
    "local" statistic that decreases raises ValueError instead of returning
    counts.  It is checked one statistic at a time: in a weighted sum, a
    fall of one could hide behind a rise of the next.
    """
    root, children, _, done = _WALKS[kind](n)
    stride = _stride(n)
    shifts: dict = {}  # longer -> packed f(longer) - f(longer[:-1]), which only its letters fix

    def steps(node: tuple) -> Iterator[tuple[int, tuple, tuple]]:
        state, key = node
        for letter, child in children(state):
            longer = (*key, letter)
            shift = shifts.get(longer)
            if shift is None:
                shift = 0
                for i, fn in enumerate(fns):
                    rise = fn(longer) - fn(key)
                    if rise < 0:
                        raise ValueError(f"negative shift count: {fn.__name__} falls from {key} to {longer}")
                    shift += rise * stride**i
                shifts[longer] = shift
            below = child, longer[-2:]
            yield shift, below, below

    counts = _fold((root, ()), steps, lambda node: done(node[0]), cardinality(kind, n))
    return _unpacked(counts, sum(fn(()) * stride**i for i, fn in enumerate(fns)), stride, len(fns))
