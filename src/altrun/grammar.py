"""Context-free (Chen) grammars and their formal derivative operator.

A grammar maps letters to polynomial images over one alphabet; letters with
no rule are constants (zero image).  The induced derivative acts on
monomials by the Leibniz rule and extends linearly, e.g. for
``a->q*a*b; b->b*c; c->b^2`` the first two images of ``a`` are

>>> g = Grammar.parse("a->q*a*b; b->b*c; c->b^2")
>>> str(g.derive(g.letter("a")))
'a*q*b'
>>> str(g.derive(g.derive(g.letter("a"))))
'a*q*b*c + a*q^2*b^2'

A rule's right-hand side is read by Python's expression parser (``ast``)
with ``^`` as ``**``, and its tree is evaluated over a whitelist, never
compiled: integers, letters, parentheses, ``+``, ``-``, ``*`` and powers by an
integer literal.  Letters are Python identifiers other than keywords;
`parse_polynomial` states the rest of the syntax and its limits.
"""

from __future__ import annotations

import ast
import keyword
import re
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Sequence

from .errors import NotOfExpectedShape, UnknownSymbol
from .multipoly import MultiPoly
from .polys import Poly, Scalar, exact_div

_LETTER = re.compile(r"\b[A-Za-z_][A-Za-z_0-9]*")
# the accepted operators besides Pow, which takes an int literal exponent only
_BINARY = {ast.Add: add, ast.Sub: sub, ast.Mult: mul}
_UNARY = {ast.UAdd: lambda value: value, ast.USub: neg}


def parse_polynomial(text: str, alphabet: Iterable[str]) -> MultiPoly:
    """Parse an integer-coefficient expression like "b^2 - 2*a".

    The text is read by Python's expression parser, with ``^`` as ``**``,
    and the tree is evaluated, never compiled: integers, letters of the
    alphabet, parentheses, ``+`` and ``-`` (also as signs, so ``2*-a`` and
    ``--a`` parse), ``*`` and a power by an integer literal are accepted, and
    anything else (``/``, floats, calls, ``a^-1``, ``a^2^2``) raises
    ``ValueError``.  Letters must be Python identifiers that are not keywords.
    Python's parser refuses more than 200 nested parentheses and flat sums
    above about 2990 terms; both raise ``ValueError`` too.

    >>> str(parse_polynomial("a*(b^2 - 2*a)", ("a", "b")))
    '-2*a^2 + a*b^2'
    """
    alphabet = tuple(alphabet)
    try:
        tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot parse {text!r}: {exc}") from None
    # reversed breadth-first order puts every child before its parent, so
    # the evaluation needs no recursion however deep the tree is
    values: dict[ast.expr, MultiPoly] = {}
    for node in reversed(list(ast.walk(tree.body))):
        if isinstance(node, ast.expr):
            value = _evaluate(node, values, alphabet)
            if value is None:
                kind = type(getattr(node, "op", node)).__name__
                raise ValueError(f"unsupported syntax ({kind}) in {text!r}")
            values[node] = value
    return values[tree.body]


def _is_int(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _evaluate(node: ast.expr, values: dict, alphabet: tuple[str, ...]) -> MultiPoly | None:
    """The value of one node whose children are already in `values`, or
    None when the node is not part of the accepted syntax."""
    op = type(getattr(node, "op", None))
    if isinstance(node, ast.BinOp):
        if op in _BINARY:
            return _BINARY[op](values[node.left], values[node.right])
        if op is ast.Pow and _is_int(node.right):
            return values[node.left] ** node.right.value
    elif isinstance(node, ast.UnaryOp) and op in _UNARY:
        return _UNARY[op](values[node.operand])
    elif _is_int(node):
        return MultiPoly.constant(alphabet, node.value)
    elif isinstance(node, ast.Name):
        return MultiPoly.variable(alphabet, node.id)
    return None


class Grammar:
    """Substitution rules letter -> polynomial over a fixed alphabet.

    Immutable: the two attributes are set once in `__init__`.
    """

    __slots__ = ("alphabet", "rules")

    def __init__(self, alphabet: tuple[str, ...], rules: dict[str, MultiPoly] | None = None):
        rules = {} if rules is None else rules
        for letter, image in rules.items():
            if letter not in alphabet:
                raise UnknownSymbol(letter)
            if image.alphabet != alphabet:
                raise ValueError("rule image over a different alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "rules", rules)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not Grammar:
            return NotImplemented
        return self.alphabet == other.alphabet and self.rules == other.rules

    def __repr__(self) -> str:
        return f"Grammar(alphabet={self.alphabet!r}, rules={self.rules!r})"

    @classmethod
    def parse(cls, text: str) -> Grammar:
        """Build from a one-line rule list "a->q*a*b; b->b*c; c->b^2".

        Letters appearing only on right-hand sides get the zero image; a
        letter with two rules is an error.
        """
        rule_texts: list[tuple[str, str]] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "->" not in chunk:
                raise ValueError(f"rule {chunk!r} lacks '->'")
            lhs, rhs = (side.strip() for side in chunk.split("->", 1))
            if not lhs.isidentifier() or keyword.iskeyword(lhs):
                raise ValueError(f"bad letter {lhs!r}")
            if any(lhs == seen for seen, _ in rule_texts):
                raise ValueError(f"letter {lhs!r} has more than one rule")
            rule_texts.append((lhs, rhs))
        # letters in order of first appearance, left-hand sides included
        alphabet = tuple(dict.fromkeys(
            name for lhs, rhs in rule_texts for name in (lhs, *_LETTER.findall(rhs))
        ))
        rules = {
            lhs: parse_polynomial(rhs, alphabet) for lhs, rhs in rule_texts
        }
        return cls(alphabet, rules)

    def letter(self, name: str) -> MultiPoly:
        return MultiPoly.variable(self.alphabet, name)

    # -- the formal derivative ---------------------------------------------

    def derive(self, p: MultiPoly) -> MultiPoly:
        """Leibniz-linear extension of the substitution rules."""
        if p.alphabet != self.alphabet:
            extra = set(p.alphabet) - set(self.alphabet)
            if extra:
                raise UnknownSymbol(f"letters {sorted(extra)} not in grammar")
            p = p.extended(self.alphabet)
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in p.terms.items():
            for slot, e in enumerate(exps):
                if e == 0:
                    continue
                image = self.rules.get(self.alphabet[slot])
                if image is None or image.is_zero():
                    continue
                lowered = exps[:slot] + (e - 1,) + exps[slot + 1 :]
                for img_exps, img_coeff in image.terms.items():
                    key = tuple(map(add, lowered, img_exps))
                    out[key] = out.get(key, 0) + coeff * e * img_coeff
        return MultiPoly._made(p.alphabet, out)

    def iterate(self, seed: MultiPoly, n: int) -> MultiPoly:
        """Apply the derivative n times; n = 0 returns the seed."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        value = seed if seed.alphabet == self.alphabet else seed.extended(self.alphabet)
        for _ in range(n):
            value = self.derive(value)
        return value


def extract_row(
    image: MultiPoly,
    seed: str | MultiPoly,
    count_letter: str,
    co_letter: str,
    n: int,
    co_exponent: Callable[[int], int] | None = None,
) -> list[MultiPoly]:
    """Read one triangle row off a derivative image.

    The image must equal seed * sum_k entry_k * count^k * co^{m(k)} where
    m(k) defaults to n-k and entry_k involves only the remaining (constant)
    letters.  Entries are returned for k = 0..n as polynomials over the
    residual alphabet.
    """
    alphabet = image.alphabet
    if isinstance(seed, str):
        seed = MultiPoly.variable(alphabet, seed)
    if len(seed.terms) != 1:
        raise NotOfExpectedShape("seed must be a single monomial")
    ((seed_exps, seed_coeff),) = seed.terms.items()
    if co_exponent is None:
        co_exponent = lambda k: n - k  # noqa: E731
    count_slot = image._slot(count_letter)
    co_slot = image._slot(co_letter)
    seed_letters = {
        alphabet[i] for i, e in enumerate(seed_exps) if e > 0
    }
    residual_alphabet = tuple(
        a
        for a in alphabet
        if a not in seed_letters and a not in (count_letter, co_letter)
    )
    residual_slots = [alphabet.index(a) for a in residual_alphabet]
    entries = [MultiPoly.zero(residual_alphabet) for _ in range(n + 1)]
    for exps, coeff in image.terms.items():
        reduced = []
        for i, (e, s) in enumerate(zip(exps, seed_exps)):
            if e < s:
                raise NotOfExpectedShape(
                    f"term {exps} not divisible by the seed monomial"
                )
            reduced.append(e - s)
        k = reduced[count_slot]
        m = reduced[co_slot]
        if k > n or m != co_exponent(k):
            raise NotOfExpectedShape(
                f"term with {count_letter}^{k} {co_letter}^{m} violates the "
                f"expected exponent pattern at n={n}"
            )
        for i, e in enumerate(reduced):
            if e and i not in (count_slot, co_slot) and alphabet[i] in seed_letters:
                raise NotOfExpectedShape(
                    f"residual power of seed letter {alphabet[i]!r}"
                )
        key = tuple(reduced[i] for i in residual_slots)
        entries[k] = entries[k] + MultiPoly(
            residual_alphabet, {key: exact_div(coeff, seed_coeff)}
        )
    return entries


def entries_as_fractions(entries: Sequence[MultiPoly]) -> list[Scalar]:
    """Collapse constant entries to plain rationals (`int` when integral)."""
    out = []
    for e in entries:
        if e.letters_used():
            raise NotOfExpectedShape(f"entry {e} is not constant")
        out.append(e.constant_term())
    return out


def entries_as_polys(entries: Sequence[MultiPoly], var: str) -> list[Poly]:
    """Collapse single-letter entries to dense polynomials in that letter."""
    return [e.as_poly(var) for e in entries]


# built-in grammars, keyed by what their images count
GRAMMAR_TEXTS = {
    "updown": "a->a*b; b->b*c; c->b^2",
    "doubled": "a->2*a*b; b->b*c; c->b^2",
    "qrun": "a->q*a*b; b->b*c; c->b^2",
    "plateau": "x->x*y*z; y->y*z^2; z->y^2*z",
    "gammavec": "x->x*a; a->a*(b^2-2*a); b->a*b",
    "halfgamma": "x->x*u; u->u*v; v->4*u^2",
}


def named_grammar(name: str) -> Grammar:
    """One of updown, doubled, qrun, plateau, gammavec, halfgamma."""
    try:
        text = GRAMMAR_TEXTS[name]
    except KeyError:
        raise UnknownSymbol(f"no grammar named {name!r}") from None
    return Grammar.parse(text)
