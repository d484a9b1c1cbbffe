"""Sparse multivariate polynomials over the rationals.

Used for grammar images (letters a, b, c, q, ...) and joint statistic
distributions (variables x, q, y).  Terms map exponent tuples, one slot per
alphabet letter, to nonzero exact rationals.

Coefficients follow the integer-first policy of `altrun.polys`: each one is
normalised by `polys.exact`, so it is an `int` whenever its denominator is
1 and a `Fraction` otherwise.  `evaluate` always returns a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import UnknownSymbol
from .polys import ExactRing, Poly, Scalar, exact, power


class MultiPoly(ExactRing):
    __slots__ = ("alphabet", "terms")

    def __init__(
        self,
        alphabet: Iterable[str],
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
    ):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        clean: dict[tuple[int, ...], Scalar] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(alphabet):
                raise ValueError("exponent tuple length must match alphabet size")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = exact(c)
            if c != 0:
                clean[exps] = c
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _made(cls, alphabet: tuple[str, ...], terms: dict) -> MultiPoly:
        """`terms` over `alphabet` as given: built by arithmetic on valid
        MultiPolys, so the letters are distinct and every key is a
        nonnegative exponent tuple of the right length.  Zero coefficients
        are dropped and any non-`int` one is normalised by `exact`."""
        new = object.__new__(cls)
        object.__setattr__(new, "alphabet", alphabet)
        object.__setattr__(
            new,
            "terms",
            {e: c if type(c) is int else exact(c) for e, c in terms.items() if c},
        )
        return new

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Iterable[str]) -> MultiPoly:
        return cls(alphabet)

    @classmethod
    def constant(cls, alphabet: Iterable[str], value: Scalar) -> MultiPoly:
        alphabet = tuple(alphabet)
        return cls(alphabet, {(0,) * len(alphabet): value})

    @classmethod
    def variable(cls, alphabet: Iterable[str], name: str) -> MultiPoly:
        alphabet = tuple(alphabet)
        if name not in alphabet:
            raise UnknownSymbol(name)
        exps = tuple(1 if a == name else 0 for a in alphabet)
        return cls(alphabet, {exps: 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exps: tuple[int, ...]) -> Scalar:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * len(self.alphabet))

    def letters_used(self) -> set[str]:
        used = set()
        for exps in self.terms:
            for letter, e in zip(self.alphabet, exps):
                if e > 0:
                    used.add(letter)
        return used

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def _slot(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise UnknownSymbol(name) from None

    # -- arithmetic ----------------------------------------------------------

    def _check_alphabet(self, other: MultiPoly) -> None:
        if self.alphabet != other.alphabet:
            raise ValueError(
                f"alphabet mismatch: {self.alphabet} vs {other.alphabet}"
            )

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_alphabet(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly._made(self.alphabet, out)

    def __neg__(self) -> MultiPoly:
        return MultiPoly._made(self.alphabet, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            return MultiPoly._made(
                self.alphabet, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_alphabet(other)
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly._made(self.alphabet, out)

    def __pow__(self, exponent: int) -> MultiPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, exponent, MultiPoly.constant(self.alphabet, 1))

    def _coerce(self, value):
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly._made(self.alphabet, {(0,) * len(self.alphabet): value})
        return NotImplemented

    # -- calculus, substitution, conversion ----------------------------------

    def derivative(self, name: str) -> MultiPoly:
        """Formal partial derivative with respect to one letter."""
        slot = self._slot(name)
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, c in self.terms.items():
            e = exps[slot]
            if e:
                out[exps[:slot] + (e - 1,) + exps[slot + 1 :]] = c * e
        return MultiPoly._made(self.alphabet, out)

    def substitute(
        self,
        images: Mapping[str, "MultiPoly | Scalar"],
        alphabet: Iterable[str],
    ) -> MultiPoly:
        """Alphabet-morphism evaluation: replace each letter by its image.

        Letters without an explicit image map to themselves and must exist
        in the target alphabet.
        """
        target = tuple(alphabet)
        resolved: dict[str, MultiPoly] = {}
        for letter in self.alphabet:
            if letter in images:
                img = images[letter]
                if isinstance(img, (int, Fraction)):
                    img = MultiPoly.constant(target, img)
                elif img.alphabet != target:
                    raise ValueError("image alphabet must equal the target alphabet")
                resolved[letter] = img
            else:
                resolved[letter] = MultiPoly.variable(target, letter)
        out = MultiPoly.zero(target)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(target, c)
            for letter, e in zip(self.alphabet, exps):
                if e:
                    term = term * resolved[letter] ** e
            out = out + term
        return out

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Fully evaluate; every letter that occurs must be assigned."""
        missing = self.letters_used() - set(values)
        if missing:
            raise UnknownSymbol(f"no value for {sorted(missing)}")
        total = 0
        for exps, c in self.terms.items():
            prod = c
            for letter, e in zip(self.alphabet, exps):
                if e:
                    prod *= exact(values[letter]) ** e
            total += prod
        return Fraction(total)

    def as_poly(self, name: str) -> Poly:
        """Convert to a dense univariate polynomial in one letter."""
        extra = self.letters_used() - {name}
        if extra:
            raise ValueError(f"not univariate: also uses {sorted(extra)}")
        slot = self._slot(name)
        return Poly.from_terms({e[slot]: c for e, c in self.terms.items()})

    def extended(self, alphabet: Iterable[str]) -> MultiPoly:
        """Re-embed into a larger alphabet containing the current letters.

        Each exponent moves to its letter's slot in `alphabet`; a letter
        missing there raises UnknownSymbol.
        """
        target = tuple(alphabet)
        if len(set(target)) != len(target):
            raise ValueError("alphabet letters must be distinct")
        slots = []
        for letter in self.alphabet:
            if letter not in target:
                raise UnknownSymbol(letter)
            slots.append(target.index(letter))
        out = {}
        for exps, c in self.terms.items():
            key = [0] * len(target)
            for slot, e in zip(slots, exps):
                key[slot] = e
            out[tuple(key)] = c
        return MultiPoly._made(target, out)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.alphabet, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, c in self.sorted_terms():
            factors = []
            for letter, e in zip(self.alphabet, exps):
                if e == 1:
                    factors.append(letter)
                elif e > 1:
                    factors.append(f"{letter}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r}, alphabet={self.alphabet!r})"
