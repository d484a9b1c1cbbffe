"""Recurrence-defined triangles and polynomial sequences.

Triangles (entries are integers, except Rq whose entries are polynomials
in q):

    R      alternating-run counts R[n][k], rows from n=1
    T      up-down-run counts T[n][k], rows from n=0
    Rq     q-alternating-run entries R[n][k](q), rows from n=0
    a      gamma coefficients of the type-A Eulerian polynomials, from n=1
    b      gamma coefficients of the type-B Eulerian polynomials, from n=0
    F      alternating-run counts of dual Stirling permutations, from n=0
    gamma  gamma coefficients of F_n (sign-mixed), from n=0
    f      half-gamma coefficients of F_n (nonnegative), from n=0

Polynomial sequences: bpoly, cpoly, dpoly, gammapoly, Fpoly, eulerA, eulerB.
Fpoly and gammapoly are the row polynomials of the F and gamma triangles,
and eulerA and eulerB are assembled from the a and b rows, so each of those
recurrences is written once, in its triangle spec.

All values are exact; rows are produced by the defining recurrences, so the
triangles double as the recurrence oracle for the grammar and enumeration
routes (`next_row` applies one step to a row computed elsewhere).

Each family keeps one growable list of the rows (or polynomials) computed so
far.  A call extends that list from its last entry up to the requested index
and returns a `Triangle` / `PolySeq` over the leading slice, so asking for
rows 1..n after rows 1..n-1 costs one new row, not n.  Fpoly, gammapoly and
the Eulerian polynomials read their one row from that list, without a copy,
and `eulerian` reads the store of the eulerA or eulerB sequence, which
`polyseq` reads too.

Each triangle's recurrence is data (`_TriangleSpec`): row n holds
k = 0..max((p*n + r) // d, 0) and row[n][k] = A prev[k] + B prev[k-1] +
C prev[k-2], where each of A, B, C is sum_j q^j (c0 + cn*n + ck*k), stored as
one (c0, cn, ck) triple per power of q.  The q-run recurrence is written once,
in the Rq spec: R and T are its data specialized once, at import, to q = 2
with row n of R being row n-1 of Rq, and to q = 1 (`_specialize`).

The data picks the kernel.  A spec with a q term in some coefficient, or with
`Poly` entries in its first row (Rq), is stepped on integer coefficient
lists: each entry of the previous row is taken as its list of coefficients
in q (an `int` as a constant), the three products are summed into one list,
and each new entry is one `Poly` built from it.  Every other spec is stepped
in `int`s, each coefficient taken as its value at k = 0 plus ck*k.
"""

from __future__ import annotations

import json
from functools import partial
from math import comb
from typing import Callable, Iterator, NamedTuple

from .errors import UnknownFamily
from .gammalab import GammaForm
from .multipoly import MultiPoly
from .polys import Poly, Scalar, exact

Entry = int | Poly

_ONE_X = Poly([1, 1])  # 1 + x
_XQ = ("x", "q")  # the letters of `Triangle.row_multipoly`
_XYQ = ("x", "y", "q")  # the letters of `inclusion_exclusion_Rxy`


class Triangle(NamedTuple):
    """Rows of a doubly-indexed family; rows[i] holds row n = min_n + i."""

    name: str
    min_n: int
    rows: tuple[tuple[Entry, ...], ...]

    @property
    def max_n(self) -> int:
        return self.min_n + len(self.rows) - 1

    def row(self, n: int) -> tuple[Entry, ...]:
        if not self.min_n <= n <= self.max_n:
            raise IndexError(f"row {n} not computed (have {self.min_n}..{self.max_n})")
        return self.rows[n - self.min_n]

    def entry(self, n: int, k: int) -> Entry:
        if not self.min_n <= n <= self.max_n:
            return 0
        row = self.row(n)
        if 0 <= k < len(row):
            return row[k]
        return 0

    def row_poly(self, n: int) -> Poly:
        """Assemble sum_k entry * x^k (numeric families only)."""
        return Poly(self.row(n))

    def row_multipoly(self, n: int) -> MultiPoly:
        """Assemble sum_k entry_k(q) * x^k as a polynomial in (x, q)."""
        terms = {}
        for k, entry in enumerate(self.row(n)):
            for j, c in enumerate(_coeff_list(entry)):
                if c != 0:
                    terms[(k, j)] = c
        return MultiPoly(_XQ, terms)


def _coeff_list(value: Entry) -> tuple:
    """The coefficients in q of a `Poly`, or of an `int` as a constant."""
    return value.coeffs if isinstance(value, Poly) else (value,)


class _TriangleSpec(NamedTuple):
    min_n: int
    first_row: tuple[Entry, ...]
    # (p, r, d): row n holds k = 0..max((p*n + r) // d, 0)
    k_max: tuple[int, int, int]
    # coefficients of row[n][k] = A*prev[k] + B*prev[k-1] + C*prev[k-2],
    # where prev is row n-1; each is one (c0, cn, ck) triple per power of q,
    # for sum_j q^j (c0 + cn*n + ck*k)
    coeff_a: tuple[tuple[int, int, int], ...]
    coeff_b: tuple[tuple[int, int, int], ...]
    coeff_c: tuple[tuple[int, int, int], ...]


def _specialize(spec: _TriangleSpec, q0: int, shift: int) -> _TriangleSpec:
    """The triangle whose row n is row n - shift of `spec` at q = q0."""

    def at_q0(coeff: tuple[tuple[int, int, int], ...]) -> tuple[tuple[int, int, int]]:
        c0, cn, ck = (sum(c * q0**j for j, c in enumerate(column)) for column in zip(*coeff))
        return ((c0 - cn * shift, cn, ck),)

    p, r, d = spec.k_max
    return _TriangleSpec(
        min_n=spec.min_n + shift,
        first_row=tuple(
            sum(c * q0**j for j, c in enumerate(_coeff_list(entry))) for entry in spec.first_row
        ),
        k_max=(p, r - p * shift, d),
        coeff_a=at_q0(spec.coeff_a),
        coeff_b=at_q0(spec.coeff_b),
        coeff_c=at_q0(spec.coeff_c),
    )


# the q-run recurrence: R[n][k](q) = k R[n-1][k] + q R[n-1][k-1] + (n-k+1) R[n-1][k-2]
_RQ = _TriangleSpec(
    min_n=0,
    first_row=(Poly.one(),),
    k_max=(1, 0, 1),
    coeff_a=((0, 0, 1),),
    coeff_b=((0, 0, 0), (1, 0, 0)),
    coeff_c=((1, 1, -1),),
)

_TRIANGLES: dict[str, _TriangleSpec] = {
    "R": _specialize(_RQ, 2, 1),  # R_n(x) = R_(n-1)(x; 2)
    "T": _specialize(_RQ, 1, 0),  # T_n(x) = R_n(x; 1)
    "Rq": _RQ,
    "a": _TriangleSpec(
        min_n=1,
        first_row=(0, 1),
        k_max=(1, 1, 2),
        coeff_a=((0, 0, 1),),
        coeff_b=((4, 2, -4),),
        coeff_c=((0, 0, 0),),
    ),
    "b": _TriangleSpec(
        min_n=0,
        first_row=(1,),
        k_max=(1, 0, 2),
        coeff_a=((1, 0, 2),),
        coeff_b=((4, 4, -8),),
        coeff_c=((0, 0, 0),),
    ),
    "F": _TriangleSpec(
        min_n=0,
        first_row=(1,),
        k_max=(2, -1, 1),
        coeff_a=((0, 0, 1),),
        coeff_b=((1, 0, 0),),
        coeff_c=((0, 2, -1),),
    ),
    "gamma": _TriangleSpec(
        min_n=0,
        first_row=(1,),
        k_max=(1, 0, 1),
        coeff_a=((0, 0, 1),),
        coeff_b=((3, 2, -4),),
        coeff_c=((0, 0, 0),),
    ),
    "f": _TriangleSpec(
        min_n=0,
        first_row=(1,),
        k_max=(1, 0, 1),
        coeff_a=((0, 0, 1),),
        coeff_b=((1, 0, 0),),
        coeff_c=((4, 4, -4),),
    ),
}

TRIANGLE_FAMILIES = tuple(_TRIANGLES)


def _extend(items: list, min_n: int, max_n: int, step: Callable[[int, list], object]) -> list:
    """Grow `items`, the entries at min_n, min_n + 1, ..., through max_n.

    `step(n, items)` computes entry n from the entries before it.  Returns
    `items` itself.
    """
    for n in range(min_n + len(items), max_n + 1):
        items.append(step(n, items))
    return items


# rows[i] of family `name` is row min_n + i; extended on demand by `_stored_rows`
_TRIANGLE_ROWS: dict[str, list[tuple[Entry, ...]]] = {}


def _next_row(spec: _TriangleSpec, n: int, rows: list) -> tuple[Entry, ...]:
    """Row n of the triangle from the rows before it, by the recurrence."""
    p, r, d = spec.k_max
    size = max((p * n + r) // d, 0) + 1
    # for each shift, the terms (i, value at k = 0, step in k) of the
    # coefficient of q^i * prev[k - shift]
    terms = [
        [(i, c0 + cn * n, ck) for i, (c0, cn, ck) in enumerate(coeff)]
        for coeff in (spec.coeff_a, spec.coeff_b, spec.coeff_c)
    ]
    if any(len(t) > 1 for t in terms) or any(isinstance(e, Poly) for e in spec.first_row):
        return tuple(_poly_entries(terms, rows[-1], size))
    ((_, a, ak),), ((_, b, bk),), ((_, c, ck),) = terms
    padded = (0, 0, *rows[-1], *[0] * (size - len(rows[-1])))  # prev[k] is padded[k + 2]
    return tuple(
        (a + ak * k) * p0 + (b + bk * k) * p1 + (c + ck * k) * p2
        for k, p2, p1, p0 in zip(range(size), padded, padded[1:], padded[2:])
    )


def _poly_entries(terms: list, prev: tuple[Entry, ...], size: int) -> Iterator[Poly]:
    """Entries k < size of `_next_row` for polynomial entries, summed on
    coefficient lists in q."""
    padded = [(), (), *map(_coeff_list, prev), *[()] * (size - len(prev))]
    for k, *gs in zip(range(size), padded[2:], padded[1:], padded):  # gs[shift] is prev[k - shift]
        acc = []
        for g, shift_terms in zip(gs, terms):
            acc.extend([0] * (len(shift_terms) + len(g) - 1 - len(acc)))
            for i, base, ck in shift_terms:
                fi = base + ck * k
                if fi:
                    for j, gj in enumerate(g, i):
                        acc[j] += fi * gj
        yield Poly(acc)


def next_row(name: str, n: int, prev: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """Row n of the named triangle from `prev`, taken as row n-1, by its recurrence.

    >>> next_row("R", 3, (0, 2))
    (0, 2, 4)
    """
    return _next_row(_TRIANGLES[name], n, [prev])


def _stored_rows(name: str, max_n: int) -> list[tuple[Entry, ...]]:
    """The row store of the named triangle, extended through row max_n."""
    if name not in _TRIANGLES:
        raise UnknownFamily(f"unknown triangle family {name!r}")
    spec = _TRIANGLES[name]
    if max_n < spec.min_n:
        raise ValueError(f"family {name!r} starts at row {spec.min_n}")
    rows = _TRIANGLE_ROWS.setdefault(name, [spec.first_row])
    return _extend(rows, spec.min_n, max_n, partial(_next_row, spec))


def _row(name: str, n: int) -> tuple[Entry, ...]:
    """Row n of the named triangle, read from the row store."""
    return _stored_rows(name, n)[n - _TRIANGLES[name].min_n]


def triangle(name: str, max_n: int) -> Triangle:
    """Rows min_n..max_n of the named triangle, extending the row store."""
    rows = _stored_rows(name, max_n)
    min_n = _TRIANGLES[name].min_n
    return Triangle(name, min_n, tuple(rows[: max_n - min_n + 1]))


def q_specialize(row: tuple[Entry, ...], q0: Scalar) -> Poly:
    """Substitute q=q0 in an Rq row and assemble sum_k entry * x^k."""
    q0 = exact(q0)
    coeffs = []
    for entry in row:
        if isinstance(entry, Poly):
            coeffs.append(entry.evaluate(q0))
        else:
            coeffs.append(entry)
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# polynomial sequences
# ---------------------------------------------------------------------------


class PolySeq(NamedTuple):
    name: str
    min_n: int
    polys: tuple[Poly, ...]

    @property
    def max_n(self) -> int:
        return self.min_n + len(self.polys) - 1

    def poly(self, n: int) -> Poly:
        if not self.min_n <= n <= self.max_n:
            raise IndexError(f"index {n} not computed (have {self.min_n}..{self.max_n})")
        return self.polys[n - self.min_n]


# Each step computes the polynomial at index n from the list `prev` of those
# at indices min_n..n-1.  The recurrences are written, as in the paper, for
# index m + 1 in terms of index m = n - 1.


def _step_bpoly(n: int, prev: list[Poly]) -> Poly:
    b, m = prev[-1], n - 1
    return Poly([1, 1, 2 * m]) * b + 2 * Poly([0, 1, 0, -1]) * b.derivative()


def _step_cpoly(n: int, prev: list[Poly]) -> Poly:
    c, m = prev[-1], n - 1
    return Poly([-1, 3, 2 * m]) * c + 2 * Poly([0, 1, 0, -1]) * c.derivative()


def _step_dpoly(n: int, prev: list[Poly]) -> Poly:
    d, dprev, m = prev[-1], prev[-2], n - 1
    return (
        m * Poly([0, 0, 1]) * d
        + Poly([0, 1, 0, -1]) * d.derivative()
        + m * Poly.x() * dprev
    )


def eulerian(n: int, kind: str) -> Poly:
    """Type A or B Eulerian polynomial assembled from its gamma expansion.

    A_n = sum_k a(n,k) x^k (1+x)^(n+1-2k) and B_n = sum_k b(n,k) x^k (1+x)^(n-2k).
    Read from the store of the eulerA or eulerB sequence.
    """
    if kind not in ("A", "B"):
        raise UnknownFamily(f"eulerian kind must be 'A' or 'B', got {kind!r}")
    if n < 1:
        raise ValueError(f"type {kind} defined for n >= 1")
    return _stored_polys("euler" + kind, n)[n - 1]


def _step_eulerian(kind: str, n: int, prev: list[Poly]) -> Poly:
    top = n + 1 if kind == "A" else n
    return GammaForm(top, _row(kind.lower(), n)).reassemble()


class _SeqSpec(NamedTuple):
    min_n: int
    initial: tuple[Poly, ...]  # the polynomials at indices min_n, min_n + 1, ...
    step: Callable[[int, list[Poly]], Poly]


_POLYSEQS: dict[str, _SeqSpec] = {
    "bpoly": _SeqSpec(0, (Poly.one(), _ONE_X), _step_bpoly),
    "cpoly": _SeqSpec(1, (Poly.x(),), _step_cpoly),
    "dpoly": _SeqSpec(0, (Poly.one(), Poly.zero()), _step_dpoly),
    "gammapoly": _SeqSpec(0, (), lambda n, prev: Poly(_row("gamma", n))),
    "Fpoly": _SeqSpec(0, (), lambda n, prev: Poly(_row("F", n))),
    "eulerA": _SeqSpec(1, (), partial(_step_eulerian, "A")),
    "eulerB": _SeqSpec(1, (), partial(_step_eulerian, "B")),
}

POLY_FAMILIES = tuple(_POLYSEQS)

# polys[i] of family `name` has index min_n + i; extended on demand by `_stored_polys`
_POLYSEQ_POLYS: dict[str, list[Poly]] = {}


def _stored_polys(name: str, max_n: int) -> list[Poly]:
    """The store of the named polynomial sequence, extended through index max_n."""
    if name not in _POLYSEQS:
        raise UnknownFamily(f"unknown polynomial family {name!r}")
    spec = _POLYSEQS[name]
    if max_n < spec.min_n:
        raise ValueError(f"family {name!r} starts at index {spec.min_n}")
    polys = _POLYSEQ_POLYS.setdefault(name, list(spec.initial))
    return _extend(polys, spec.min_n, max_n, spec.step)


def polyseq(name: str, max_n: int) -> PolySeq:
    """The named polynomial sequence through index max_n, extending the store."""
    polys = _stored_polys(name, max_n)
    min_n = _POLYSEQS[name].min_n
    return PolySeq(name, min_n, tuple(polys[: max_n - min_n + 1]))


# ---------------------------------------------------------------------------
# derived assemblies
# ---------------------------------------------------------------------------


def inclusion_exclusion_Rxy(n: int) -> MultiPoly:
    """sum_i C(n,i) (q x (y-1))^i R_{n-i}(x; q), a polynomial in (x, y, q).

    >>> str(inclusion_exclusion_Rxy(2))
    'x*q + x^2*y^2*q^2'
    """
    tri = triangle("Rq", n)
    x, y, q = (MultiPoly.variable(_XYQ, v) for v in _XYQ)
    step = q * x * (y - 1)
    total = MultiPoly.zero(_XYQ)
    for i in range(n + 1):
        total = total + comb(n, i) * step**i * tri.row_multipoly(n - i).extended(_XYQ)
    return total


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------


def entry_str(entry: Entry) -> str:
    if isinstance(entry, Poly):
        return entry.to_str("q")
    return str(entry)


def export_bfile(tri: Triangle) -> str:
    """OEIS-style b-file: one "n k value" line per entry, row-major."""
    lines = [
        f"# family {tri.name}: rows {tri.min_n}..{tri.max_n}; "
        "line format: n k value; row n lists k = 0..k_max(n)"
    ]
    for n in range(tri.min_n, tri.max_n + 1):
        for k, entry in enumerate(tri.row(n)):
            lines.append(f"{n} {k} {entry_str(entry)}")
    return "\n".join(lines) + "\n"


def export_csv(tri: Triangle) -> str:
    """A "n,k,value" header and one line per entry, row-major.

    No field needs CSV quoting: a value is an `int` or `Poly.to_str("q")`
    text, which never holds a comma, a quote or a newline.
    """
    lines = ["n,k,value"]
    for n in range(tri.min_n, tri.max_n + 1):
        for k, entry in enumerate(tri.row(n)):
            lines.append(f"{n},{k},{entry_str(entry)}")
    return "\n".join(lines) + "\n"


def export_json(tri: Triangle) -> str:
    obj = {
        "family": tri.name,
        "min_n": tri.min_n,
        "max_n": tri.max_n,
        "rows": {
            str(n): [entry_str(e) for e in tri.row(n)]
            for n in range(tri.min_n, tri.max_n + 1)
        },
    }
    return json.dumps(obj, indent=2)
