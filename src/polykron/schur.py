"""Schur-basis expansions and the Littlewood-Richardson kernel behind them.

Littlewood-Richardson terms are generated directly instead of being searched
for one coefficient at a time (the technique of Buch's lrcalc):

- `_product_terms(mu, nu)` grows mu by horizontal strips of nu_1 1s, nu_2 2s,
  and so on, keeping the reverse reading word (right to left, top to bottom)
  a lattice word row by row.  It reaches exactly the lam with a nonzero
  c^lam_{mu,nu}, once per LR tableau.
- `_skew_terms(outer, inner)` walks the LR fillings of outer/inner once, with
  free content, and tallies them by content.

Both work on `parts` tuples and return dicts keyed by the tuples of
`partitions_of(d)`, which callers never receive: `lr_coeff`,
`skew_schur_expansion` and `schur_outer_product` answer from them.  Kostka
numbers come from a separate filling counter without the lattice condition.
Each kernel is an `lru_cache(maxsize=None)` function, so `cache_info()` and
`cache_clear()` report and reset its memo.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DegreeMismatchError
from .partitions import Composition, Partition, SkewShape, partitions_of

# A dict rather than an lru_cache because the CLI's --cache file saves it.
_LR_CACHE: dict[tuple, int] = {}


@lru_cache(maxsize=None)
def _canonical(d: int) -> dict:
    """parts tuple -> the Partition object of partitions_of(d), built on first use."""
    return {p.parts: p for p in partitions_of(d)}


class SchurExpansion:
    """An integer combination of Schur-basis terms in a single degree.

    Keys are partitions of `degree`; zero coefficients are never stored.
    Coefficients may be negative in intermediate (virtual) expansions.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        self.degree = int(degree)
        clean = {}
        for p, c in dict(terms or {}).items():
            if not isinstance(p, Partition):
                p = Partition(p)
            if p.size != self.degree:
                raise DegreeMismatchError(
                    f"term {p!r} does not have degree {self.degree}"
                )
            c = int(c)
            if c:
                clean[p] = c
        self.terms = clean

    @classmethod
    def _from_parts(cls, degree: int, terms: dict) -> "SchurExpansion":
        """A fresh expansion from {parts tuple: int} with keys known to be
        partitions of `degree`; keys become the objects of partitions_of."""
        canon = _canonical(degree)
        self = object.__new__(cls)
        self.degree = degree
        self.terms = {canon[p]: c for p, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls, degree: int) -> "SchurExpansion":
        return cls(degree, {})

    @classmethod
    def single(cls, part: Partition, coeff: int = 1) -> "SchurExpansion":
        return cls(part.size, {part: coeff})

    def coefficient(self, part: Partition) -> int:
        return self.terms.get(part, 0)

    def items(self):
        """Terms in descending lexicographic order of partitions."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].parts, reverse=True)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def conjugate(self) -> "SchurExpansion":
        return SchurExpansion(self.degree, {p.conjugate(): c for p, c in self.terms.items()})

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatchError("cannot add expansions of different degrees")
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, 0) + c
        return SchurExpansion(self.degree, acc)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar: int):
        return SchurExpansion(self.degree, {p: c * scalar for p, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return (
            isinstance(other, SchurExpansion)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return f"SchurExpansion({self.degree}, 0)"
        body = " + ".join(f"{c}*s({p.text()})" for p, c in self.items())
        return f"SchurExpansion({self.degree}, {body})"


@lru_cache(maxsize=None)
def _count_fillings(shape: tuple, content: tuple) -> int:
    """Count semistandard fillings of the shape with the given content.

    Cells are scanned row by row, right to left.
    """
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r] - 1, -1, -1)]
    if len(cells) != sum(content):
        return 0
    nvals = len(content)
    remaining = list(content)
    grid = {}

    def rec(k):
        if k == len(cells):
            return 1
        r, c = cells[k]
        lo = grid[(r - 1, c)] + 1 if r > 0 else 1
        hi = grid[(r, c + 1)] if c + 1 < shape[r] else nvals
        total = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[(r, c)] = v
            total += rec(k + 1)
            del grid[(r, c)]
            remaining[v - 1] += 1
        return total

    return rec(0)


def kostka(shape: Partition, content: Composition, *, strict: bool = False) -> int:
    """Number of semistandard Young tableaux of the given shape and content.

    A degree mismatch yields 0 by convention, or raises when `strict`.
    """
    if shape.size != content.degree:
        if strict:
            raise DegreeMismatchError(
                f"shape has size {shape.size} but content has degree {content.degree}"
            )
        return 0
    return _count_fillings(shape.parts, content.entries)


def _grow(base, content):
    """LR tableaux of shape lam/base and content `content`, counted by lam.

    Letter k+1 goes in as a horizontal strip of content[k] cells, placed row
    by row from the top.  With x cells of it in row r the reverse reading
    word stays a lattice word iff, summed over rows <= r, the letter k+1
    occurs no more often than the letter k does in rows < r; the `slack` of
    a row is that bound less what the rows above already used.
    """
    shape = list(base) + [0] * len(content)
    tally = {}

    def strip(k, prev):
        if k == len(content):
            lam = tuple(shape[: shape.index(0)] if 0 in shape else shape)
            tally[lam] = tally.get(lam, 0) + 1
            return
        old = shape[:]
        cur = [0] * len(shape)
        top = old.index(0)  # the one row this strip may open
        # room[r]: how many more cells rows >= r may take than row r's slack
        room = [0] * (top + 2)
        for r in range(top - 1, -1, -1):
            room[r] = room[r + 1] + prev[r]

        def row(r, left, slack):
            if left == 0:
                strip(k + 1, cur)
                return
            if left > slack + room[r]:
                return
            cap = min(left, slack, old[r - 1] - old[r]) if r else min(left, slack)
            # A horizontal strip puts at most old[r] cells below row r.
            for x in range(cap, max(left - old[r], 0) - 1, -1):
                shape[r] = old[r] + x
                cur[r] = x
                row(r + 1, left - x, slack - x + prev[r])
            shape[r] = old[r]
            cur[r] = 0

        # The 1s have no lattice bound; every later letter starts at slack 0.
        row(0, content[k], content[k] if k == 0 else 0)

    strip(0, [0] * len(shape))
    return tally


@lru_cache(maxsize=None)
def _product_terms(mu: tuple, nu: tuple) -> dict:
    """{lam: c^lam_{mu,nu}} over the lam with a nonzero coefficient.

    The factor with more rows is grown by the content of the other, which
    needs fewer letters; s_nu*s_mu returns the dict of s_mu*s_nu, so both
    orders share one object.  The returned dict is the memo's own and must
    not be changed.
    """
    if (len(mu), mu) < (len(nu), nu):
        return _product_terms(nu, mu)
    canon = _canonical(sum(mu) + sum(nu))
    return {canon[lam].parts: c for lam, c in _grow(mu, nu).items()}


def _tally_skew(outer, inner):
    """LR fillings of outer/inner with free content, counted by content.

    Cells are visited in reverse reading order.  A cell is at most its right
    neighbour (rows weakly increase), more than the cell above it (columns
    strictly increase), and a letter v > 1 needs more (v-1)s than vs so far.
    """
    right, above, index = [], [], {}
    for r, hi in enumerate(outer):
        lo = inner[r] if r < len(inner) else 0
        for c in range(hi - 1, lo - 1, -1):
            index[(r, c)] = len(right)
            right.append(len(right) - 1 if c + 1 < hi else -1)
            above.append(index.get((r - 1, c), -1))
    n = len(right)
    vals = [0] * n
    counts = [0] * (n + 2)
    tally = {}

    def rec(k, top):
        if k == n:
            content = tuple(counts[1 : top + 1])
            tally[content] = tally.get(content, 0) + 1
            return
        lo = vals[above[k]] + 1 if above[k] >= 0 else 1
        hi = min(vals[right[k]], top + 1) if right[k] >= 0 else top + 1
        for v in range(lo, hi + 1):
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            vals[k] = v
            counts[v] += 1
            rec(k + 1, top if v <= top else v)
            counts[v] -= 1

    rec(0, 0)
    return tally


@lru_cache(maxsize=None)
def _skew_terms(outer: tuple, inner: tuple) -> dict:
    """{beta: c^outer_{inner,beta}} over the beta with a nonzero coefficient.

    inner must be contained in outer.  The returned dict is the memo's own
    and must not be changed.
    """
    canon = _canonical(sum(outer) - sum(inner))
    return {canon[beta].parts: c for beta, c in _tally_skew(outer, inner).items()}


def _add_product(acc: dict, left: dict, nu: tuple, weight: int = 1) -> None:
    """acc += weight * left * s_nu, with acc and left keyed by parts tuples."""
    for mu, x in left.items():
        w = weight * x
        for lam, c in _product_terms(mu, nu).items():
            acc[lam] = acc.get(lam, 0) + w * c


def lr_coeff(outer: Partition, left: Partition, right: Partition) -> int:
    """The Littlewood-Richardson coefficient c^outer_{left,right}.

    Impossible queries (size or containment failures) return 0.
    """
    if outer.size != left.size + right.size or not outer.contains(left):
        return 0
    key = (outer.parts, left.parts, right.parts)
    hit = _LR_CACHE.get(key)
    if hit is None:
        hit = _product_terms(left.parts, right.parts).get(outer.parts, 0)
        _LR_CACHE[key] = hit
    return hit


def skew_schur_expansion(shape: SkewShape) -> SchurExpansion:
    """Schur expansion of the skew Schur function of the shape."""
    terms = _skew_terms(shape.outer.parts, shape.inner.parts)
    return SchurExpansion._from_parts(shape.size, terms)


def schur_outer_product(a: SchurExpansion, b: SchurExpansion) -> SchurExpansion:
    """Bilinear extension of s_mu * s_nu = sum of c^lam_{mu,nu} s_lam."""
    acc = {}
    left = {p.parts: c for p, c in a.terms.items()}
    for nu, y in b.terms.items():
        _add_product(acc, left, nu.parts, y)
    return SchurExpansion._from_parts(a.degree + b.degree, acc)


def conjugate_expansion(a: SchurExpansion) -> SchurExpansion:
    """Replace every key by its conjugate partition, coefficients unchanged."""
    return a.conjugate()
