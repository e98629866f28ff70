"""Schur-basis expansions and the Littlewood-Richardson kernel behind them.

Littlewood-Richardson terms are generated directly instead of being searched
for one coefficient at a time (the technique of Buch's lrcalc):

- `_product_terms(mu, nu)` grows mu by horizontal strips of nu_1 1s, nu_2 2s,
  and so on, keeping the reverse reading word (right to left, top to bottom)
  a lattice word row by row (`_lr_tally`).  Every letter but the last is
  placed strip by strip.  The last letter's strips depend only on the shape
  and on the strip of the letter before, and products of different factors
  often reach the same such state, so they come from one memo shared by all
  products (`_last_strips`).  The tally counts each LR tableau once.  The
  walk makes no call per row and no closure or callback per strip:
  `_strips` is a generator that walks the rows of one letter's strips in
  its own frame and yields each strip, and `_lr_tally` keeps one such
  generator per letter on a stack in its frame, as lrcalc keeps its
  tableau walk on an explicit stack.
  c^lam_{mu,nu} = c^lam_{nu,mu} = c^lam'_{mu',nu'}, so of the four
  orientations (mu, nu), (nu, mu), (mu', nu') and (nu', mu') only the first
  in `_walk_order` is walked: the content with the fewest letters, then the
  fewest rows to grow.  An entry holds the walk's nonzero coefficients as
  two flat tuples, their positions in ascending order and the coefficients.
  The swapped pair returns the same entry, and the conjugate pair an entry
  that shares both tuples and reads them through `_conjugation(d)`, the
  permutation of positions in partitions_of(d) that conjugates each
  partition; nothing is copied.
- `_skew_terms(outer, inner)` reads each c^outer_{inner,beta} from the
  memoised product s_inner * s_beta, so skew Schur functions and products
  share one LR walker and one memo of products.  The Weyl chain's Wedge
  steps need s_{beta'/alpha'} = omega s_{beta/alpha}, and read the terms of
  s_{beta/alpha} through `_conjugation`, so both step families share the
  skew memo's entries.

Both take `parts` tuples and answer in index form: a result partition is
named by its position in `partitions_of(d)`.  Callers outside this module
and the Weyl chain never receive that form: `lr_coeff`,
`skew_schur_expansion` and `schur_outer_product` answer from it, and
`SchurExpansion._from_index` turns positions into the `Partition` objects of
`partitions_of(d)`.  `_multiply`, the one multiply-accumulate, sums the
products of index-form expansions with pieces s_gamma in a dense list;
`schur_outer_product` and the Weyl chain's steps both call it.

The module's memos are registered in `_memo`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import sub

from ._memo import memo
from .errors import DegreeMismatchError
from .partitions import (
    Partition,
    SkewShape,
    _conjugate_parts,
    _integers,
    _partitions_between,
    partitions_of,
)


@memo
def _positions(d: int) -> dict:
    """parts tuple -> its position in partitions_of(d)."""
    return {p.parts: i for i, p in enumerate(partitions_of(d))}


@memo
def _conjugation(d: int) -> tuple:
    """position in partitions_of(d) -> the position of its conjugate."""
    pos = _positions(d)
    return tuple(pos[_conjugate_parts(p.parts)] for p in partitions_of(d))


class SchurExpansion:
    """An integer combination of Schur-basis terms in a single degree.

    Keys are partitions of `degree`; zero coefficients are never stored.
    Coefficients may be negative in intermediate (virtual) expansions.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        (self.degree,) = _integers((degree,), "Schur degrees")
        # A mapping or (key, coefficient) pairs, told apart as dict() does;
        # repeated pairs are summed like equal keys.
        terms = tuple(terms.items() if hasattr(terms, "keys") else terms or ())
        acc = {}
        for (p, _), c in zip(terms, _integers(tuple(c for _, c in terms), "Schur coefficients")):
            if not isinstance(p, Partition):
                p = Partition(p)
            if p.size != self.degree:
                raise DegreeMismatchError(
                    f"term {p!r} does not have degree {self.degree}"
                )
            # A parts tuple and the equal Partition name one term, as in __add__.
            acc[p] = acc.get(p, 0) + c
        self.terms = {p: c for p, c in acc.items() if c}

    @classmethod
    def _from_index(cls, degree: int, pairs) -> "SchurExpansion":
        """A fresh expansion from (i, int) pairs, i a position in
        partitions_of(degree); keys become the objects of partitions_of."""
        shapes = partitions_of(degree)
        self = object.__new__(cls)
        self.degree = degree
        self.terms = {shapes[i]: c for i, c in pairs if c}
        return self

    @classmethod
    def single(cls, part: Partition, coeff: int = 1) -> "SchurExpansion":
        return cls(part.size, {part: coeff})

    def coefficient(self, part: Partition) -> int:
        if not isinstance(part, Partition):
            part = Partition(part)
        return self.terms.get(part, 0)

    def items(self):
        """Terms in descending lexicographic order of partitions."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].parts, reverse=True)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def conjugate(self) -> "SchurExpansion":
        return SchurExpansion(self.degree, {p.conjugate(): c for p, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatchError("cannot add expansions of different degrees")
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, 0) + c
        return SchurExpansion(self.degree, acc)

    def __sub__(self, other):
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar: int):
        (scalar,) = _integers((scalar,), "Schur scalars")
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


def _strips(shape: list, prev, size: int, top: int):
    """Yield cur once per horizontal strip of `size` cells that the next
    letter can add to `shape` with the reverse reading word (right to left,
    top to bottom) still a lattice word.

    shape ends in at least one zero row, and `top` is its first zero row,
    the one row a strip may open.  prev[r] is the number of cells the letter
    before filled in row r, with an entry for every row up to `top`; prev is
    all zero for the letter 1, and otherwise a horizontal strip of shape
    with at least `size` cells, as the content is a partition.  Cells go
    in row by row from the top.  With x cells in row r the word stays a
    lattice word iff, summed over rows <= r, the new letter occurs no more
    often than the one before does in rows < r; the `slack` of a row is that
    bound less what the rows above already used.  While the consumer holds a
    strip, shape holds the grown shape and cur[r] the strip's cells in row r;
    both are restored before the next strip.

    The rows are walked depth first in this one generator frame, with no
    call per row: a placed row r keeps its count in cur[r], its least count
    in low[r] and the `left` and `slack` it was entered with, and counts are
    tried from high to low.

    The walk is exact: row r takes from least = max(0, left - old[r]) to
    cap = min(left, slack, gap[r]) cells, and cap >= least in every row, so
    every count tried completes a strip.

    1. With room(r) the sum of prev[j] over j >= r, left <= slack + room(r)
       holds at row 0 (slack = size for the letter 1; size <= |prev| for a
       later one), and x cells in row r keep it: left falls by x, slack
       changes by prev[r] - x and room falls by prev[r].
    2. prev is a horizontal strip of shape, so room(r) <= old[r] and
       slack >= left - old[r]; slack >= 0, as no row takes more than it.
    3. Row r - 1 left at most old[r - 1] cells below it, so
       gap[r] = old[r - 1] - old[r] >= least; gap[0] = size = left.
    4. Row `top` has old = 0, so it takes all that is left: the walk never
       passes `top`.
    """
    old = shape[:]
    cur = [0] * len(shape)
    # gap[r]: the most cells row r may take and stay below row r - 1
    gap = [size, *map(sub, old, old[1 : top + 1])]
    low = [0] * (top + 1)
    lefts = [0] * (top + 1)
    slacks = [0] * (top + 1)
    r = 0
    left = size
    # Only the letter 1 has an all-zero prev, and the 1s have no lattice
    # bound; every later letter starts at slack 0.
    slack = 0 if any(prev) else size
    while True:
        # Fill rows r, r + 1, ... with their largest counts until the strip
        # is placed, and yield it.
        while left:
            cap = left if left < slack else slack
            if gap[r] < cap:
                cap = gap[r]
            # A horizontal strip puts at most old[r] cells below row r.
            least = left - old[r]
            if least < 0:
                least = 0
            low[r] = least
            lefts[r] = left
            slacks[r] = slack
            shape[r] = old[r] + cap
            cur[r] = cap
            left -= cap
            slack += prev[r] - cap
            r += 1
        yield cur
        # Restore the rows at their least count; the row above them takes
        # one cell fewer, and the walk goes on below it.
        r -= 1
        while r >= 0 and cur[r] == low[r]:
            shape[r] = old[r]
            cur[r] = 0
            r -= 1
        if r < 0:
            return
        x = cur[r] - 1
        shape[r] = old[r] + x
        cur[r] = x
        left = lefts[r] - x
        slack = slacks[r] + prev[r] - x
        r += 1


@memo
def _last_strips(shape: tuple, prev: tuple, size: int) -> tuple:
    """The positions in partitions_of(|shape| + size) of the shapes that the
    last letter's strip of `size` cells reaches from `shape`, in the order
    that _strips yields them.

    prev has one entry per row of shape, all zero for the letter 1, so the
    key needs no flag for it.  Distinct strips reach distinct shapes, so
    each position occurs once.  Products of different factors often end in
    the same state, and this memo serves them all.
    """
    grown = [*shape, 0]
    pos = _positions(sum(shape) + size)
    out = []
    for _ in _strips(grown, [*prev, 0], size, len(shape)):
        out.append(pos[tuple(grown) if grown[-1] else tuple(grown[:-1])])
    return tuple(out)


def _lr_tally(base: tuple, content: tuple) -> list:
    """c^lam_{base,content} for every lam, as a list aligned with
    partitions_of(|lam|).

    Letter k+1 goes in as a horizontal strip of content[k] cells (_strips);
    each LR tableau of shape lam/base and content `content` is one way to
    place them all.  The letters before the last are walked depth first in
    this one frame: `walks[k]` is the _strips generator of letter k+1 on the
    shape that the letters before it left, and it reads their last strip as
    its prev.  The last letter's strips come from the _last_strips memo,
    keyed by the state the letters before it leave.  A strip opens at most
    one row, so `tops[k]`, the row count of the shape that letter k+1 grows,
    is carried down the stack rather than searched for.
    """
    tally = [0] * len(partitions_of(sum(base) + sum(content)))
    if not content:
        tally[_positions(sum(base))[base]] = 1
        return tally
    last = len(content) - 1
    size = content[last]
    if not last:
        for i in _last_strips(base, (0,) * len(base), size):
            tally[i] += 1
        return tally
    shape = [*base] + [0] * len(content)
    tops = [len(base)] + [0] * (last - 1)
    walks = [_strips(shape, [0] * len(shape), content[0], len(base))] + [None] * (last - 1)
    k = 0
    while k >= 0:
        top = tops[k]
        for cur in walks[k]:
            grown = top + 1 if cur[top] else top
            if k + 1 < last:  # descend; the while resumes at letter k + 2
                k += 1
                tops[k] = grown
                walks[k] = _strips(shape, cur, content[k], grown)
                break
            for i in _last_strips(tuple(shape[:grown]), tuple(cur[:grown]), size):
                tally[i] += 1
        else:  # letter k + 1 is exhausted; resume letter k
            k -= 1
    return tally


def _walk_order(mu: tuple, nu: tuple) -> tuple:
    """The sort key of the orientation that grows mu by the content nu: the
    fewest letters, then the fewest rows to grow, then the parts."""
    return (len(nu), len(mu), nu, mu)


@memo
def _product_terms(mu: tuple, nu: tuple) -> tuple:
    """(positions, coefficients, flip): the nonzero c^lam_{mu,nu} of the
    walked orientation as two flat tuples, the positions in
    partitions_of(|mu| + |nu|) of its lam in ascending order (the int
    objects of _positions, shared with every other memo) and their
    coefficients, and the permutation that carries those positions to this
    orientation's, or None.

    c^lam_{mu,nu} = c^lam_{nu,mu} = c^lam'_{mu',nu'}, so of the four
    orientations only the one first in _walk_order is walked, and its entry
    has flip None.  s_nu*s_mu returns the entry of s_mu*s_nu, and the
    conjugate pair's entry shares the walked tuples, with flip the
    _conjugation of its degree.  Read an entry through _coefficient or
    _multiply.
    """
    if _walk_order(nu, mu) < _walk_order(mu, nu):
        return _product_terms(nu, mu)
    cmu, cnu = _conjugate_parts(mu), _conjugate_parts(nu)
    if _walk_order(cnu, cmu) < _walk_order(cmu, cnu):
        cmu, cnu = cnu, cmu
    if _walk_order(cmu, cnu) < _walk_order(mu, nu):
        positions, coefficients, _ = _product_terms(cmu, cnu)
        return positions, coefficients, _conjugation(sum(mu) + sum(nu))
    tally = _lr_tally(mu, nu)
    positions = _positions(sum(mu) + sum(nu)).values()
    return tuple(compress(positions, tally)), tuple(compress(tally, tally)), None


def _coefficient(entry: tuple, at: int) -> int:
    """The coefficient at position `at` in a _product_terms entry, or 0.
    Conjugation is an involution, so flip carries `at` to the walked
    orientation's position."""
    positions, coefficients, flip = entry
    if flip:
        at = flip[at]
    k = bisect_left(positions, at)
    return coefficients[k] if k < len(positions) and positions[k] == at else 0


@memo
def _skew_terms(outer: tuple, inner: tuple) -> dict:
    """{i: c^outer_{inner,beta}} over the positions i in
    partitions_of(|outer| - |inner|) of the beta with a nonzero coefficient,
    i ascending: the Schur terms of s_{outer/inner}.

    Each coefficient is read from the product s_inner * s_beta, for the beta
    inside outer; no other beta has one.  inner must be contained in outer.
    The returned dict is the memo's own and must not be changed.
    """
    at = _positions(sum(outer))[outer]
    size = sum(outer) - sum(inner)
    pos = _positions(size)
    terms = {}
    for beta in _partitions_between((), outer, size):
        c = _coefficient(_product_terms(inner, beta), at)
        if c:
            terms[pos[beta]] = c
    return terms


def _multiply(pieces: dict, degree: int, size: int) -> dict:
    """The nonzero {position: coefficient} table over partitions_of(degree +
    size) of the sum of left * s_gamma over the (gamma, left) items of pieces;
    gamma is a position in partitions_of(size), left is keyed by positions in
    partitions_of(degree), and the keys are the int objects of _positions."""
    shapes = partitions_of(degree)
    factors = partitions_of(size)
    positions = _positions(degree + size).values()
    acc = [0] * len(positions)
    for gamma, left in pieces.items():
        nu = factors[gamma].parts
        for mu, x in left.items():
            terms, coefficients, flip = _product_terms(shapes[mu].parts, nu)
            if flip:
                terms = map(flip.__getitem__, terms)
            for i, c in zip(terms, coefficients):
                acc[i] += x * c
    return dict(compress(zip(positions, acc), acc))


def lr_coeff(outer: Partition, left: Partition, right: Partition) -> int:
    """The Littlewood-Richardson coefficient c^outer_{left,right}.

    Impossible queries (size or containment failures) return 0.
    """
    if outer.size != left.size + right.size or not outer.contains(left):
        return 0
    at = _positions(outer.size)[outer.parts]
    return _coefficient(_product_terms(left.parts, right.parts), at)


def skew_schur_expansion(shape: SkewShape) -> SchurExpansion:
    """Schur expansion of the skew Schur function of the shape."""
    terms = _skew_terms(shape.outer.parts, shape.inner.parts)
    return SchurExpansion._from_index(shape.size, terms.items())


def schur_outer_product(a: SchurExpansion, b: SchurExpansion) -> SchurExpansion:
    """Bilinear extension of s_mu * s_nu = sum of c^lam_{mu,nu} s_lam."""
    left = {_positions(a.degree)[p.parts]: c for p, c in a.terms.items()}
    pos = _positions(b.degree)
    pieces = {pos[nu.parts]: {mu: y * x for mu, x in left.items()} for nu, y in b.terms.items()}
    terms = _multiply(pieces, a.degree, b.degree)
    return SchurExpansion._from_index(a.degree + b.degree, terms.items())
