"""Schur-basis expansions and the Littlewood-Richardson kernel behind them.

Littlewood-Richardson terms are generated directly instead of being searched
for one coefficient at a time:

- `_product_terms(mu, nu)` multiplies s_mu by the Jacobi-Trudi determinant
  s_nu = det(h_{nu_i - i + j}) (Macdonald I.3), folded by Laplace expansion
  over column masks, bottom row first, from {mu: 1} (`_product_fold`).  Each
  move is a Pieri step s_alpha * h_a, the sum of s_beta over the horizontal
  a-strips beta/alpha (I.5), with no lattice condition; the determinant
  terms that use the same columns reach the same mask, so their products add
  up and cancel before the next row.  The steps come from one memo shared by
  all products, keyed by (degree, position of alpha, a) (`_pieri`).
  `_laplace` owns the row order, the column masks and their signs (from
  `_moves`) of this fold, of `internal_product`'s fold and of its term list.
  c^lam_{mu,nu} = c^lam_{nu,mu} = c^lam'_{mu',nu'}, so of the four
  orientations (mu, nu), (nu, mu), (mu', nu') and (nu', mu') only the first
  in `_walk_order` is folded: the content with the fewest letters, which is
  the fewest determinant rows and so at most 2^k masks, then the fewest
  rows to grow.  An entry holds the fold's nonzero coefficients as
  two flat tuples, their positions in ascending order and the coefficients.
  The swapped pair returns the same entry, and the conjugate pair an entry
  that shares both tuples and reads them through `_conjugation(d)`, the
  permutation of positions in partitions_of(d) that conjugates each
  partition; nothing is copied.
- `_skew_terms(outer, inner)` reads each c^outer_{inner,beta} from the
  memoised product s_inner * s_beta, so skew Schur functions and products
  share one LR kernel and one memo of products.  The Weyl chain's Wedge
  steps need s_{beta'/alpha'} = omega s_{beta/alpha}, and read the terms of
  s_{beta/alpha} through `_conjugation`, so both step families share the
  skew memo's entries.

Both take `parts` tuples and answer in index form: a result partition is
named by its position in `partitions_of(d)`.  Callers outside this module
and the Weyl chain never receive that form: `lr_coeff`,
`skew_schur_expansion` and `schur_outer_product` answer from it, and
`SchurExpansion._from_index` turns positions into the `Partition` objects of
`partitions_of(d)`.  `_multiply`, the one multiply-accumulate, adds the
products of index-form expansions with pieces s_gamma into a dense list
that its caller owns; `schur_outer_product` and the Weyl chain's steps both
call it.

The module's memos are registered in `_memo`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

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


def _moves(expanded: tuple, row: int, mask: int):
    """(column, sign, size) for each free column of `mask` whose entry
    h_size, size = expanded[row] - row + column, in expanded's Jacobi-Trudi
    matrix is nonzero (size >= 0): the sign is -1 to the number of used
    columns left of the column.  Read by _laplace and by the shape-only
    estimate _fold_cost of internal_product."""
    sign = 1
    for j in range(len(expanded)):
        if mask >> j & 1:
            sign = -sign
        elif (size := expanded[row] - row + j) >= 0:
            yield j, sign, size


def _laplace(expanded: tuple, start, combine):
    """The Laplace expansion of expanded's Jacobi-Trudi determinant over
    column masks, bottom row first, from `start` at the empty mask: row r
    makes each mask's table by one combine(r, moves) call on the (table,
    sign, size) of every move of _moves into it, in the order of the masks
    and columns.  Returns the full mask's table (`start` for an empty
    determinant)."""
    tables = {0: start}
    for row in range(len(expanded) - 1, -1, -1):
        reached = {}
        for mask, table in tables.items():
            for j, sign, size in _moves(expanded, row, mask):
                reached.setdefault(mask | 1 << j, []).append((table, sign, size))
        tables = {mask: combine(row, moves) for mask, moves in reached.items()}
    return tables[(1 << len(expanded)) - 1]


@memo
def _pieri(degree: int, at: int, size: int) -> tuple:
    """The positions in partitions_of(degree + size) of the shapes that a
    horizontal strip of `size` cells grows on alpha, the partition at
    position `at` of partitions_of(degree): the terms of s_alpha * h_size.

    They are the partitions between alpha and (alpha_1 + size, alpha_1,
    alpha_2, ...): each row of beta reaches at most the row above it in
    alpha, which makes beta/alpha a horizontal strip.  This memo holds the
    walk's shapes as positions, so the enumerator runs past its own memo,
    which would keep them again as parts tuples."""
    alpha = partitions_of(degree)[at].parts
    pos = _positions(degree + size)
    top = (alpha[0] + size, *alpha) if alpha else (size,)
    return tuple(map(pos.__getitem__, _partitions_between.__wrapped__(alpha, top, degree + size)))


def _product_fold(mu: tuple, nu: tuple) -> dict:
    """{position: c^lam_{mu,nu}} over partitions_of(|mu| + |nu|), positions
    ascending and zeros dropped: s_mu * det(h_{nu_r - r + j}) folded by
    _laplace from (|mu|, {position of mu: 1}), each move by the Pieri steps
    of _pieri.  The full mask's table is summed in a dense list; the
    positions are the int objects of _positions.
    """
    def combine(row, moves):
        (degree, _), _, size = moves[0]
        degree += size
        if row:
            acc = {}
            get = acc.get
            for (d, table), sign, size in moves:
                for alpha, c in table.items():
                    c *= sign
                    for beta in _pieri(d, alpha, size):
                        acc[beta] = get(beta, 0) + c
            return degree, {beta: c for beta, c in acc.items() if c}
        acc = [0] * len(partitions_of(degree))
        for (d, table), sign, size in moves:
            for alpha, c in table.items():
                c *= sign
                for beta in _pieri(d, alpha, size):
                    acc[beta] += c
        return degree, dict(compress(zip(_positions(degree).values(), acc), acc))

    return _laplace(nu, (sum(mu), {_positions(sum(mu))[mu]: 1}), combine)[1]


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
    orientations only the one first in _walk_order is walked, by
    _product_fold, and its entry has flip None.  s_nu*s_mu returns the entry
    of s_mu*s_nu, and the conjugate pair's entry shares the walked tuples,
    with flip the _conjugation of its degree.  Read an entry through _coefficient or
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
    terms = _product_fold(mu, nu)
    return tuple(terms), tuple(terms.values()), None


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


def _multiply(acc: list, pieces: dict, degree: int, size: int) -> None:
    """Add to acc, a dense list over partitions_of(degree + size), the sum of
    left * s_gamma over the (gamma, left) items of pieces; gamma is a
    position in partitions_of(size) and left is keyed by positions in
    partitions_of(degree)."""
    shapes = partitions_of(degree)
    factors = partitions_of(size)
    for gamma, left in pieces.items():
        nu = factors[gamma].parts
        for mu, x in left.items():
            terms, coefficients, flip = _product_terms(shapes[mu].parts, nu)
            if flip:
                terms = map(flip.__getitem__, terms)
            for i, c in zip(terms, coefficients):
                acc[i] += x * c


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
    acc = [0] * len(partitions_of(a.degree + b.degree))
    _multiply(acc, pieces, a.degree, b.degree)
    return SchurExpansion._from_index(a.degree + b.degree, enumerate(acc))
