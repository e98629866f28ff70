"""Decompositions of internal tensor products of polynomial functors.

Products of divided/symmetric/exterior power functors decompose over the set
of contingency matrices with the two weights as margins.  Tensoring a Weyl
functor with a divided-power weight produces an explicit Weyl filtration whose
multiplicities are sums of products of Littlewood-Richardson coefficients,
indexed by chains of nested partitions; along (d) they are Kostka numbers.
Combining that filtration with the Jacobi-Trudi determinant gives
symmetric-group Kronecker multiplicities in characteristic zero: `kronecker`
answers the unit (n) and the sign (1^n), sends (a, 1) to a product reading
the other factor's `one_box_moves` and every other pair to the fold, and
keeps the paper's hook chain as `hook`.  Memos are registered in `_memo`.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, compress, repeat

from ._memo import memo
from .errors import ConsistencyError, DegreeMismatchError, SizeBoundError, UndefinedProductError
from .partitions import (
    Composition,
    Partition,
    _contingency_rows,
    _margin_degree,
    _partitions_between,
)
from .schur import SchurExpansion, _conjugation, _laplace, _moves, _multiply, _positions, _skew_terms

GAMMA = "Gamma"
SYM = "Sym"
WEDGE = "Wedge"
_FAMILIES = (GAMMA, SYM, WEDGE)

#: Default cap on the number of rows a Jacobi-Trudi determinant may have.
JACOBI_TRUDI_BOUND = 12


class CharTwoMode(Enum):
    """Whether 2 is invertible, zero, or a nonzero nonunit in the base ring."""

    TWO_INVERTIBLE = "unit"
    TWO_ZERO = "zero"
    TWO_NONZERO_NONUNIT = "other"


class ExpFunctor:
    """An exponential-family functor: a Gamma/Sym/Wedge power of a weight."""

    __slots__ = ("family", "weight")

    def __init__(self, family: str, weight: Composition):
        if family not in _FAMILIES:
            raise ValueError(f"unknown exponential family {family!r}")
        self.family = family
        self.weight = weight

    @property
    def degree(self) -> int:
        return self.weight.degree

    def __eq__(self, other):
        return (
            isinstance(other, ExpFunctor)
            and self.family == other.family
            and self.weight == other.weight
        )

    def __hash__(self):
        return hash((self.family, self.weight))

    def __repr__(self):
        return f"ExpFunctor({self.family}, {self.weight.text()})"


class ExpDecomposition:
    """A direct sum of exponential functors of one family."""

    __slots__ = ("family", "summands")

    def __init__(self, family: str, summands):
        if family not in _FAMILIES:
            raise ValueError(f"unknown exponential family {family!r}")
        summands = tuple(summands)
        degrees = {s.degree for s in summands}
        if len(degrees) > 1:
            raise DegreeMismatchError("summands must all have the same degree")
        self.family = family
        self.summands = summands

    @classmethod
    def _trusted(cls, family: str, summands: tuple):
        # Fast path for callers that guarantee the family and one degree.
        self = object.__new__(cls)
        self.family = family
        self.summands = summands
        return self

    @property
    def degree(self) -> int:
        return self.summands[0].degree if self.summands else 0

    def __eq__(self, other):
        return (
            isinstance(other, ExpDecomposition)
            and self.family == other.family
            and self.summands == other.summands
        )

    def __repr__(self):
        body = ", ".join(s.text() for s in self.summands)
        return f"ExpDecomposition({self.family}, [{body}])"


@memo(maxsize=1)
def _contingency_weights(sums: tuple, cols: tuple) -> tuple:
    """The row-major flattening of every matrix with row sums `sums` and
    column sums `cols`, in the order of iter_contingency, built from the rows
    tuples alone; the caller checks that the margins have one degree.

    Every product of two exponential functors has these summands, and the
    products of one margin pair are asked one after another, so the memo
    keeps the last pair only.  The returned tuple is the memo's own.
    """
    flat = map(tuple, map(chain.from_iterable, _contingency_rows(sums, cols)))
    return tuple(map(Composition._trusted, flat, repeat(sum(sums))))


def gamma_tensor_gamma(mu: Composition, lam: Composition) -> ExpDecomposition:
    """Product of two divided-power weights: one Gamma summand per matrix
    with row sums mu and column sums lam, flattened row-major."""
    _margin_degree(mu, lam)
    return ExpDecomposition._trusted(GAMMA, _contingency_weights(mu.entries, lam.entries))


# Output family for each unordered pair of input families.  The Sym/Wedge
# pair is the one case that depends on the behaviour of 2 in the base ring.
_FAMILY_TABLE = {
    frozenset([GAMMA]): GAMMA,
    frozenset([GAMMA, WEDGE]): WEDGE,
    frozenset([GAMMA, SYM]): SYM,
    frozenset([WEDGE]): SYM,
    frozenset([SYM]): SYM,
}
_SYM_WEDGE = frozenset([SYM, WEDGE])


def exponential_tensor(
    left: ExpFunctor,
    right: ExpFunctor,
    mode: CharTwoMode = CharTwoMode.TWO_INVERTIBLE,
) -> ExpDecomposition:
    """Internal product of two exponential functors.

    The summand weights are always the flattened contingency matrices of the
    two input weights; only the output family depends on the family pair.
    mode must be a CharTwoMode member, whatever the pair.
    """
    if not isinstance(mode, CharTwoMode):
        raise ValueError(f"unknown characteristic-two mode {mode!r}")
    pair = frozenset([left.family, right.family])
    if pair == _SYM_WEDGE:
        if mode is CharTwoMode.TWO_INVERTIBLE:
            family = WEDGE
        elif mode is CharTwoMode.TWO_ZERO:
            family = SYM
        else:
            raise UndefinedProductError(
                "Sym x Wedge is not an exponential direct sum when 2 is a "
                "nonzero nonunit in the base ring"
            )
    else:
        family = _FAMILY_TABLE[pair]
    _margin_degree(left.weight, right.weight)
    return ExpDecomposition._trusted(
        family, _contingency_weights(left.weight.entries, right.weight.entries)
    )


@memo
def _steps(gammas: tuple, wedges: tuple) -> tuple:
    """Canonical chain steps of h_gammas * e_wedges: the nonzero
    (size, family) pairs, smallest first.

    The factors h_size (GAMMA) and e_size (WEDGE) commute and a zero step
    only pauses the chain, so every order gives the same chain sum; this one
    is the memo key.  Smallest first is also the cheapest order: the last
    step does most of the multiplying, and it then multiplies expansions of
    the lowest degree.  Equal calls return one tuple, so the chain memo's
    keys share their steps; the key is two int tuples, cheap to hash.
    """
    pairs = chain(zip(gammas, repeat(GAMMA)), zip(wedges, repeat(WEDGE)))
    return tuple(sorted(pair for pair in pairs if pair[0]))


def _step(out: dict, lam: tuple, dp: dict, size: int, family: str, sign: int) -> None:
    """One chain step: add sign times the table {alpha: expansion} grown by
    `size` cells into out, which maps each beta to a dense list over
    partitions_of(|beta|).

    Each alpha passes to every beta between alpha and lam with `size` more
    cells (to lam alone once the step reaches |lam|), times the step piece:
    s_{beta/alpha} for a GAMMA step and its conjugate s_{beta'/alpha'} =
    omega s_{beta/alpha} for a WEDGE step, whose terms are those of
    s_{beta/alpha} read through _conjugation.  The step is linear in the
    expansions, so a signed sum of tables may be stepped once, and the
    expansions that reach one beta, grouped by piece, are multiplied out by
    one _multiply call into out[beta], as schur_outer_product's are.  Every
    alpha has the same size, and an expansion is keyed by the positions of
    its partitions in partitions_of of that size.
    """
    degree = sum(next(iter(dp), ()))
    total = degree + size
    flip = _conjugation(size) if family == WEDGE else None
    # by_piece[beta][gamma] sums sign * c^{beta/alpha}_gamma * dp[alpha] over
    # alpha, so each (mu, gamma) product is expanded once per beta.
    by_piece = {}
    for alpha, expn in dp.items():
        for beta in (lam,) if total == sum(lam) else _partitions_between(alpha, lam, total):
            groups = by_piece.get(beta)
            if groups is None:
                groups = by_piece[beta] = {}
            for gamma, c in _skew_terms(beta, alpha).items():
                if flip:
                    gamma = flip[gamma]
                left = groups.get(gamma)
                if left is None:
                    left = groups[gamma] = {}
                c *= sign
                for mu, x in expn.items():
                    left[mu] = left.get(mu, 0) + c * x
    for beta, groups in by_piece.items():
        acc = out.get(beta)
        if acc is None:
            acc = out[beta] = [0] * len(_positions(total))
        _multiply(acc, groups, degree, size)


def _compressed(out: dict) -> dict:
    """out's nonzero entries per beta, keyed by the int objects of _positions
    as in every table and memo entry; betas without any are dropped."""
    positions = _positions(sum(next(iter(out), ()))).values()
    return {beta: t for beta, acc in out.items() if (t := dict(compress(zip(positions, acc), acc)))}


@memo
def _chain(lam: tuple, steps: tuple) -> dict:
    """The table that _step folds over steps makes of {(): s_()}, by one memo
    entry per prefix of the steps and one frame per step, each compressing
    its last step into {}.

    At |lam| the table holds lam alone, and its entry there is the Kronecker
    product of s_lam with the product of the steps' h_size and e_size.  The
    returned dict is the memo's own and must not be changed.
    """
    if not steps:
        return {(): {0: 1}}
    out = {}
    _step(out, lam, _chain(lam, steps[:-1]), *steps[-1], 1)
    return _compressed(out)


def _gamma_steps(nu: Composition) -> tuple:
    return _steps(tuple(nu), ())


@memo
def _fold(chain: tuple, expanded: tuple) -> dict:
    """The Kronecker product of s_chain and s_expanded, as its entry at
    chain: expanded's Jacobi-Trudi determinant folded along chain by
    _laplace.  Each move adds its table with its sign to its mask's dense
    accumulators, stepped by _step (an h_0 move adds it as is), and one
    _compressed ends the mask.  A term's steps commute, so this row order
    gives its chain sum.  The returned dict is the memo's own and must not
    be changed.
    """
    def combine(row, moves):
        out = {}
        for table, sign, size in moves:
            if size:
                _step(out, chain, table, size, GAMMA, sign)
                continue
            for beta, expn in table.items():
                acc = out.get(beta)
                if acc is None:
                    acc = out[beta] = [0] * len(_positions(sum(beta)))
                for mu, x in expn.items():
                    acc[mu] += sign * x
        return _compressed(out)

    return _laplace(expanded, {(): {0: 1}}, combine).get(chain, {})


def _fold_cost(chain: tuple, expanded: tuple, budget=float("inf")) -> int:
    """A shape-only estimate of _fold(chain, expanded): over the masks that
    the fold reaches, the partitions inside chain at the size that each
    nonzero move steps to.  That bounds the cold fold's _multiply calls, one
    per nonzero move and beta reached.  It reads no LR, skew or chain memo,
    and it stops once the estimate reaches the budget."""
    sizes, inside, cost = {0: 0}, {}, 0
    for row in range(len(expanded) - 1, -1, -1):
        reached = {}
        for mask, size in sizes.items():
            for j, _, step in _moves(expanded, row, mask):
                reached[mask | 1 << j] = total = size + step
                if step:
                    if total not in inside:
                        inside[total] = len(_partitions_between((), chain, total))
                    cost += inside[total]
            if cost >= budget:
                return cost
        sizes = reached
    return cost


def _nonnegative(result: SchurExpansion, lam: Partition, other: str) -> SchurExpansion:
    """result, the Kronecker product of lam and `other` as a signed sum of
    chains, once its cancellations have left every coefficient >= 0."""
    if not result.is_nonnegative():
        raise ConsistencyError(
            f"negative coefficient in kronecker product of {lam.text()} and {other}: {result!r}"
        )
    return result


def _weyl_entry(lam: Partition, steps: tuple, flip=None) -> SchurExpansion:
    """The chain table's entry at lam as a fresh expansion; with a `flip`
    from _conjugation, its omega image."""
    entry = _chain(lam.parts, steps).get(lam.parts, {})
    return SchurExpansion._from_index(
        lam.size, [(flip[i], c) for i, c in entry.items()] if flip else entry.items()
    )


def _weyl_steps(lam: Partition, nu: Composition) -> tuple:
    """The chain steps of lam x Gamma^nu, once the degrees agree."""
    if lam.size != nu.degree:
        raise DegreeMismatchError(
            f"partition has size {lam.size} but weight has degree {nu.degree}"
        )
    return _gamma_steps(nu)


def weyl_tensor_gamma(lam: Partition, nu: Composition) -> SchurExpansion:
    """Weyl-filtration multiplicities of (Weyl functor lam) x (Gamma weight nu).

    The coefficient of a partition beta is the sum, over chains of nested
    partitions growing from the empty shape to lam with step sizes nu_i, of
    the coefficient of s_beta in the product of the step skew Schur functions.
    A zero step forces the chain to pause, so weights with zeros are legal.
    The multiplicities are independent of the base ring.
    """
    return _weyl_entry(lam, _weyl_steps(lam, nu))


def kostka(shape: Partition, content: Composition) -> int:
    """Number of semistandard Young tableaux of the given shape and content.

    Gamma^d = W_(d) is the unit of the internal product, so the Kostka
    numbers are the Weyl multiplicities of (d) x Gamma^content: the count is
    read from the chain table that weyl_tensor_gamma((d), content) reads.  A
    degree mismatch yields 0 by convention.
    """
    d = shape.size
    if d != content.degree:
        return 0
    row = (d,) if d else ()
    return _chain(row, _gamma_steps(content))[row].get(_positions(d)[shape.parts], 0)


def weyl_tensor_wedge(lam: Partition, nu: Composition) -> SchurExpansion:
    """Dual-Weyl-filtration multiplicities of (Weyl functor lam) x (Wedge nu).

    Keys index dual Weyl functors: the coefficient of beta here equals the
    coefficient of the conjugate of beta in weyl_tensor_gamma(lam, nu), so
    the chain's entry at lam is read through _conjugation.
    The multiplicities are independent of the base ring.
    """
    return _weyl_entry(lam, _weyl_steps(lam, nu), _conjugation(lam.size))


def jacobi_trudi(mu: Partition):
    """Signed h-indices from the determinant det(h_{mu_i - i + j}).

    Returns (sign, weight) pairs, one per permutation whose indices are all
    non-negative; zeros in the weights are kept, and the terms are ordered
    by their columns from the bottom row up (_laplace lists them).  Raises
    SizeBoundError when mu has more than JACOBI_TRUDI_BOUND parts.
    """
    n = len(mu)
    if n > JACOBI_TRUDI_BOUND:
        raise SizeBoundError(f"partition has {n} parts > bound {JACOBI_TRUDI_BOUND}")

    def combine(row, moves):
        return [(sign * s, (size, *sizes)) for terms, s, size in moves for sign, sizes in terms]

    # A row's size grows with its column.
    terms = sorted(_laplace(mu.parts, [(1, ())], combine), key=lambda term: term[1][::-1])
    return [(sign, Composition._trusted(sizes, mu.size)) for sign, sizes in terms]


def kronecker_general(lam: Partition, mu: Partition) -> SchurExpansion:
    """Kronecker decomposition via the alternating divided-power resolution.

    Folds one factor's Jacobi-Trudi determinant along the other (_fold); the
    cancellations must leave every coefficient >= 0.  As s_lam * s_mu =
    s_mu * s_lam = s_lam' * s_mu', with the lexicographically larger factor
    as mu, the fold may run as (chain, expanded) = (lam, mu), (mu, lam),
    (lam', mu') or (mu', lam'), whatever the argument order.  The first of
    these whose expanded factor has at most JACOBI_TRUDI_BOUND rows and whose
    _fold_cost is strictly the lowest runs; each estimate stops at the
    lowest one before it.  When none is within the bound, SizeBoundError.
    """
    if lam.size != mu.size:
        raise DegreeMismatchError(
            f"partitions have sizes {lam.size} and {mu.size}"
        )
    if mu < lam:
        lam, mu = mu, lam
    conj_lam, conj_mu = lam.conjugate(), mu.conjugate()
    best, budget = None, float("inf")
    for chain, expanded in dict.fromkeys(
        ((lam, mu), (mu, lam), (conj_lam, conj_mu), (conj_mu, conj_lam))
    ):
        if len(expanded) <= JACOBI_TRUDI_BOUND:
            cost = _fold_cost(chain.parts, expanded.parts, budget)
            if cost < budget:
                best, budget = (chain, expanded), cost
    if best is None:
        raise SizeBoundError(
            f"both factors and their conjugates have more parts than the bound {JACOBI_TRUDI_BOUND}"
        )
    chain, expanded = best
    entry = _fold(chain.parts, expanded.parts)
    return _nonnegative(SchurExpansion._from_index(chain.size, entry.items()), chain, expanded.text())


def kronecker_one_box(lam: Partition, a: int) -> SchurExpansion:
    """(a, 1) x lam = Ind Res lam - lam: lam (corners - 1 times) and each one-box move once."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if a + 1 != lam.size:
        raise DegreeMismatchError(f"{a} + 1 != {lam.size}")
    moves = dict.fromkeys(lam.one_box_moves(), 1)
    return SchurExpansion(lam.size, {lam: len(lam.outer_corners()) - 1, **moves})


def hook_mixed(lam: Partition, p: int, q: int) -> SchurExpansion:
    """Weyl multiplicities of (Weyl lam) x (Gamma^p tensor Wedge^q).

    The coefficient of alpha is the sum over mu of p and nu of q of
    c^{lam'}_{mu',nu} * c^alpha_{mu,nu}; commuting and anticommuting letters
    conjugate the second piece of the chain.
    """
    if p < 1 or q < 0:
        raise ValueError(f"need p >= 1 and q >= 0, got ({p}, {q})")
    if p + q != lam.size:
        raise DegreeMismatchError(f"{p} + {q} != {lam.size}")
    return _weyl_entry(lam, _steps((p,), (q,)))


def kronecker_hook(lam: Partition, p: int, q: int) -> SchurExpansion:
    """Kronecker product with the hook (p, 1^q), by the telescoping
    alternating sum of the mixed Gamma/Wedge products, taken chain by chain,
    for every lam and p; `kronecker` answers the unit and the sign first."""
    if p < 1 or q < 1:
        raise ValueError(f"need p >= 1 and q >= 1, got ({p}, {q})")
    if p + q != lam.size:
        raise DegreeMismatchError(f"{p} + {q} != {lam.size}")
    total = {}
    for i in range(q + 1):
        for mu, x in _chain(lam.parts, _steps((p + i,), (q - i,)))[lam.parts].items():
            total[mu] = total.get(mu, 0) + (-1) ** i * x
    return _nonnegative(SchurExpansion._from_index(lam.size, total.items()), lam, f"({p},1^{q})")


#: The fast paths, each with its one shape test, read by explicit methods
#: and the CLI's --method choices: one-box for (a, 1), hook for (p, 1^q)
#: with q >= 1, whose second part is 1.  `auto` reads one-box's test only.
_FAST_PATHS = {
    "one-box": lambda mu: len(mu) == 2 and mu.parts[1] == 1,
    "hook": lambda mu: len(mu) >= 2 and mu.parts[1] == 1,
}


def kronecker(lam: Partition, mu: Partition, method: str = "auto"):
    """Kronecker decomposition of lam x mu; returns (expansion, method used).

    lam x mu = mu x lam, so mu is the lexicographically larger factor.
    `auto` resolves to one-box when either factor is (a, 1), else general;
    an explicit fast path raises ValueError if neither factor has its shape.
    Each method answers the unit (n) with the other factor and the sign
    (1^n) with its conjugate, and runs a fast path on mu if it fits, else lam.
    """
    if lam.size != mu.size:
        raise DegreeMismatchError(
            f"partitions have sizes {lam.size} and {mu.size}"
        )
    if mu < lam:
        lam, mu = mu, lam
    if method not in ("auto", "general", *_FAST_PATHS):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "one-box" if any(map(_FAST_PATHS["one-box"], (mu, lam))) else "general"
    elif method != "general" and not any(map(_FAST_PATHS[method], (mu, lam))):
        raise ValueError(f"neither {lam.text()} nor {mu.text()} has the {method} shape")
    # (n) is the largest partition of n and (1^n) the smallest, so only mu
    # can be the unit and, past it, only lam the sign.
    if len(mu) <= 1:
        return SchurExpansion.single(lam), method
    if lam.parts[0] == 1:
        return SchurExpansion.single(mu.conjugate()), method
    if method == "general":
        return kronecker_general(lam, mu), method
    if not _FAST_PATHS[method](mu):
        lam, mu = mu, lam
    if method == "one-box":
        return kronecker_one_box(lam, mu.parts[0]), method
    return kronecker_hook(lam, mu.parts[0], len(mu) - 1), method
