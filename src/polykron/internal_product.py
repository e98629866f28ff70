"""Decompositions of internal tensor products of polynomial functors.

Products of divided/symmetric/exterior power functors decompose over the set
of contingency matrices with the two weights as margins.  Tensoring a Weyl
functor with a divided-power weight produces an explicit Weyl filtration whose
multiplicities are sums of products of Littlewood-Richardson coefficients,
indexed by chains of nested partitions; along (d) they are Kostka numbers.
Combining that filtration with the Jacobi-Trudi determinant gives
symmetric-group Kronecker multiplicities in characteristic zero, with fast
procedures when one factor is a hook or (a, 1), whose product reads the
other's `one_box_moves`.  The module's memos are registered in `_memo`.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, repeat
from operator import add

from ._memo import memo
from .errors import ConsistencyError, DegreeMismatchError, SizeBoundError, UndefinedProductError
from .partitions import (
    Composition,
    Partition,
    _contingency_rows,
    _margin_degree,
    _partitions_between,
)
from .schur import SchurExpansion, _conjugation, _multiply, _positions, _skew_terms

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


def _step(lam: tuple, dp: dict, size: int, family: str) -> dict:
    """One chain step: the table {alpha: expansion} grown by `size` cells.

    Each alpha passes to every beta between alpha and lam with `size` more
    cells, times the step piece: s_{beta/alpha} for a GAMMA step and its
    conjugate s_{beta'/alpha'} = omega s_{beta/alpha} for a WEDGE step, whose
    terms are those of s_{beta/alpha} read through _conjugation.  The step is
    linear in the expansions, so a signed sum of tables may be stepped once,
    and the expansions that reach one beta, grouped by piece, are multiplied
    out by one _multiply call, as schur_outer_product's are.  Every alpha
    has the same size, and an expansion is keyed by the positions of its
    partitions in partitions_of of that size: the int objects of
    _positions, so every table and memo entry shares them.
    """
    if not dp:
        return {}
    degree = sum(next(iter(dp)))
    flip = _conjugation(size) if family == WEDGE else None
    # by_piece[beta][gamma] sums c^{beta/alpha}_gamma * dp[alpha] over alpha,
    # so each (mu, gamma) product is expanded once per beta.
    by_piece = {}
    for alpha, expn in dp.items():
        for beta in _partitions_between(alpha, lam, sum(alpha) + size):
            groups = by_piece.get(beta)
            if groups is None:
                groups = by_piece[beta] = {}
            for gamma, c in _skew_terms(beta, alpha).items():
                if flip:
                    gamma = flip[gamma]
                left = groups.get(gamma)
                if left is None:
                    left = groups[gamma] = {}
                for mu, x in expn.items():
                    left[mu] = left.get(mu, 0) + c * x
    return {beta: _multiply(groups, degree, size) for beta, groups in by_piece.items()}


def _sign_class(signed) -> tuple:
    """(sign, key) for a sum of (sign, steps) terms: the key merges the terms
    with equal steps, drops those that cancel, orders the rest by their
    steps read from the last, and scales them by `sign` so that the first
    coefficient is positive.  The sum is sign * _chain_sum(lam, key), so a
    term list and its negation share one key."""
    merged = {}
    for sign, steps in signed:
        merged[steps] = merged.get(steps, 0) + sign
    key = sorted((item for item in merged.items() if item[1]), key=lambda item: item[0][::-1])
    if key and key[0][1] < 0:
        return -1, tuple([(steps, -c) for steps, c in key])
    return 1, tuple(key)


@memo
def _chain_sum(lam: tuple, key: tuple) -> dict:
    """The sum of c * (the table that _step folded over steps makes of
    {(): s_()}) over the (steps, c) terms of a _sign_class key, zeros
    dropped.

    Each term's steps add up to one size.  At |lam| the table holds lam
    alone, and its entry there is the Kronecker product of s_lam with the
    product of the steps' h_size and e_size.  Terms that end in the same step
    sum their prefix tables first, by this function on the prefixes, and take
    that step once, after their cancellations.  The terms are ordered by
    their steps read from the last, so those with one last step come
    together, and their prefixes come in the order of a key; a group whose
    first coefficient is negative asks the negated prefixes, and its table
    is subtracted.  So every prefix level is a memo entry, shared by a term
    list and its negation, and a single chain is the key ((steps, 1),).
    The returned dict is the memo's own and must not be changed.
    """
    groups = {}
    for steps, c in key:
        groups.setdefault(steps[-1:], []).append((steps[:-1], c))
    out = {}
    for last, prefixes in groups.items():
        sign = -1 if prefixes[0][1] < 0 else 1
        if sign < 0:
            prefixes = [(p, -c) for p, c in prefixes]
        if last:
            table = _step(lam, _chain_sum(lam, tuple(prefixes)), *last[0])
        else:  # the one term with no steps
            table = {(): {0: prefixes[0][1]}}
        for beta, expn in table.items():
            acc = out.setdefault(beta, {})
            for mu, x in expn.items():
                acc[mu] = acc.get(mu, 0) + sign * x
    return {
        beta: nonzero
        for beta, expn in out.items()
        if (nonzero := {mu: x for mu, x in expn.items() if x})
    }


def _chain_expansion(lam: Partition, signed, flip=None) -> SchurExpansion:
    """The sum of the (sign, steps) chains' tables at lam, read from the
    _chain_sum entry of their sign class, as a fresh expansion; with a `flip`
    from _conjugation, its omega image."""
    sign, key = _sign_class(signed)
    entry = _chain_sum(lam.parts, key).get(lam.parts, {})
    return SchurExpansion._from_index(
        lam.size, [(flip[i] if flip else i, sign * c) for i, c in entry.items()]
    )


def _gamma_steps(nu: Composition) -> tuple:
    return _steps(tuple(nu), ())


def _weyl_chain(lam: Partition, nu: Composition) -> tuple:
    """The single chain term of lam x Gamma^nu, once the degrees agree."""
    if lam.size != nu.degree:
        raise DegreeMismatchError(
            f"partition has size {lam.size} but weight has degree {nu.degree}"
        )
    return ((1, _gamma_steps(nu)),)


def weyl_tensor_gamma(lam: Partition, nu: Composition) -> SchurExpansion:
    """Weyl-filtration multiplicities of (Weyl functor lam) x (Gamma weight nu).

    The coefficient of a partition beta is the sum, over chains of nested
    partitions growing from the empty shape to lam with step sizes nu_i, of
    the coefficient of s_beta in the product of the step skew Schur functions.
    A zero step forces the chain to pause, so weights with zeros are legal.
    The multiplicities are independent of the base ring.
    """
    return _chain_expansion(lam, _weyl_chain(lam, nu))


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
    entry = _chain_sum(row, ((_gamma_steps(content), 1),))[row]
    return entry.get(_positions(d)[shape.parts], 0)


def _signed_chains(lam: Partition, signed_steps, other: str) -> SchurExpansion:
    """The Kronecker product of lam and `other` as a signed sum of chain sums;
    the cancellations must leave every coefficient >= 0.

    The sum is taken by _chain_sum, keyed by lam and the terms' sign class,
    so terms that share their last steps apply each shared step once.
    """
    result = _chain_expansion(lam, signed_steps)
    if not result.is_nonnegative():
        raise ConsistencyError(
            f"negative coefficient in kronecker product of {lam.text()} and {other}: {result!r}"
        )
    return result


def weyl_tensor_wedge(lam: Partition, nu: Composition) -> SchurExpansion:
    """Dual-Weyl-filtration multiplicities of (Weyl functor lam) x (Wedge nu).

    Keys index dual Weyl functors: the coefficient of beta here equals the
    coefficient of the conjugate of beta in weyl_tensor_gamma(lam, nu), so
    the chain's entry at lam is read through _conjugation.
    The multiplicities are independent of the base ring.
    """
    return _chain_expansion(lam, _weyl_chain(lam, nu), _conjugation(lam.size))


def jacobi_trudi(mu: Partition):
    """Signed h-indices from the determinant det(h_{mu_i - i + j}).

    Returns (sign, weight) pairs, one per permutation whose indices are all
    non-negative; zeros in the weights are kept.  Raises SizeBoundError when
    mu has more than JACOBI_TRUDI_BOUND parts.
    """
    n = len(mu)
    if n > JACOBI_TRUDI_BOUND:
        raise SizeBoundError(f"partition has {n} parts > bound {JACOBI_TRUDI_BOUND}")
    return list(_jacobi_trudi_terms(mu))


def _jacobi_trudi_terms(mu: Partition):
    """Yields the terms of jacobi_trudi(mu) in order, one at a time.

    Row i admits columns j >= i - mu_i only; the thresholds increase with i,
    so filling rows bottom-up never runs into a dead end.  The rows are
    filled in this one generator frame: level k fills row n - 1 - k, sigma
    holds each filled row's column, and inv[k] counts the inversions of
    the rows below it.  The rows below i hold the used columns, and each
    one left of j is an inversion.
    """
    n = len(mu)
    parts = mu.parts
    shift = [parts[i] - i for i in range(n)]
    start = [max(0, i - parts[i]) for i in range(n)]
    used = [False] * n
    sigma = [0] * n
    inv = [0] * (n + 1)
    k = 0
    j = start[n - 1] if n else 0
    while True:
        if k == n:
            yield (-1) ** inv[n], Composition._trusted(tuple(map(add, shift, sigma)), mu.size)
        else:
            i = n - 1 - k
            while j < n and used[j]:
                j += 1
            if j < n:
                used[j] = True
                sigma[i] = j
                inv[k + 1] = inv[k] + sum(used[:j])
                k += 1
                j = start[i - 1] if i else 0
                continue
        # Level k is exhausted, or k == n and its term was yielded: free the
        # column of the row filled at level k - 1 and try the next one there.
        k -= 1
        if k < 0:
            return
        j = sigma[n - 1 - k]
        used[j] = False
        j += 1


def _chain_terms(determinant, lam: Partition, budget=float("inf")):
    """The signed steps (sign, _gamma_steps(nu)) of the determinant's terms
    and a shape-only estimate of chaining them along lam: the partitions
    inside lam at the size of every distinct step prefix, one prefix per
    _chain_sum level.  It reads no LR, skew or chain memo.  The terms are
    read in order until the estimate reaches the budget, so a determinant
    that cannot come in under it is never built whole."""
    terms, prefixes, cost = [], set(), 0
    for sign, nu in determinant:
        steps = _gamma_steps(nu)
        terms.append((sign, steps))
        size = 0
        for k, (x, _) in enumerate(steps, 1):
            size += x
            if steps[:k] not in prefixes:
                prefixes.add(steps[:k])
                cost += len(_partitions_between((), lam.parts, size))
        if cost >= budget:
            break
    return terms, cost


def kronecker_general(lam: Partition, mu: Partition) -> SchurExpansion:
    """Kronecker decomposition via the alternating divided-power resolution.

    Expands one factor through the Jacobi-Trudi determinant and accumulates
    the signed Weyl filtrations of the other; the cancellations must leave
    every coefficient >= 0.  The product is symmetric, so either factor with
    at most the determinant's bound of rows may be expanded: the larger one
    in lexicographic order, whatever the argument order, unless the other's
    chain estimate is lower or the larger is past the bound; the other's
    terms are built only while their estimate stays below.  Past the bound
    on both sides, the conjugate pair runs, as s_lam' * s_mu' = s_lam * s_mu.
    """
    if lam.size != mu.size:
        raise DegreeMismatchError(
            f"partitions have sizes {lam.size} and {mu.size}"
        )
    if min(len(lam), len(mu)) > JACOBI_TRUDI_BOUND:
        lam, mu = lam.conjugate(), mu.conjugate()
    if mu < lam:
        lam, mu = mu, lam
    if len(mu) > JACOBI_TRUDI_BOUND >= len(lam):
        lam, mu = mu, lam
    signed, cost = _chain_terms(jacobi_trudi(mu), lam)
    if lam != mu and len(lam) <= JACOBI_TRUDI_BOUND:
        other, other_cost = _chain_terms(_jacobi_trudi_terms(lam), mu, cost)
        if other_cost < cost:
            lam, mu, signed = mu, lam, other
    return _signed_chains(lam, signed, mu.text())


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
    return _chain_expansion(lam, ((1, _steps((p,), (q,))),))


def kronecker_hook(lam: Partition, p: int, q: int) -> SchurExpansion:
    """Kronecker product with the hook (p, 1^q), by the telescoping
    alternating sum of the mixed Gamma/Wedge products."""
    if p < 1 or q < 1:
        raise ValueError(f"need p >= 1 and q >= 1, got ({p}, {q})")
    if p + q != lam.size:
        raise DegreeMismatchError(f"{p} + {q} != {lam.size}")
    signed = [((-1) ** i, _steps((p + i,), (q - i,))) for i in range(q + 1)]
    return _signed_chains(lam, signed, f"({p},1^{q})")


#: The fast paths in the order `auto` tries them, each with its one shape
#: test: one-box for (a, 1), hook for (p, 1^q) with q >= 1, whose second
#: part is 1.  A two-part factor is left to kronecker_general.
_FAST_PATHS = {
    "one-box": lambda mu: len(mu) == 2 and mu.parts[1] == 1,
    "hook": lambda mu: len(mu) >= 2 and mu.parts[1] == 1,
}


def kronecker(lam: Partition, mu: Partition, method: str = "auto"):
    """Kronecker decomposition of lam x mu; returns (expansion, method used).

    A fast path applies when one partition has two rows or is a hook, and
    lam x mu = mu x lam.  So, with the lexicographically larger factor as
    mu, `auto` takes the first fast path that either factor fits, else
    general, and a fast path runs on mu if mu fits it, else on lam.
    """
    if lam.size != mu.size:
        raise DegreeMismatchError(
            f"partitions have sizes {lam.size} and {mu.size}"
        )
    if mu < lam:
        lam, mu = mu, lam
    if method == "auto":
        method = next((m for m, fits in _FAST_PATHS.items() if fits(mu) or fits(lam)), "general")
    if method not in ("general", *_FAST_PATHS):
        raise ValueError(f"unknown method {method!r}")
    if method != "general" and not _FAST_PATHS[method](mu):
        if not _FAST_PATHS[method](lam):
            raise ValueError(f"neither {lam.text()} nor {mu.text()} has the {method} shape")
        lam, mu = mu, lam
    if method == "one-box":
        return kronecker_one_box(lam, mu.parts[0]), method
    if method == "hook":
        return kronecker_hook(lam, mu.parts[0], len(mu) - 1), method
    return kronecker_general(lam, mu), method
