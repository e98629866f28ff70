"""Decompositions of internal tensor products of polynomial functors.

Products of divided/symmetric/exterior power functors decompose over the set
of contingency matrices with the two weights as margins.  Tensoring a Weyl
functor with a divided-power weight produces an explicit Weyl filtration whose
multiplicities are sums of products of Littlewood-Richardson coefficients,
indexed by chains of nested partitions.  Combining that filtration with the
Jacobi-Trudi determinant gives symmetric-group Kronecker multiplicities in
characteristic zero, with fast procedures when one factor is a two-row shape
or a hook.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import ConsistencyError, DegreeMismatchError, SizeBoundError, UndefinedProductError
from .partitions import Composition, Partition, _conjugate_parts, iter_contingency
from .schur import SchurExpansion, _add_product, _skew_terms, conjugate_expansion

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


def _contingency_weights(mu: Composition, lam: Composition):
    return tuple(m.flatten() for m in iter_contingency(mu, lam))


def gamma_tensor_gamma(mu: Composition, lam: Composition) -> ExpDecomposition:
    """Product of two divided-power weights: one Gamma summand per matrix
    with row sums mu and column sums lam, flattened row-major."""
    return ExpDecomposition(GAMMA, _contingency_weights(mu, lam))


# Output family for each unordered pair of input families.  The Sym/Wedge
# pair is the one case that depends on the behaviour of 2 in the base ring.
_FAMILY_TABLE = {
    frozenset([GAMMA]): GAMMA,
    frozenset([GAMMA, WEDGE]): WEDGE,
    frozenset([GAMMA, SYM]): SYM,
    frozenset([WEDGE]): SYM,
    frozenset([SYM]): SYM,
}


def exponential_tensor(
    left: ExpFunctor,
    right: ExpFunctor,
    mode: CharTwoMode = CharTwoMode.TWO_INVERTIBLE,
) -> ExpDecomposition:
    """Internal product of two exponential functors.

    The summand weights are always the flattened contingency matrices of the
    two input weights; only the output family depends on the family pair.
    """
    pair = frozenset([left.family, right.family])
    if pair == frozenset([SYM, WEDGE]):
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
    return ExpDecomposition(family, _contingency_weights(left.weight, right.weight))


@lru_cache(maxsize=None)
def _partitions_between(lower: tuple, upper: tuple, size: int) -> tuple:
    """Partitions beta with lower <= beta <= upper cell-wise and |beta| = size."""
    n = len(upper)
    below = [0] * (n + 1)  # below[r]: cells of upper in rows >= r
    for r in range(n - 1, -1, -1):
        below[r] = below[r + 1] + upper[r]
    out = []

    def rec(row, prev, remaining, acc):
        if remaining == 0 and row >= len(lower):
            out.append(tuple(acc))
            return
        if row == n:
            return
        lo = max(lower[row] if row < len(lower) else 1, remaining - below[row + 1])
        for x in range(min(upper[row], prev, remaining), lo - 1, -1):
            acc.append(x)
            rec(row + 1, x, remaining - x, acc)
            acc.pop()

    rec(0, size, size, [])
    return tuple(out)


def _steps(*pairs) -> tuple:
    """Canonical chain steps: the nonzero (size, family) pairs, smallest first.

    The factors h_size (GAMMA) and e_size (WEDGE) commute and a zero step
    only pauses the chain, so every order gives the same chain sum; this one
    is the memo key.  Smallest first is also the cheapest order: the last
    step does most of the multiplying, and it then multiplies expansions of
    the lowest degree.
    """
    return tuple(sorted((pair for pair in pairs if pair[0])))


def _step(lam: tuple, dp: dict, size: int, family: str) -> dict:
    """One chain step: the table {alpha: expansion} grown by `size` cells.

    Each alpha passes to every beta between alpha and lam with `size` more
    cells, times the step piece: s_{beta/alpha} for a GAMMA step and its
    conjugate s_{beta'/alpha'} for a WEDGE step.  The step is linear in the
    expansions, so a signed sum of tables may be stepped once.
    """
    # by_piece[beta][gamma] sums c^{beta/alpha}_gamma * dp[alpha] over alpha,
    # so each (mu, gamma) product is expanded once per beta.
    by_piece = {}
    for alpha, expn in dp.items():
        for beta in _partitions_between(alpha, lam, sum(alpha) + size):
            if family == WEDGE:
                piece = _skew_terms(_conjugate_parts(beta), _conjugate_parts(alpha))
            else:
                piece = _skew_terms(beta, alpha)
            groups = by_piece.get(beta)
            if groups is None:
                groups = by_piece[beta] = {}
            for gamma, c in piece.items():
                acc = groups.get(gamma)
                if acc is None:
                    acc = groups[gamma] = {}
                for mu, x in expn.items():
                    acc[mu] = acc.get(mu, 0) + c * x
    out = {}
    for beta, groups in by_piece.items():
        target = out[beta] = {}
        for gamma, acc in groups.items():
            _add_product(target, acc, gamma)
    return out


@lru_cache(maxsize=None)
def _chain(lam: tuple, steps: tuple) -> dict:
    """The chain sum of lam over `steps`, keyed by parts tuples.

    It sums, over chains of nested partitions growing from the empty shape
    to lam by the step sizes, the product of the step pieces (see _step),
    folding _step over `steps` from the table {(): s_()}.  That is the
    Kronecker product of s_lam with the product of the h_size and e_size,
    so it does not depend on the order of the steps; callers pass the
    canonical order of _steps.  The returned dict is the memo's own and must
    not be changed.
    """
    dp = {(): {(): 1}}
    for size, family in steps:
        dp = _step(lam, dp, size, family)
    return dp[lam]


def _by_last_step(terms) -> dict:
    """{steps[-1:]: [(sign, steps), ...]}: the terms grouped by their last step."""
    groups = {}
    for sign, steps in terms:
        groups.setdefault(steps[-1:], []).append((sign, steps))
    return groups


def _signed_table(lam: tuple, terms) -> dict:
    """The sum of sign * (the table after folding _step over steps) over
    (sign, steps) terms whose steps add up to one size, zeros dropped.

    Terms that end in the same step sum their prefix tables first, by the
    same grouping one step further back, and take that step once.
    """
    out = {}
    for last, group in _by_last_step(terms).items():
        if last:
            prefixes = [(sign, steps[:-1]) for sign, steps in group]
            table = _step(lam, _signed_table(lam, prefixes), *last[0])
        else:
            table = {(): {(): sum(sign for sign, _ in group)}}
        for beta, expn in table.items():
            acc = out.setdefault(beta, {})
            for mu, x in expn.items():
                acc[mu] = acc.get(mu, 0) + x
    return {
        beta: nonzero
        for beta, expn in out.items()
        if (nonzero := {mu: x for mu, x in expn.items() if x})
    }


@lru_cache(maxsize=None)
def _chain_sum(lam: tuple, terms: tuple) -> dict:
    """The sum of sign * _chain(lam, steps) over the (sign, steps) terms.

    The steps of every term add up to |lam|.  Terms are grouped by their
    last step, which does most of the multiplying: a group of two or more
    is summed by _signed_table, so each shared step is applied once to the
    signed sum of the tables before it, after their cancellations; a lone
    term is answered by the _chain memo.  The returned dict is the memo's
    own and must not be changed.
    """
    acc = {}
    for group in _by_last_step(terms).values():
        if len(group) == 1:
            sign, steps = group[0]
            part = _chain(lam, steps)
        else:
            sign, part = 1, _signed_table(lam, group).get(lam, {})
        for beta, c in part.items():
            acc[beta] = acc.get(beta, 0) + sign * c
    return {beta: c for beta, c in acc.items() if c}


def _gamma_steps(nu: Composition) -> tuple:
    return _steps(*((x, GAMMA) for x in nu))


def weyl_tensor_gamma(lam: Partition, nu: Composition) -> SchurExpansion:
    """Weyl-filtration multiplicities of (Weyl functor lam) x (Gamma weight nu).

    The coefficient of a partition beta is the sum, over chains of nested
    partitions growing from the empty shape to lam with step sizes nu_i, of
    the coefficient of s_beta in the product of the step skew Schur functions.
    A zero step forces the chain to pause, so weights with zeros are legal.
    The multiplicities are independent of the base ring.
    """
    if lam.size != nu.degree:
        raise DegreeMismatchError(
            f"partition has size {lam.size} but weight has degree {nu.degree}"
        )
    return SchurExpansion._from_parts(lam.size, _chain(lam.parts, _gamma_steps(nu)))


def _signed_chains(lam: Partition, signed_steps, other: str) -> SchurExpansion:
    """The Kronecker product of lam and `other` as a signed sum of chain sums;
    the cancellations must leave every coefficient >= 0.

    The sum is taken by _chain_sum, keyed by lam and the sorted terms, so
    terms that share their last steps apply each shared step once.
    """
    terms = tuple(sorted(signed_steps))
    result = SchurExpansion._from_parts(lam.size, _chain_sum(lam.parts, terms))
    if not result.is_nonnegative():
        raise ConsistencyError(
            f"negative coefficient in kronecker product of {lam.text()} and {other}: {result!r}"
        )
    return result


def weyl_tensor_wedge(lam: Partition, nu: Composition) -> SchurExpansion:
    """Dual-Weyl-filtration multiplicities of (Weyl functor lam) x (Wedge nu).

    Keys index dual Weyl functors: the coefficient of beta here equals the
    coefficient of the conjugate of beta in weyl_tensor_gamma(lam, nu).
    The multiplicities are independent of the base ring.
    """
    return conjugate_expansion(weyl_tensor_gamma(lam, nu))


def jacobi_trudi(mu: Partition, *, bound: int = JACOBI_TRUDI_BOUND):
    """Signed h-indices from the determinant det(h_{mu_i - i + j}).

    Returns (sign, weight) pairs, one per permutation whose indices are all
    non-negative; zeros in the weights are kept.
    """
    n = len(mu)
    if n > bound:
        raise SizeBoundError(f"partition has {n} parts > bound {bound}")
    terms = []
    used = [False] * n
    sigma = [0] * n

    # Row i admits columns j >= i - mu_i only; the thresholds increase with i,
    # so filling rows bottom-up never runs into a dead end.
    def rec(k):
        if k == n:
            inv = sum(
                1 for a in range(n) for b in range(a + 1, n) if sigma[a] > sigma[b]
            )
            idxs = [mu.parts[i] - (i + 1) + (sigma[i] + 1) for i in range(n)]
            terms.append(((-1) ** inv, Composition(idxs)))
            return
        i = n - 1 - k
        for j in range(max(0, i - mu.parts[i]), n):
            if used[j]:
                continue
            used[j] = True
            sigma[i] = j
            rec(k + 1)
            used[j] = False

    rec(0)
    return terms


def kronecker_general(lam: Partition, mu: Partition) -> SchurExpansion:
    """Kronecker decomposition via the alternating divided-power resolution.

    Expands mu through the Jacobi-Trudi determinant and accumulates the signed
    Weyl filtrations; the cancellations must leave every coefficient >= 0.
    The product is symmetric, so when mu has more rows than the determinant's
    bound and lam does not, lam is expanded instead.
    """
    if lam.size != mu.size:
        raise DegreeMismatchError(
            f"partitions have sizes {lam.size} and {mu.size}"
        )
    if len(mu) > JACOBI_TRUDI_BOUND >= len(lam):
        lam, mu = mu, lam
    signed = [(sign, _gamma_steps(nu)) for sign, nu in jacobi_trudi(mu)]
    return _signed_chains(lam, signed, mu.text())


def kronecker_two_row(lam: Partition, a: int, b: int) -> SchurExpansion:
    """Kronecker product with the two-row partition (a, b).

    The coefficient of alpha is the difference of the two double
    Littlewood-Richardson sums at splittings (a, b) and (a+1, b-1); the sum
    at (a, b) is the two-step chain sum over s_mu * s_{lam/mu}, mu of a.
    """
    if not (a >= b >= 1):
        raise ValueError(f"need a >= b >= 1, got ({a}, {b})")
    if a + b != lam.size:
        raise DegreeMismatchError(f"{a} + {b} != {lam.size}")
    signed = [
        (1, _steps((a, GAMMA), (b, GAMMA))),
        (-1, _steps((a + 1, GAMMA), (b - 1, GAMMA))),
    ]
    return _signed_chains(lam, signed, f"({a},{b})")


def kronecker_one_box(lam: Partition, a: int) -> SchurExpansion:
    """Kronecker product with (a, 1): corner count and one-box moves of lam."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if a + 1 != lam.size:
        raise DegreeMismatchError(f"{a} + 1 != {lam.size}")
    corners = len(lam.outer_corners())
    acc = SchurExpansion(lam.size, {lam: corners - 1})
    for alpha in lam.one_box_moves():
        acc = acc + SchurExpansion.single(alpha)
    return acc


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
    steps = _steps((p, GAMMA), (q, WEDGE))
    return SchurExpansion._from_parts(lam.size, _chain(lam.parts, steps))


def kronecker_hook(lam: Partition, p: int, q: int) -> SchurExpansion:
    """Kronecker product with the hook (p, 1^q), by the telescoping
    alternating sum of the mixed Gamma/Wedge products."""
    if p < 1 or q < 1:
        raise ValueError(f"need p >= 1 and q >= 1, got ({p}, {q})")
    if p + q != lam.size:
        raise DegreeMismatchError(f"{p} + {q} != {lam.size}")
    signed = [((-1) ** i, _steps((p + i, GAMMA), (q - i, WEDGE))) for i in range(q + 1)]
    return _signed_chains(lam, signed, f"({p},1^{q})")


def _hook_split(mu: Partition):
    """(p, q) such that mu = (p, 1^q) with q >= 1, or None."""
    if len(mu) >= 2 and all(x == 1 for x in mu.parts[1:]):
        return mu.parts[0], len(mu) - 1
    return None


def kronecker(lam: Partition, mu: Partition, method: str = "auto"):
    """Kronecker decomposition of lam x mu; returns (expansion, method used).

    `auto` picks the cheapest applicable procedure from the shape of mu:
    one-box for (a, 1), two-row for two parts, hook for (p, 1^q), otherwise
    the general alternating algorithm.
    """
    if lam.size != mu.size:
        raise DegreeMismatchError(
            f"partitions have sizes {lam.size} and {mu.size}"
        )
    if method == "auto":
        if len(mu) == 2 and mu.parts[1] == 1:
            method = "one-box"
        elif len(mu) == 2:
            method = "two-row"
        elif _hook_split(mu):
            method = "hook"
        else:
            method = "general"
    if method == "general":
        return kronecker_general(lam, mu), method
    if method == "two-row":
        if len(mu) != 2:
            raise ValueError(f"mu = {mu.text()} is not a two-row partition")
        return kronecker_two_row(lam, mu.parts[0], mu.parts[1]), method
    if method == "one-box":
        if len(mu) != 2 or mu.parts[1] != 1:
            raise ValueError(f"mu = {mu.text()} is not of the form (a, 1)")
        return kronecker_one_box(lam, mu.parts[0]), method
    if method == "hook":
        split = _hook_split(mu)
        if split is None:
            raise ValueError(f"mu = {mu.text()} is not a hook with a nonempty leg")
        return kronecker_hook(lam, split[0], split[1]), method
    raise ValueError(f"unknown method {method!r}")
