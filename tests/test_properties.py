"""Property tests of the LR kernel, the Weyl chain and the Kronecker product
against the character oracle and their symmetries, of the LR kernel against
the depth-first tableau walk it replaced, of the conjugation-canonical
product memo against one walk per argument pair, of Kostka numbers against the
cell-by-cell count, of the skew terms against the cell-by-cell
LR walk they replaced, beyond the oracle's bound, of the grouped chain sums
against the plain fold of each chain, of every Jacobi-Trudi resolution of a
Kronecker product against the one kronecker_general picks, of the contingency
enumerator and its row-vector pairs against independent counts, on random
inputs beyond the sweep bounds, of the contingency enumerator, its row-vector
pairs, the partitions between two shapes and the Jacobi-Trudi terms against
the recursive walks they replaced, order included, of the product fold and
its Pieri steps against the recursive lattice-word walk, of the walker on
the tight bounds of one-box moves and horizontal strips, of the one-box
moves and the compositions against brute force, of the contingency
enumerator on cold, warm, stale and concurrently filled row tables and at
3,000 rows, of each method's one result for both factor orders,
and of the kernel memos, the position ints they share and what a call leaves
in them."""

import gc
import sys
import threading
from collections import Counter
from functools import lru_cache, partial
from importlib import import_module
from itertools import accumulate, chain, islice, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polykron import (
    GAMMA,
    SYM,
    WEDGE,
    CharTwoMode,
    Composition,
    ExpFunctor,
    Partition,
    SchurExpansion,
    characters,
    dimension,
    exponential_tensor,
    gamma_tensor_gamma,
    hook_mixed,
    internal_h_oracle,
    internal_product,
    iter_contingency,
    jacobi_trudi,
    kostka,
    kronecker,
    kronecker_general,
    kronecker_hook,
    kronecker_oracle_expansion,
    lr_coeff,
    lr_oracle,
    partitions,
    schur,
    schur_outer_product,
    sweeps,
    weyl_tensor_gamma,
    weyl_tensor_wedge,
)
from polykron._memo import MEMOS, clear_all
from polykron.internal_product import (
    _chain, _chain_entry, _compressed, _contingency_weights, _fold, _step,
)
from polykron.partitions import enumerate_compositions, partitions_of
from polykron.schur import _pieri, _product_fold, _product_terms, _skew_terms

# Reproducible draws, and no example database written next to the tests.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _sized(d):
    return st.sampled_from(partitions_of(d))


@st.composite
def factor_pairs(draw, max_total=10, min_total=0):
    total = draw(st.integers(min_total, max_total))
    a = draw(st.integers(0, total))
    return draw(_sized(a)), draw(_sized(total - a))


@st.composite
def signed_expansion_pairs(draw, max_total=8):
    """Two expansions of up to four terms each, coefficients in -3..3 but
    never 0, whose degrees add up to at most max_total."""
    total = draw(st.integers(0, max_total))
    a = draw(st.integers(0, total))

    def expansion(d):
        shapes = draw(st.lists(_sized(d), min_size=1, max_size=4, unique=True))
        coefficients = st.integers(-3, 3).filter(bool)
        return SchurExpansion(d, {p: draw(coefficients) for p in shapes})

    return expansion(a), expansion(total - a)


@st.composite
def lr_triples(draw, max_total=10):
    mu, nu = draw(factor_pairs(max_total))
    outers = [
        p for p in partitions_of(mu.size + nu.size) if p.contains(mu) and p.contains(nu)
    ]
    return draw(st.sampled_from(outers)), mu, nu


@st.composite
def skew_shapes(draw, max_outer=12, max_skew=10, min_outer=0):
    outer = draw(st.integers(min_outer, max_outer).flatmap(_sized))
    inners = [
        p
        for k in range(max(0, outer.size - max_skew), outer.size + 1)
        for p in partitions_of(k)
        if outer.contains(p)
    ]
    return outer, draw(st.sampled_from(inners))


@st.composite
def weyl_cases(draw, max_d=9):
    d = draw(st.integers(0, max_d))
    lam = draw(_sized(d))
    cuts = sorted(draw(st.lists(st.integers(0, d), max_size=4)))
    nu = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    padded = nu + [0] * draw(st.integers(0, 2))
    return lam, nu, draw(st.permutations(padded))


@st.composite
def hook_cases(draw, max_d=10):
    """lam of size d and (p, q) with p, q >= 1 and p + q = d."""
    d = draw(st.integers(2, max_d))
    q = draw(st.integers(1, d - 1))
    return draw(_sized(d)), d - q, q


@st.composite
def _compositions(draw, d, max_parts=5, min_parts=1):
    # n - 1 sorted cut points give every composition of d with n entries;
    # only d = 0 has a composition with no entries.
    n = draw(st.integers(min_parts if d == 0 else max(min_parts, 1), max_parts))
    if n == 0:
        return Composition(())
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return Composition(b - a for a, b in zip([0] + cuts, cuts + [d]))


@st.composite
def kostka_cases(draw, max_d=11):
    """A shape and an unsorted content with zeros, both of degree d; in three
    draws of four the shape dominates the content's sorted entries, so the
    count is not zero."""
    d = draw(st.integers(0, max_d))
    content = draw(_compositions(d, max_parts=8))
    shapes = partitions_of(d)
    if draw(st.integers(0, 3)):
        shapes = [p for p in shapes if _dominates(p.parts, content.sorted_parts())]
    return draw(st.sampled_from(shapes)), content


def _dominates(lam, mu):
    """Every partial sum of lam is at least the one of mu."""
    return all(a >= b for a, b in zip(accumulate(lam + (0,) * len(mu)), accumulate(mu)))


@st.composite
def same_degree_pairs(draw, min_d=7, max_d=12):
    d = draw(st.integers(min_d, max_d))
    return draw(_sized(d)), draw(_sized(d))


@st.composite
def same_degree_triples(draw, min_d=7, max_d=12):
    d = draw(st.integers(min_d, max_d))
    return draw(_sized(d)), draw(_sized(d)), draw(_sized(d))


@st.composite
def margin_pairs(draw, max_d=10, min_parts=1):
    d = draw(st.integers(0, max_d))
    return draw(_compositions(d, min_parts=min_parts)), draw(_compositions(d, min_parts=min_parts))


def _margin_count(mu, lam):
    """Matrices with the given margins, by a DP over columns whose state is
    the row sums still open; no matrix is built."""
    states = {mu.entries: 1}
    for c in lam:
        nxt = Counter()
        for rows, ways in states.items():
            # Spread c over the rows one row at a time: (rows done, c left).
            spread = {((), c): ways}
            for r in rows:
                step = Counter()
                for (done, left), w in spread.items():
                    for x in range(min(r, left) + 1):
                        step[(done + (r - x,), left - x)] += w
                spread = step
            for (done, left), w in spread.items():
                if left == 0:
                    nxt[done] += w
        states = nxt
    return states.get((0,) * len(mu), 0)


def _brute_force_matrices(mu, lam):
    """Every row from a bounded product, every matrix from a product of rows,
    kept when the margins match, sorted by flattened entries, descending."""
    rows = [
        [v for v in product(*(range(min(r, c) + 1) for c in lam)) if sum(v) == r]
        for r in mu
    ]
    found = [
        m for m in product(*rows)
        if all(sum(row[j] for row in m) == c for j, c in enumerate(lam))
    ]
    return sorted(found, key=lambda m: [x for row in m for x in row], reverse=True)


def _grow(base, content):
    """LR tableaux of shape lam/base and content `content`, counted by lam:
    the reference for _product_fold, which replaced it in polykron.schur.

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


def _tally_skew(outer, inner):
    """LR fillings of outer/inner with free content, counted by content: the
    reference for _skew_terms, which now reads them from the product kernel
    in polykron.schur.

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


def _chain_in_order(lam, steps):
    """The chain table's entry at lam, folding _step over the steps one at a
    time, in the given order, zero steps included: the reference for the
    memoised _chain, which folds the canonical steps of _steps."""
    dp = {(): {0: 1}}
    for size, family in steps:
        out = {}
        _step(out, lam, dp, size, family, 1)
        dp = _compressed(out)
    return dp[lam]


def _chained_terms(chain, expanded):
    """The Kronecker product as the chains of expanded's Jacobi-Trudi terms
    along chain, one by one, as {position: coefficient}: the reference for
    _fold, which sums the terms that reach one column mask before stepping
    them."""
    total = Counter()
    for sign, nu in jacobi_trudi(expanded):
        for i, c in _chain_entry(chain.parts, nu.entries).items():
            total[i] += sign * c
    return {i: c for i, c in total.items() if c}


def _fill_cells(shape, content):
    """Semistandard fillings of the shape with the given content, one cell at
    a time: the reference for kostka, which reads them from the product of
    one-row Schur functions in polykron.schur.  Cells are scanned row by row,
    right to left; a cell is at most its right neighbour and more than the
    cell above it.
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


def _assert_kernel_matches_the_reference(mu, nu):
    """_product_fold(mu, nu) equals the reference walk, its positions
    ascending and its coefficients nonzero, with the Pieri memo cleared
    first, and again with the memo filled by every product of a factor of
    mu's size with nu, whose steps reach many of the same shapes from other
    products."""
    shapes = partitions_of(sum(mu) + sum(nu))
    want = _grow(mu, nu)
    _pieri.cache_clear()
    cold = _product_fold(mu, nu)
    assert list(cold) == sorted(cold) and all(cold.values())
    assert {shapes[i].parts: c for i, c in cold.items()} == want
    _pieri.cache_clear()
    for other in partitions_of(sum(mu)):
        _product_fold(other.parts, nu)
    assert _product_fold(mu, nu) == cold


@lru_cache(maxsize=None)
def _row_order_product_terms(mu, nu):
    """(i, c^lam_{mu,nu}) pairs, i ascending, from one walk per unordered
    pair, the factor with more rows grown by the content of the other: the
    reference for _product_terms, which walks one orientation per conjugate
    class of pairs in polykron.schur."""
    if (len(mu), mu) < (len(nu), nu):
        return _row_order_product_terms(nu, mu)
    return tuple(schur._product_fold(mu, nu).items())


def _pairs(entry):
    """A _product_terms entry, (positions, coefficients, flip), as the
    (i, c) pairs of _row_order_product_terms."""
    positions, coefficients, flip = entry
    if flip:
        positions = [flip[i] for i in positions]
    return tuple(sorted(zip(positions, coefficients)))


def _row_order_flat_terms(mu, nu):
    """_row_order_product_terms in the layout of a walked _product_terms
    entry, with the memo of _row_order_product_terms."""
    return (*zip(*_row_order_product_terms(mu, nu)), None)


_row_order_flat_terms.cache_clear = _row_order_product_terms.cache_clear


def _orientations(mu, nu):
    """The four argument pairs with one product up to conjugation."""
    cmu, cnu = mu.conjugate().parts, nu.conjugate().parts
    return [(mu.parts, nu.parts), (nu.parts, mu.parts), (cmu, cnu), (cnu, cmu)]


@PROPERTY
@given(factor_pairs(max_total=12))
@example((Partition([3, 1]), Partition([2, 1, 1])))
@example((Partition([2, 1]), Partition([3, 3])))
def test_product_terms_match_the_row_order_walk_cold_and_warm(pair):
    # Each orientation is asked first with an empty product memo, so that it
    # walks or reads a redirect from scratch, then again with the memo filled
    # by the other three.
    cases = _orientations(*pair)
    for mu, nu in cases:
        _product_terms.cache_clear()
        assert _pairs(_product_terms(mu, nu)) == _row_order_product_terms(mu, nu)
    for mu, nu in cases:
        assert _pairs(_product_terms(mu, nu)) == _row_order_product_terms(mu, nu)
    assert _product_terms(*cases[0]) is _product_terms(*cases[1])


def _walks(monkeypatch, product_terms, run):
    """The (base, content) pairs that the product fold grows while run()
    calls products through `product_terms`, from cold memos."""
    for fn in (product_terms, _product_terms, _skew_terms, _chain, _fold):
        fn.cache_clear()
    monkeypatch.setattr(schur, "_product_terms", product_terms)
    walked = []

    def counted(base, content):
        walked.append((base, content))
        return _product_fold(base, content)

    monkeypatch.setattr(schur, "_product_fold", counted)
    run()
    return walked


def test_a_cold_square_walks_each_conjugate_class_of_products_once(monkeypatch):
    # A memo that shares only the two argument orders walks 54 products for
    # this square; one walk per conjugate class of pairs takes 31.
    lam = Partition([3, 3, 2])
    square = partial(kronecker_general, lam, lam)
    assert len(_walks(monkeypatch, _row_order_flat_terms, square)) == 54
    assert len(_walks(monkeypatch, _product_terms, square)) == 31


def test_the_orientation_with_the_fewest_letters_then_rows_is_walked(monkeypatch):
    # (2,1,1) and (2,1,1,1) both take a content of two letters, (4,1) or
    # (3,1); the first has fewer rows to grow.
    pair = (Partition([4, 1]), Partition([2, 1, 1]))
    walked = _walks(
        monkeypatch, _product_terms, lambda: [_product_terms(*o) for o in _orientations(*pair)]
    )
    assert walked == [((2, 1, 1), (4, 1))]


@PROPERTY
@given(factor_pairs())
def test_product_terms_match_the_oracle(pair):
    mu, nu = pair
    want = []
    for i, lam in enumerate(partitions_of(mu.size + nu.size)):
        c = lr_oracle(lam, mu, nu)
        if c:
            want.append((i, c))
    assert _pairs(_product_terms(mu.parts, nu.parts)) == tuple(want)


@PROPERTY
@given(factor_pairs(max_total=12))
def test_lr_kernel_matches_the_reference_walk(pair):
    mu, nu = pair
    _assert_kernel_matches_the_reference(mu.parts, nu.parts)


def test_lr_kernel_matches_the_reference_walk_at_degree_18():
    for mu, nu in (
        ((5, 4, 2, 1), (3, 2, 1)),
        ((4, 3, 2), (4, 3, 2)),
        ((3, 2, 2, 1, 1), (4, 3, 1, 1)),
    ):
        _assert_kernel_matches_the_reference(mu, nu)


def _recursive_strips(shape, prev, size, first, visit):
    """Call visit(cur) once per horizontal strip of `size` cells that the
    next letter can add to shape with the reverse reading word still a
    lattice word, `first` saying whether this is the letter 1, whose strips
    have no lattice bound, from a recursive `row` closure.  prev is the
    strip of the letter before; while visit runs, shape holds the grown
    shape and cur the strip."""
    old = shape[:]
    cur = [0] * len(shape)
    top = old.index(0)
    room = [0] * (top + 2)
    for r in range(top - 1, -1, -1):
        room[r] = room[r + 1] + prev[r]
    gap = [size] + [old[r - 1] - old[r] for r in range(1, top + 1)]

    def row(r, left, slack):
        if left == 0:
            visit(cur)
            return
        if left > slack + room[r]:
            return
        cap = left if left < slack else slack
        if gap[r] < cap:
            cap = gap[r]
        low = left - old[r]
        for x in range(cap, (low if low > 0 else 0) - 1, -1):
            shape[r] = old[r] + x
            cur[r] = x
            row(r + 1, left - x, slack - x + prev[r])
        shape[r] = old[r]
        cur[r] = 0

    row(0, size, size if first else 0)


def _recursive_last_strips(shape, prev, size):
    """The positions in partitions_of(|shape| + size) of the shapes that the
    last letter's strips reach from the state, in _recursive_strips' order;
    an all-zero prev is the letter 1's."""
    grown = [*shape, 0]
    pos = {p.parts: i for i, p in enumerate(partitions_of(sum(shape) + size))}
    out = []

    def reached(cur):
        out.append(pos[tuple(grown) if grown[-1] else tuple(grown[:-1])])

    _recursive_strips(grown, [*prev, 0], size, not any(prev), reached)
    return tuple(out)


def _recursive_lr_tally(base, content, last_strips):
    """c^lam_{base,content} for every lam, as a list aligned with
    partitions_of(|lam|), from a lattice-word walk with a closure per letter
    and a lambda per strip: the reference for _product_fold, which folds
    content's Jacobi-Trudi determinant by Pieri steps in polykron.schur.
    The last letter's states go to last_strips(shape, prev, size)."""
    shapes = partitions_of(sum(base) + sum(content))
    tally = [0] * len(shapes)
    if not content:
        tally[shapes.index(Partition(base))] = 1
        return tally
    shape = [*base] + [0] * len(content)
    last = len(content) - 1

    def strip(k, prev):
        if k == last:
            top = shape.index(0)
            for i in last_strips(tuple(shape[:top]), tuple(prev[:top]), content[k]):
                tally[i] += 1
        else:
            _recursive_strips(shape, prev, content[k], k == 0, lambda cur: strip(k + 1, cur))

    strip(0, [0] * len(shape))
    return tally


def _assert_fold_matches_the_recursive_walk(mu, nu):
    want = _recursive_lr_tally(mu, nu, _recursive_last_strips)
    assert _product_fold(mu, nu) == {i: c for i, c in enumerate(want) if c}, (mu, nu)


def test_product_fold_matches_the_recursive_walk_up_to_degree_ten():
    # Every factor pair with |mu| + |nu| <= 10, from a cold Pieri memo.
    _pieri.cache_clear()
    for total in range(11):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    _assert_fold_matches_the_recursive_walk(mu.parts, nu.parts)


@PROPERTY
@given(factor_pairs(max_total=15, min_total=11))
@example((Partition([4, 3, 2, 1]), Partition([2, 2, 1, 1])))
def test_product_fold_matches_the_recursive_walk_beyond_degree_ten(pair):
    _assert_fold_matches_the_recursive_walk(pair[0].parts, pair[1].parts)


@PROPERTY
@given(st.integers(0, 14).flatmap(_sized), st.integers(0, 8))
@example(Partition([3, 1]), 3)
@example(Partition(()), 4)
@example(Partition([2, 2]), 0)
def test_pieri_steps_match_the_recursive_strip_walk_on_any_shape(shape, size):
    # The letter 1's strips have no lattice bound: they are the horizontal
    # strips of the Pieri rule, listed in the same order.
    at = schur._positions(shape.size)[shape.parts]
    want = _recursive_last_strips(shape.parts, (0,) * len(shape), size)
    assert _pieri(shape.size, at, size) == want


def _recursive_partitions_between(lower, upper, size):
    """The tuple of _partitions_between(lower, upper, size), from a recursive
    `rec` closure: the reference for _partitions_between, which walks the
    rows in one frame in polykron.partitions."""
    n = len(upper)
    below = [0] * (n + 1)
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


def test_partitions_between_match_the_recursive_walk():
    # Every lower inside every upper with |upper| <= 10, at every size from
    # 0 to |upper| + 1, then the bounds that partitions_of(d) reads.
    between = partitions._partitions_between
    for d in range(11):
        for upper in partitions_of(d):
            for e in range(d + 1):
                for lower in partitions_of(e):
                    if upper.contains(lower):
                        for size in range(d + 2):
                            want = _recursive_partitions_between(lower.parts, upper.parts, size)
                            assert between(lower.parts, upper.parts, size) == want
    for d in range(14):
        assert between((), (d,) * d, d) == _recursive_partitions_between((), (d,) * d, d)


@PROPERTY
@given(skew_shapes(max_outer=16, min_outer=11, max_skew=16), st.integers(0, 17))
@example((Partition([6, 5, 4]), Partition([])), 9)
def test_partitions_between_match_the_recursive_walk_beyond_degree_ten(shape, size):
    upper, lower = shape
    want = _recursive_partitions_between(lower.parts, upper.parts, size)
    assert partitions._partitions_between(lower.parts, upper.parts, size) == want


def _strip_bound(alpha, width=3):
    """alpha's rows lengthened to the row above, the first by width: every
    horizontal strip on alpha of at most width cells, alpha plus a box
    among them, lies between alpha and this shape."""
    return (alpha[0] + width if alpha else width,) + alpha


def test_partitions_between_match_the_recursive_walk_on_strip_bounds():
    # The tight lower shapes of one_box_moves' second walk, at every size.
    between = partitions._partitions_between
    for d in range(11):
        for alpha in partitions_of(d):
            upper = _strip_bound(alpha.parts)
            for size in range(d, sum(upper) + 2):
                want = _recursive_partitions_between(alpha.parts, upper, size)
                assert between(alpha.parts, upper, size) == want


def _one_box_cases():
    staircases = [Partition(range(k, 0, -1)) for k in range(1, 15)]
    return staircases + [Partition([3] * 14), Partition([5, 5, 4, 4, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1])]


@pytest.mark.parametrize("lam", _one_box_cases(), ids=Partition.text)
def test_partitions_between_match_the_recursive_walk_on_one_box_bounds(lam):
    # Both walks of lam.one_box_moves(): lam less a corner, then plus a box.
    between = partitions._partitions_between
    smaller = between((), lam.parts, lam.size - 1)
    assert smaller == _recursive_partitions_between((), lam.parts, lam.size - 1)
    assert len(smaller) == len(lam.outer_corners())
    for alpha in smaller:
        upper = (lam[0] + 1,) + alpha
        want = _recursive_partitions_between(alpha, upper, lam.size)
        assert between(alpha, upper, lam.size) == want


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=14))
def test_partitions_between_match_the_recursive_walk_on_one_box_bounds_of_up_to_14_rows(rows):
    test_partitions_between_match_the_recursive_walk_on_one_box_bounds(
        Partition(sorted(rows, reverse=True))
    )


def test_one_box_moves_match_brute_force():
    # beta is one move from lam when they share all but one box.
    for d in range(1, 11):
        for lam in partitions_of(d):
            want = [
                beta for beta in partitions_of(d)
                if beta != lam and sum(map(min, zip(beta, lam))) == d - 1
            ]
            assert lam.one_box_moves() == want


def test_the_empty_partition_has_no_one_box_moves():
    with pytest.raises(ValueError):
        Partition(()).one_box_moves()


def test_one_box_moves_finish_on_a_thirty_row_staircase():
    lam = Partition(range(30, 0, -1))
    moves = lam.one_box_moves()
    # Lam less any of its 30 corners has 30 addable cells, one of which
    # gives lam back.
    assert len(moves) == 30 * 29
    assert all(beta.size == lam.size for beta in moves)


def _recursive_jacobi_trudi_terms(mu):
    """The terms of jacobi_trudi(mu), lazily, from nested generators of a
    recursive `rec`: the reference for jacobi_trudi, which lists them by
    the one Laplace walker of polykron.schur."""
    n = len(mu)
    used = [False] * n
    sigma = [0] * n

    def rec(k, inv):
        if k == n:
            idxs = tuple(mu.parts[i] - i + sigma[i] for i in range(n))
            yield (-1) ** inv, Composition(idxs)
            return
        i = n - 1 - k
        for j in range(max(0, i - mu.parts[i]), n):
            if used[j]:
                continue
            used[j] = True
            sigma[i] = j
            yield from rec(k + 1, inv + sum(used[:j]))
            used[j] = False

    return rec(0, 0)


def _jt_terms(terms):
    return [(sign, nu.entries, nu.degree) for sign, nu in terms]


def test_jacobi_trudi_terms_match_the_recursive_walk():
    for d in range(13):
        for mu in partitions_of(d):
            want = _jt_terms(_recursive_jacobi_trudi_terms(mu))
            assert _jt_terms(internal_product.jacobi_trudi(mu)) == want, mu


@PROPERTY
@given(st.integers(13, 18).flatmap(_sized).filter(lambda mu: len(mu) <= 9))
@example(Partition([4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]))
def test_jacobi_trudi_terms_match_the_recursive_walk_beyond_degree_twelve(mu):
    want = _jt_terms(_recursive_jacobi_trudi_terms(mu))
    assert _jt_terms(internal_product.jacobi_trudi(mu)) == want


@PROPERTY
@given(kostka_cases())
@example((Partition([4, 3, 2, 1, 1]), Composition([1, 0, 2, 1, 3, 0, 2, 1, 1])))
@example((Partition([3, 3, 2, 2, 1]), Composition([1] * 11)))
def test_kostka_matches_the_cell_by_cell_count(case):
    shape, content = case
    assert kostka(shape, content) == _fill_cells(shape.parts, content.entries)


def test_kostka_matches_the_cell_by_cell_count_from_a_shared_product_memo():
    # Kostka numbers are products of one-row factors in the LR product memo;
    # products that a Kronecker product left there must give the same counts.
    cases = [
        (shape, content)
        for d in range(8)
        for content in dict.fromkeys(nu for mu in partitions_of(d) for _, nu in jacobi_trudi(mu))
        for shape in partitions_of(d)
    ]
    memos = (_product_terms, _pieri, _skew_terms, _chain, _fold)
    for fn in memos:
        fn.cache_clear()
    kronecker_general(Partition([5, 4, 3]), Partition([4, 3, 2, 2, 1]))
    before = _product_terms.cache_info().misses
    for shape, content in cases:
        assert kostka(shape, content) == _fill_cells(shape.parts, content.entries)
    shared = _product_terms.cache_info().misses - before
    for fn in memos:
        fn.cache_clear()
    for shape, content in cases:
        kostka(shape, content)
    # Some of the products were answered from the Kronecker product's entries.
    assert shared < _product_terms.cache_info().misses


def test_flat_product_entries_match_the_pair_layout_and_share_the_walked_tuples():
    # Every (mu, nu) with |mu| + |nu| <= 10, from a cold product memo: the
    # swapped pair returns the same entry, and of a pair and its conjugate
    # one entry is walked (flip None) and the other reads its two tuples
    # through the conjugation permutation.
    _product_terms.cache_clear()
    for total in range(11):
        flip = schur._conjugation(total)
        for a in range(total + 1):
            for mu, nu in product(partitions_of(a), partitions_of(total - a)):
                entry = _product_terms(mu.parts, nu.parts)
                assert _pairs(entry) == _row_order_product_terms(mu.parts, nu.parts)
                assert _product_terms(nu.parts, mu.parts) is entry
                conj = _product_terms(mu.conjugate().parts, nu.conjugate().parts)
                walked, read = (entry, conj) if entry[2] is None else (conj, entry)
                positions, coefficients, none = walked
                assert none is None and all(coefficients)
                assert list(positions) == sorted(set(positions))
                if read is not walked:
                    assert read[0] is positions and read[1] is coefficients
                    assert read[2] is flip
                assert _pairs(conj) == tuple(sorted((flip[i], c) for i, c in _pairs(entry)))


@PROPERTY
@given(lr_triples())
def test_lr_is_symmetric_and_both_orders_share_one_memo_entry(triple):
    lam, mu, nu = triple
    assert _product_terms(mu.parts, nu.parts) is _product_terms(nu.parts, mu.parts)
    assert lr_coeff(lam, mu, nu) == lr_coeff(lam, nu, mu)


@PROPERTY
@given(skew_shapes())
def test_skew_terms_match_the_oracle(shape):
    outer, inner = shape
    want = {}
    for i, beta in enumerate(partitions_of(outer.size - inner.size)):
        c = lr_oracle(outer, inner, beta)
        if c:
            want[i] = c
    # Equal as lists: the keys come in ascending position order.
    assert list(_skew_terms(outer.parts, inner.parts).items()) == list(want.items())


@PROPERTY
@given(signed_expansion_pairs())
@example((
    SchurExpansion(3, {(2, 1): 2, (1, 1, 1): -1}),
    SchurExpansion(5, {(3, 2): -3, (2, 2, 1): 1, (1, 1, 1, 1, 1): 2}),
))
def test_outer_products_of_signed_sums_match_the_oracle(pair):
    # Each coefficient of a * b is the bilinear sum of oracle LR
    # coefficients over the terms of a and b.
    a, b = pair
    got = schur_outer_product(a, b)
    for lam in partitions_of(a.degree + b.degree):
        want = sum(
            x * y * lr_oracle(lam, mu, nu)
            for mu, x in a.terms.items()
            for nu, y in b.terms.items()
        )
        assert got.coefficient(lam) == want, (a, b, lam)


@PROPERTY
@given(skew_shapes(max_outer=16, min_outer=13))
@example((Partition([6, 5, 3, 2]), Partition([4, 2, 1])))
def test_skew_terms_match_the_reference_walk_beyond_the_oracle_bound(shape):
    outer, inner = shape
    pos = {p.parts: i for i, p in enumerate(partitions_of(outer.size - inner.size))}
    want = {pos[beta]: c for beta, c in _tally_skew(outer.parts, inner.parts).items()}
    assert _skew_terms(outer.parts, inner.parts) == want


@PROPERTY
@given(weyl_cases())
def test_weyl_chain_ignores_step_order_and_zeros(case):
    lam, nu, shuffled = case
    got = weyl_tensor_gamma(lam, Composition(nu))
    # The chain run in the drawn order, zero steps included, without the
    # canonical memo key that weyl_tensor_gamma uses.
    unsorted = _chain_in_order(lam.parts, tuple((x, GAMMA) for x in shuffled))
    assert SchurExpansion._from_index(lam.size, unsorted.items()) == got
    assert weyl_tensor_gamma(lam, Composition(shuffled)) == got
    assert got == internal_h_oracle(lam, Composition(nu))


@PROPERTY
@given(weyl_cases())
def test_wedge_filtration_is_the_conjugate_of_the_gamma_filtration(case):
    lam, nu, _ = case
    nu = Composition(nu)
    assert weyl_tensor_wedge(lam, nu) == weyl_tensor_gamma(lam, nu).conjugate()


@PROPERTY
@given(hook_cases())
@example((Partition([4, 3, 2, 1]), 3, 7))
def test_the_wedge_step_of_the_hook_products_matches_the_oracle(case):
    # kronecker_hook and hook_mixed chain Gamma^p with Wedge^q, and the Wedge
    # step reads the skew terms through the conjugation permutation;
    # Gamma^p (x) Wedge^q carries the hooks (p,1^q) and (p+1,1^(q-1)).
    lam, p, q = case
    hook = kronecker_oracle_expansion(lam, Partition([p] + [1] * q))
    assert kronecker_hook(lam, p, q) == hook
    second = kronecker_oracle_expansion(lam, Partition([p + 1] + [1] * (q - 1)))
    assert hook_mixed(lam, p, q) == hook + second


@PROPERTY
@given(same_degree_pairs(min_d=0, max_d=10))
@example((Partition([4, 3, 3, 2]), Partition([1] * 12)))
@example((Partition([3]), Partition([1, 1, 1])))
def test_fold_equals_the_determinant_terms_chained_one_by_one(pair):
    # The examples fold a 12-row determinant, and one whose bottom two rows
    # cancel: along (3), the mask {0, 1} sums h_1 h_1 - h_2 h_0, and its
    # table at (2) keeps s_(1,1) of s_(2) + s_(1,1) - s_(2).
    chain, expanded = pair
    assert _fold(chain.parts, expanded.parts) == _chained_terms(chain, expanded)


@settings(PROPERTY, max_examples=20)
@given(same_degree_pairs())
@example((Partition([5, 4, 3]), Partition([4, 3, 2, 2, 1])))
def test_kronecker_matches_the_oracle_and_its_symmetries(pair):
    lam, mu = pair
    got, _ = kronecker(lam, mu)
    assert got == kronecker_oracle_expansion(lam, mu)
    assert kronecker(mu, lam)[0] == got
    assert kronecker(lam.conjugate(), mu.conjugate())[0] == got
    assert sum(c * dimension(alpha) for alpha, c in got.items()) == (
        dimension(lam) * dimension(mu)
    )


def _fitting_paths(p: Partition) -> list:
    """The fast paths whose shape p has, in the order auto tries them, from
    their definitions: (a, 1), and (p, 1^q) with q >= 1."""
    parts = p.parts
    fits = {
        "one-box": len(parts) == 2 and parts[1] == 1,
        "hook": len(parts) >= 2 and set(parts[1:]) == {1},
    }
    return [name for name, fit in fits.items() if fit]


METHODS = ("auto", "general", "one-box", "hook")


def _outcome(lam, mu, method):
    """kronecker's (expansion, label), or "raises" on a ValueError."""
    try:
        return kronecker(lam, mu, method)
    except ValueError:
        return "raises"


@PROPERTY
@given(same_degree_pairs(min_d=0, max_d=9))
@example((Partition([4, 1]), Partition([2, 2, 1])))
@example((Partition([3, 1]), Partition([2, 2])))
@example((Partition([3, 1, 1]), Partition([2, 1, 1, 1])))
@example((Partition([2, 1, 1]), Partition([2, 2])))
def test_auto_takes_a_fast_path_from_either_factor(pair):
    # g(lam, mu, nu) = g(mu, lam, nu), so each method gives both argument
    # orders one result: the same expansion and label, or ValueError.  A
    # fast path raises only when neither factor has its shape, and auto
    # takes one-box when either factor fits it, else general.
    lam, mu = pair
    fitting = _fitting_paths(lam) + _fitting_paths(mu)
    for method in METHODS:
        got = _outcome(lam, mu, method)
        assert _outcome(mu, lam, method) == got
        assert (got == "raises") == (method not in ("auto", "general", *fitting))
        assert got == "raises" or got[0] == kronecker_general(lam, mu)
    assert kronecker(lam, mu)[1] == ("one-box" if "one-box" in fitting else "general")


def _procedure_calls(lam, mu, method):
    """The procedure calls of kronecker(lam, mu, method), none of them run."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("kronecker_general", "kronecker_one_box", "kronecker_hook"):
            patch.setattr(internal_product, name, partial(lambda *call: calls.append(call), name))
        try:
            kronecker(lam, mu, method)
        except ValueError:
            pass
    return calls


@PROPERTY
@given(same_degree_pairs(min_d=0, max_d=9))
@example((Partition([3, 1]), Partition([2, 2])))
@example((Partition([3, 1, 1]), Partition([2, 1, 1, 1])))
@example((Partition([5, 4]), Partition([1] * 9)))
@example((Partition([9]), Partition([5, 1, 1, 1, 1])))
@example((Partition([8, 1]), Partition([9])))
def test_both_argument_orders_make_the_same_procedure_call(pair):
    # Both orders make one call, with the same arguments, or none when the
    # method fits neither factor or a factor is the unit (n) or the sign
    # (1^n), whose products kronecker answers itself.
    lam, mu = pair
    runnable = ("auto", "general", *_fitting_paths(lam), *_fitting_paths(mu))
    trivial = any(len(p) <= 1 or p.parts[0] == 1 for p in pair)
    for method in METHODS:
        calls = _procedure_calls(lam, mu, method)
        assert calls == _procedure_calls(mu, lam, method)
        assert len(calls) == int(method in runnable and not trivial)


@settings(PROPERTY, max_examples=20)
@given(same_degree_triples())
@example((Partition([5, 4, 3]), Partition([4, 3, 2, 2, 1]), Partition([4, 4, 2, 1, 1])))
def test_kronecker_coefficient_is_symmetric_in_all_three_arguments(triple):
    lam, mu, alpha = triple
    want = kronecker(lam, mu)[0].coefficient(alpha)
    for a, b, c in permutations(triple):
        assert kronecker(a, b)[0].coefficient(c) == want


def _resolve(chain, expanded):
    """The Kronecker product with the Jacobi-Trudi terms of `expanded`
    chained along `chain` one by one, whichever side kronecker_general would
    pick."""
    return SchurExpansion._from_index(chain.size, _chained_terms(chain, expanded).items())


@PROPERTY
@given(same_degree_pairs())
@example((Partition([6, 4]), Partition([4, 3, 2, 1])))
@example((Partition([9, 3]), Partition([4, 4, 4])))
def test_every_resolution_agrees_with_kronecker_general(pair):
    # kronecker_general runs one fold for both argument orders, so the
    # symmetries are checked here on resolutions forced through each side:
    # s_lam*s_mu = s_mu*s_lam = s_lam'*s_mu', and s_lam*s_mu' = w(s_lam*s_mu).
    lam, mu = pair
    got = kronecker_general(lam, mu)
    assert _resolve(lam, mu) == got
    assert _resolve(mu, lam) == got
    assert _resolve(lam.conjugate(), mu.conjugate()) == got
    assert _resolve(lam, mu.conjugate()).conjugate() == got
    if lam.size <= 10:
        assert got == kronecker_oracle_expansion(lam, mu)


def _chain_calls(lam, mu):
    """The (chain, expanded) pair of every _fold call of
    kronecker_general(lam, mu), with the fold itself not run."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(internal_product, "_fold", lambda *call: calls.append(call) or {})
        kronecker_general(lam, mu)
    return calls


@PROPERTY
@given(same_degree_pairs(min_d=0, max_d=9))
@example((Partition([6, 1, 1]), Partition([4, 4])))
@example((Partition([7, 2, 1]), Partition([5, 5])))
def test_both_argument_orders_make_the_same_chain_call(pair):
    # The examples have two orientations with equal lowest fold estimates,
    # the first at the lowest degree with a tie, d = 8.
    lam, mu = pair
    assert _chain_calls(lam, mu) == _chain_calls(mu, lam)


def test_kronecker_is_unchanged_after_clearing_every_kernel_memo():
    assert set(MEMOS) == {
        "partitions.partitions_of", "partitions._row_tables", "partitions._shared",
        "partitions._partitions_between", "schur._positions", "schur._conjugation",
        "schur._pieri", "schur._product_terms", "schur._skew_terms",
        "characters.class_size", "characters.perm_row", "characters.character_row",
        "characters._strip_removals", "characters._chi",
        "internal_product._steps", "internal_product._chain", "internal_product._fold",
        "internal_product._contingency_weights",
    }
    lam, mu = Partition([5, 4, 3]), Partition([4, 3, 2, 2, 1])
    before, _ = kronecker(lam, mu)
    characters.mn_character(Partition([2, 1]), Partition([3]))
    clear_all()
    assert all(t.cache_info().currsize == 0 for t in MEMOS.values())
    assert kronecker(lam, mu)[0] == before
    # A repeated call is answered from the memo of folds.
    hits = _fold.cache_info().hits
    assert kronecker(lam, mu)[0] == before
    assert _fold.cache_info().hits == hits + 1


def test_the_exponential_products_of_one_margin_pair_flatten_it_once():
    # The exptable sweep asks ten products of each margin pair in turn (the
    # ninth family pair and the Sym x Wedge product with 2 = 0); a one-entry
    # memo builds their summands once, and the next pair replaces them.
    wl, wr = Composition([2, 1, 1]), Composition([1, 3])
    want = tuple(m.flatten() for m in iter_contingency(wl, wr))
    clear_all()
    got = [
        exponential_tensor(ExpFunctor(fl, wl), ExpFunctor(fr, wr))
        for fl in (GAMMA, SYM, WEDGE)
        for fr in (GAMMA, SYM, WEDGE)
    ]
    got.append(exponential_tensor(ExpFunctor(SYM, wl), ExpFunctor(WEDGE, wr), CharTwoMode.TWO_ZERO))
    info = _contingency_weights.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (9, 1, 1, 1)
    assert all(g.summands is got[0].summands for g in got) and got[0].summands == want
    assert gamma_tensor_gamma(wr, wl).summands != want
    assert _contingency_weights.cache_info()[1:] == (2, 1, 1)
    clear_all()
    assert _contingency_weights.cache_info().currsize == 0


def test_memo_entries_share_one_int_per_position(monkeypatch):
    # Above 256 an int is a new object each time it is made, and p(18) = 385.
    # After a cold d = 18 square, every position in the product entries and
    # every key of the chain tables is the int object of _positions, so the
    # memos hold one object per position instead of one per entry.
    def recorder(log, table):
        def call(*args):
            log.append((args, table(*args)))
            return log[-1][1]
        return call

    entries, tables = [], []
    clear_all()
    monkeypatch.setattr(schur, "_product_terms", recorder(entries, _product_terms))
    monkeypatch.setattr(internal_product, "_compressed", recorder(tables, _compressed))
    square = Partition([6, 5, 4, 2, 1])
    assert kronecker_general(square, square) == kronecker_oracle_expansion(square, square)
    seen = 0
    for (mu, nu), (positions, _, flip) in entries:
        canon = list(schur._positions(sum(mu) + sum(nu)).values())
        assert all(canon[i] is i for i in chain(positions, flip or ()))
        seen += sum(i > 256 for i in positions)
    for _, table in tables:
        for beta, expn in table.items():
            canon = list(schur._positions(sum(beta)).values())
            assert all(canon[i] is i for i in expn)
            seen += sum(i > 256 for i in expn)
    assert seen > 1000


def test_every_kernel_memo_is_a_registered_bare_lru_cache(monkeypatch):
    def unregistered():
        modules = (partitions, schur, characters, internal_product)
        found = [fn for m in modules for fn in vars(m).values() if hasattr(fn, "cache_clear")]
        return [fn for fn in found if not any(fn is table for table in MEMOS.values())]

    assert unregistered() == []
    # memo returns the lru_cache object itself: each module holds its entry as is.
    bare = type(lru_cache(maxsize=None)(lambda: 0))
    for name, table in MEMOS.items():
        module, attr = name.split(".")
        assert getattr(import_module(f"polykron.{module}"), attr) is table, name
        assert type(table) is bare, name
    # A memo that skips the registry is caught.
    stray = lru_cache(maxsize=None)(lambda: 0)
    monkeypatch.setattr(schur, "_stray", stray, raising=False)
    assert unregistered() == [stray]


@PROPERTY
@given(margin_pairs())
@example((Composition([2, 2, 2, 2, 2]), Composition([2, 2, 2, 2, 2])))
@example((Composition([3, 3, 2, 1, 1]), Composition([4, 2, 2, 1, 1])))
def test_contingency_count_matches_rsk_and_the_margin_dp(pair):
    mu, lam = pair
    count = sum(1 for _ in iter_contingency(mu, lam))
    rsk = sum(kostka(v, mu) * kostka(v, lam) for v in partitions_of(mu.degree))
    assert count == rsk
    assert count == _margin_count(mu, lam)


@PROPERTY
@given(margin_pairs(max_d=6))
@example((Composition([2, 1, 1, 1, 1]), Composition([1, 2, 1, 1, 1])))
@example((Composition([0, 3, 0, 2, 1]), Composition([1, 0, 2, 2, 1])))
def test_contingency_order_matches_brute_force(pair):
    mu, lam = pair
    got = [m.rows for m in iter_contingency(mu, lam)]
    assert got == _brute_force_matrices(mu, lam)


@PROPERTY
@given(margin_pairs(max_d=6, min_parts=0))
@example((Composition([]), Composition([0, 0])))
@example((Composition([0, 0]), Composition([])))
def test_contingency_order_matches_brute_force_with_empty_margins(pair):
    # Margins with no entries draw here: a 0-row or 0-column matrix, checked
    # through the public matrices and the bare rows tuples alike.
    mu, lam = pair
    want = _brute_force_matrices(mu, lam)
    assert [m.rows for m in iter_contingency(mu, lam)] == want
    assert list(partitions._contingency_rows(mu.entries, lam.entries)) == want


def _recursive_contingency_rows(sums, cols):
    """The rows tuples of every matrix with row sums `sums` and column sums
    `cols`, from one nested generator per prefix row: the reference for
    _contingency_rows, which walks rows 0..n-3 in one frame in
    polykron.partitions."""
    n = len(sums)
    if n < 2:
        yield (cols,) if n else ()
        return
    close = n - 2

    def prefixes(i, prefix, rem):
        pairs = partitions._row_tables(rem)[0][sums[i]]
        if i + 1 < close:
            for row, rest in pairs:
                yield from prefixes(i + 1, prefix + (row,), rest)
        else:
            for row, rest in pairs:
                yield prefix + (row,), rest

    need = sums[close]
    for prefix, rem in prefixes(0, (), cols) if close else [((), cols)]:
        for pair in partitions._row_tables(rem)[0][need]:
            yield prefix + pair


def test_contingency_rows_match_the_recursive_walk():
    # Every margin pair with d <= 6 and at most 5 parts, zeros and empty
    # margins included, then a few 6- and 7-row pairs.
    for d in range(7):
        weights = [c.entries for n in range(6) for c in enumerate_compositions(d, n)]
        for sums in weights:
            for cols in weights:
                want = list(_recursive_contingency_rows(sums, cols))
                assert list(partitions._contingency_rows(sums, cols)) == want, (sums, cols)
    for sums, cols in (
        ((1,) * 6, (2, 2, 1, 1)),
        ((2, 0, 1, 1, 1, 1), (3, 0, 2, 1)),
        ((1,) * 7, (1,) * 7),
        ((2, 1, 0, 1, 1, 1, 1), (3, 2, 1, 1)),
        ((3, 2, 2, 1, 1, 1, 1), (1, 4, 0, 3, 2, 1)),
    ):
        want = list(_recursive_contingency_rows(sums, cols))
        assert list(partitions._contingency_rows(sums, cols)) == want, (sums, cols)


def test_threads_that_race_to_fill_the_row_tables_get_the_reference_rows():
    # Walks in several threads, from empty tables and with a short switch
    # interval, check and fill the same slots at once.  A slot written twice
    # gets the memo's entry both times, so every walk gives the reference.
    weights = [c.entries for n in (3, 4) for c in enumerate_compositions(7, n)][::4]
    cases = [(sums, cols) for sums in weights for cols in weights]
    want = [list(_recursive_contingency_rows(*case)) for case in cases]
    got = {}

    def walk(k):
        order = cases[k:] + cases[:k]
        got[k] = [list(partitions._contingency_rows(*case)) for case in order]

    clear_all()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == list(range(6))
    for k, rows in got.items():
        assert rows == want[k:] + want[:k]


def test_contingency_rows_stay_lazy_at_seven_rows():
    # (6^7) x (6^7) has far too many matrices to list; the first comes at once.
    six = (6,) * 7
    rows = partitions._contingency_rows(six, six)
    diagonal = tuple(tuple(6 if i == j else 0 for j in range(7)) for i in range(7))
    assert next(rows) == diagonal
    assert next(rows)[:5] == diagonal[:5]


def test_the_prefix_walk_keeps_one_frame_at_three_thousand_rows():
    # The prefix rows are walked in one generator frame, so the depth of the
    # walk is not bounded by the recursion limit: a nested generator per row
    # raises RecursionError at about a thousand rows.
    ones = Composition([1] * 3000)
    first = next(iter_contingency(ones, Composition([2998, 2])))
    assert first.rows == ((1, 0),) * 2998 + ((0, 1),) * 2
    got = gamma_tensor_gamma(ones, Composition([3000]))
    assert got.summands == (ones,)


@PROPERTY
@given(st.lists(margin_pairs(max_d=6, min_parts=0), min_size=1, max_size=4))
@example([(Composition([]), Composition([0, 0]))])
@example([(Composition([2, 0, 1, 1, 2]), Composition([1, 3, 0, 2]))])
@example([(Composition([1, 2, 1, 2]), Composition([2, 2, 2])),
          (Composition([2, 1, 1, 2]), Composition([3, 1, 2]))])
def test_contingency_rows_match_the_recursive_walk_on_cold_warm_and_stale_tables(pairs):
    # The walk fills each remainder's row tables as it asks for their slots,
    # and the tables are shared by every walk that reaches the remainder.
    # The rows must not depend on what the tables hold: none filled, filled
    # by the walks before (each pair also runs with its row sums reversed,
    # so one remainder is read at other row sums), filled by a whole first
    # pass, or left behind by a `_row_tables` clear in the middle of the
    # walks, so that the suspended walks go on through tables that the memo
    # no longer has.
    cases = [(mu.entries, lam.entries) for mu, lam in pairs]
    cases += [(sums[::-1], cols) for sums, cols in cases]
    want = [list(_recursive_contingency_rows(sums, cols)) for sums, cols in cases]
    clear_all()
    assert [list(partitions._contingency_rows(*case)) for case in cases] == want
    assert [list(partitions._contingency_rows(*case)) for case in cases] == want
    clear_all()
    walks = [partitions._contingency_rows(*case) for case in cases]
    heads = [list(islice(walk, 1)) for walk in walks]
    partitions._row_tables.cache_clear()
    assert [head + list(walk) for head, walk in zip(heads, walks)] == want


@PROPERTY
@given(margin_pairs(max_d=6, min_parts=0))
@example((Composition([]), Composition([0, 0])))
@example((Composition([0, 0]), Composition([])))
@example((Composition([4]), Composition([1, 0, 3])))
@example((Composition([0, 3, 0, 2]), Composition([2, 0, 3])))
def test_gamma_summands_are_the_flattened_matrices(pair):
    # The summands come from the rows tuples; the public matrices must
    # flatten to the same weights, in the same order, and so must the
    # brute-force matrices, which share no code with the enumerator.
    mu, lam = pair
    got = internal_product.gamma_tensor_gamma(mu, lam)
    assert got.summands == tuple(m.flatten() for m in iter_contingency(mu, lam))
    brute = _brute_force_matrices(mu, lam)
    assert got.summands == tuple(Composition(chain.from_iterable(m)) for m in brute)
    assert all(nu.degree == mu.degree for nu in got.summands)


@PROPERTY
@given(st.integers(0, 12), st.lists(st.integers(0, 5), max_size=5).map(tuple))
@example(0, ())
@example(4, (2, 0, 3, 1))
def test_row_vector_pairs_split_the_remainder_in_descending_order(need, rem):
    pairs = partitions._row_tables(rem)[0][need]
    for row, rest in pairs:
        assert sum(row) == need
        assert all(x >= 0 and y >= 0 and x + y == c for x, y, c in zip(row, rest, rem))
        assert len(row) == len(rest) == len(rem)
    rows = [row for row, _ in pairs]
    assert all(a > b for a, b in zip(rows, rows[1:]))
    bounded = product(*(range(c + 1) for c in rem))
    assert len(rows) == sum(1 for v in bounded if sum(v) == need)


def _recursive_row_vectors(need, rem):
    """Slot `need` of the pair table of `rem`, from a recursive `fill`
    closure: the reference for _walk_columns, which fills that slot and
    walks the columns in one frame in polykron.partitions."""
    m = len(rem)
    if m == 0:
        return (((), ()),) if need == 0 else ()
    cap = [0] * (m + 1)  # cap[j] = rem[j] + ... + rem[m-1]
    for j in range(m - 1, -1, -1):
        cap[j] = cap[j + 1] + rem[j]
    if need > cap[0]:
        return ()
    out = []
    row = [0] * m
    rest = list(rem)

    def fill(j, left):
        if j == m - 1:
            row[j] = left
            rest[j] = rem[j] - left
            out.append((tuple(row), tuple(rest)))
            return
        for x in range(min(left, rem[j]), max(0, left - cap[j + 1]) - 1, -1):
            row[j] = x
            rest[j] = rem[j] - x
            fill(j + 1, left - x)

    fill(0, need)
    return tuple(out)


def test_row_vectors_match_the_recursive_walk():
    # Every remainder with entries <= 3 and at most 5 columns, at every need
    # from 0 to its sum + 1: 12,288 cases.  Each vector is the `_shared` one.
    cases = 0
    for m in range(6):
        for rem in product(range(4), repeat=m):
            for need in range(sum(rem) + 2):
                got = partitions._row_tables(rem)[0][need]
                assert got == _recursive_row_vectors(need, rem), (need, rem)
                assert all(partitions._shared(v) is v for v in chain.from_iterable(got))
                cases += 1
    assert cases == 12288


def test_compositions_match_brute_force():
    for d in range(9):
        for n in range(6):
            want = sorted((v for v in product(range(d + 1), repeat=n) if sum(v) == d), reverse=True)
            got = enumerate_compositions(d, n)
            assert [c.entries for c in got] == want
            assert all(c.degree == d and c == Composition(c.entries) for c in got)


def test_row_vector_memo_stores_each_distinct_vector_once(monkeypatch):
    # The pair tables hold many more pairs than distinct vectors; equal
    # vectors must be one object, or the tables grow with their entries.
    # Each (need, rem) slot is built once, whether a walk reaches it from
    # the tables of its column sums or through a step.  Only the builds of
    # table slots are counted: enumerate_compositions walks its columns
    # directly and fills no slot.
    built = Counter()
    missing = partitions._PairTable.__missing__

    def counted(table, need):
        built[need, table.rest] += 1
        return missing(table, need)

    monkeypatch.setattr(partitions._PairTable, "__missing__", counted)
    clear_all()
    assert sweeps.sweep_contingency(6).ok
    tables = partitions._row_tables.cache_info()
    entries = {}

    def walk(sums, rem):
        # The keys the enumerator asks for: rows 0..n-2, each remainder.
        if len(sums) < 2 or (sums[0], rem) in entries:
            return
        pairs = entries[sums[0], rem] = partitions._row_tables(rem)[0][sums[0]]
        for _, rest in pairs:
            walk(sums[1:], rest)

    for d in range(7):
        weights = sweeps._weights_up_to(d, 4)
        for mu in weights:
            for lam in weights:
                walk(mu.entries, lam.entries)
    assert partitions._row_tables.cache_info().misses == tables.misses
    assert set(built) == set(entries)
    assert set(built.values()) == {1}
    stored = {}
    for pairs in entries.values():
        for vector in chain.from_iterable(pairs):
            assert stored.setdefault(vector, vector) is vector
    assert len(stored) < sum(map(len, entries.values()))
    # A filled step slot holds one step per pair, in order, each carrying
    # the memo's tables of its remainder; the step of a zero row carries
    # the memo's pair table and a step table of its own.
    for need, rem in entries:
        pairs, steps = partitions._row_tables(rem)
        assert pairs[need] is entries[need, rem]
        if need not in steps:
            continue
        assert len(steps[need]) == len(pairs[need])
        for (x, rest), (row, below, after) in zip(pairs[need], steps[need]):
            assert row is x
            assert below is partitions._row_tables(rest)[0]
            if need:
                assert after is partitions._row_tables(rest)[1]
            else:
                assert type(after) is type(steps) and after is not steps
                assert after.rest == rem


def test_two_row_walks_and_compositions_fill_no_step_tables():
    # A walk of two rows reads one slot of the pair table of its column
    # sums: no step is built, so no table of any remainder is made, whatever
    # the degree.  enumerate_compositions walks its columns directly and
    # fills no table at all.
    clear_all()
    big = Composition([2000, 2000])
    assert next(iter_contingency(big, big)).rows == ((2000, 0), (0, 2000))
    assert len(enumerate_compositions(12, 4)) == 455
    assert partitions._row_tables.cache_info().currsize == 1
    assert len(list(partitions._contingency_rows((3, 4), (2, 0, 5)))) == 3
    rems = [(2000, 2000), (2, 0, 5)]
    assert partitions._row_tables.cache_info().currsize == len(rems)
    for rem in rems:
        pairs, steps = partitions._row_tables(rem)
        assert len(pairs) == 1 and len(steps) == 0


def test_compositions_and_the_column_walk_keep_nothing():
    # The pair table is the one owner of the vectors: a one-off
    # enumerate_compositions call, however large, leaves no table and no
    # shared vector behind, and a bare column walk reads and fills no memo.
    clear_all()
    assert len(enumerate_compositions(30, 5)) == 46376
    assert partitions._row_tables.cache_info().currsize == 0
    assert partitions._shared.cache_info().currsize == 0
    before = {name: table.cache_info() for name, table in MEMOS.items()}
    got = partitions._walk_columns(4, (2, 0, 3, 1))
    assert got == _recursive_row_vectors(4, (2, 0, 3, 1))
    assert {name: table.cache_info() for name, table in MEMOS.items()} == before


def test_clear_all_frees_every_row_table_without_the_cycle_collector():
    # A zero row leaves its remainder as it is, so its step must not lead
    # back to the table that holds it: clear_all() would then leave the
    # tables to the cycle collector.  Row sums with zeros in every place
    # reach zero rows at the root, in the nested rows and in the prefixes.
    weights = [c.entries for n in range(3, 7) for c in enumerate_compositions(3, n)][::3]

    def live_tables():
        return sum(isinstance(o, partitions._PairTable) for o in gc.get_objects())

    clear_all()
    gc.collect()
    gc.disable()
    try:
        before = live_tables()
        for sums in weights:
            for cols in weights[::5]:
                for _ in partitions._contingency_rows(sums, cols):
                    pass
        assert live_tables() > before + 100
        clear_all()
        assert live_tables() == before
    finally:
        gc.enable()


def test_the_oracle_never_runs_the_tableau_engine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the tableau engine")

    for name in (
        "_laplace", "_pieri", "_product_fold", "_product_terms", "_skew_terms",
    ):
        monkeypatch.setattr(schur, name, forbidden)
    monkeypatch.setattr(internal_product, "_chain", forbidden)
    monkeypatch.setattr(internal_product, "_fold", forbidden)
    lam, mu = Partition([3, 2, 1]), Partition([4, 2])
    assert lr_oracle(lam, Partition([2, 1]), Partition([2, 1])) == 2
    assert internal_h_oracle(lam, Composition([3, 0, 3])).coefficient(lam) == 8
    assert kronecker_oracle_expansion(lam, mu).coefficient(Partition([4, 1, 1])) == 2

