"""Property tests of the LR kernel, the Weyl chain and the Kronecker product
against the character oracle and their symmetries, of the contingency
enumerator against independent counts, on random inputs beyond the sweep
bounds, and of the kernel memos."""

from collections import Counter
from itertools import permutations, product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polykron import (
    GAMMA,
    Composition,
    Partition,
    SchurExpansion,
    characters,
    dimension,
    internal_h_oracle,
    internal_product,
    iter_contingency,
    kostka,
    kronecker,
    kronecker_oracle_expansion,
    lr_coeff,
    lr_oracle,
    partitions,
    schur,
    weyl_tensor_gamma,
)
from polykron.internal_product import _chain
from polykron.partitions import partitions_of
from polykron.schur import _product_terms, _skew_terms

# Reproducible draws, and no example database written next to the tests.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _sized(d):
    return st.sampled_from(partitions_of(d))


@st.composite
def factor_pairs(draw, max_total=10):
    total = draw(st.integers(0, max_total))
    a = draw(st.integers(0, total))
    return draw(_sized(a)), draw(_sized(total - a))


@st.composite
def lr_triples(draw, max_total=10):
    mu, nu = draw(factor_pairs(max_total))
    outers = [
        p for p in partitions_of(mu.size + nu.size) if p.contains(mu) and p.contains(nu)
    ]
    return draw(st.sampled_from(outers)), mu, nu


@st.composite
def skew_shapes(draw, max_outer=12, max_skew=10):
    outer = draw(st.integers(0, max_outer).flatmap(_sized))
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
def _compositions(draw, d, max_parts=5):
    # n - 1 sorted cut points give every composition of d with n entries.
    n = draw(st.integers(1, max_parts))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return Composition(b - a for a, b in zip([0] + cuts, cuts + [d]))


@st.composite
def same_degree_pairs(draw, min_d=7, max_d=12):
    d = draw(st.integers(min_d, max_d))
    return draw(_sized(d)), draw(_sized(d))


@st.composite
def same_degree_triples(draw, min_d=7, max_d=12):
    d = draw(st.integers(min_d, max_d))
    return draw(_sized(d)), draw(_sized(d)), draw(_sized(d))


@st.composite
def margin_pairs(draw, max_d=10):
    d = draw(st.integers(0, max_d))
    return draw(_compositions(d)), draw(_compositions(d))


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


@PROPERTY
@given(factor_pairs())
def test_product_terms_match_the_oracle(pair):
    mu, nu = pair
    want = {}
    for lam in partitions_of(mu.size + nu.size):
        c = lr_oracle(lam, mu, nu)
        if c:
            want[lam.parts] = c
    assert _product_terms(mu.parts, nu.parts) == want


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
    for beta in partitions_of(outer.size - inner.size):
        c = lr_oracle(outer, inner, beta)
        if c:
            want[beta.parts] = c
    assert _skew_terms(outer.parts, inner.parts) == want


@PROPERTY
@given(weyl_cases())
def test_weyl_chain_ignores_step_order_and_zeros(case):
    lam, nu, shuffled = case
    got = weyl_tensor_gamma(lam, Composition(nu))
    # The chain run in the drawn order, zero steps included, without the
    # canonical memo key that weyl_tensor_gamma uses.
    unsorted = _chain(lam.parts, tuple((x, GAMMA) for x in shuffled))
    assert SchurExpansion._from_parts(lam.size, unsorted) == got
    assert weyl_tensor_gamma(lam, Composition(shuffled)) == got
    assert got == internal_h_oracle(lam, Composition(nu))


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


@settings(PROPERTY, max_examples=20)
@given(same_degree_triples())
@example((Partition([5, 4, 3]), Partition([4, 3, 2, 2, 1]), Partition([4, 4, 2, 1, 1])))
def test_kronecker_coefficient_is_symmetric_in_all_three_arguments(triple):
    lam, mu, alpha = triple
    want = kronecker(lam, mu)[0].coefficient(alpha)
    for a, b, c in permutations(triple):
        assert kronecker(a, b)[0].coefficient(c) == want


def test_kronecker_is_unchanged_after_clearing_every_kernel_memo():
    memos = {
        id(fn): fn
        for module in (partitions, schur, characters, internal_product)
        for fn in vars(module).values()
        if hasattr(fn, "cache_clear")
    }.values()
    names = {fn.__name__ for fn in memos}
    assert {"_count_fillings", "_product_terms", "_skew_terms", "_chain"} <= names
    lam, mu = Partition([5, 4, 3]), Partition([4, 3, 2, 2, 1])
    before, _ = kronecker(lam, mu)
    for fn in memos:
        fn.cache_clear()
    assert all(fn.cache_info().currsize == 0 for fn in memos)
    assert kronecker(lam, mu)[0] == before
    # A repeated call is answered from the chain memo.
    hits = internal_product._chain.cache_info().hits
    assert kronecker(lam, mu)[0] == before
    assert internal_product._chain.cache_info().hits > hits


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


def test_the_oracle_never_runs_the_tableau_engine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the tableau engine")

    for name in ("_grow", "_tally_skew", "_count_fillings", "_product_terms", "_skew_terms"):
        monkeypatch.setattr(schur, name, forbidden)
    lam, mu = Partition([3, 2, 1]), Partition([4, 2])
    assert lr_oracle(lam, Partition([2, 1]), Partition([2, 1])) == 2
    assert internal_h_oracle(lam, Composition([3, 0, 3])).coefficient(lam) == 8
    assert kronecker_oracle_expansion(lam, mu).coefficient(Partition([4, 1, 1])) == 2

