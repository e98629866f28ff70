"""Property tests of the LR kernel and the Weyl chain against the character
oracle, on random inputs beyond the sweep bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from polykron import (
    GAMMA,
    Composition,
    Partition,
    SchurExpansion,
    internal_h_oracle,
    kronecker_oracle_expansion,
    lr_oracle,
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


def test_the_oracle_never_runs_the_tableau_engine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the tableau engine")

    for name in ("_grow", "_tally_skew", "_count_fillings", "_product_terms", "_skew_terms"):
        monkeypatch.setattr(schur, name, forbidden)
    lam, mu = Partition([3, 2, 1]), Partition([4, 2])
    assert lr_oracle(lam, Partition([2, 1]), Partition([2, 1])) == 2
    assert internal_h_oracle(lam, Composition([3, 0, 3])).coefficient(lam) == 8
    assert kronecker_oracle_expansion(lam, mu).coefficient(Partition([4, 1, 1])) == 2

