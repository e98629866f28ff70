"""Microbenchmarks of the Weyl chain and its dual read, the Jacobi-Trudi fold,
the general Kronecker product (and the costliest query of a kron-batch
seed), a long-leg hook pair by the hook chain and by the fold that `auto`
sends it to, the LR product kernel and its conjugate redirect, Schur outer
products, the partitions between two shapes, the Jacobi-Trudi terms, skew
Schur expansions, the character oracle and one character row, Kostka
numbers, the contingency enumerator (public matrices and bare rows tuples)
and its divided-power product, cold and warm, and a cold contingency sweep.

Run with ``pytest benchmarks/`` (pytest-benchmark); the default ``pytest``
run collects only ``tests/``.  A cold round empties every memo table in the
registry first (``_memo.clear_all``), so it pays for all the LR products the
call needs; a warm round is answered by memos that an untimed call filled.
The d = 18 and d = 20 cases compare the general algorithm with the oracle it
is checked against.
"""

import pytest

from polykron import (
    Composition,
    Partition,
    SchurExpansion,
    SkewShape,
    gamma_tensor_gamma,
    iter_contingency,
    jacobi_trudi,
    kostka,
    kronecker_general,
    kronecker_hook,
    kronecker_oracle_expansion,
    schur_outer_product,
    skew_schur_expansion,
    sweeps,
    weyl_tensor_wedge,
)
from polykron._memo import clear_all
from polykron.characters import character_row
from polykron.internal_product import _chain, _fold, _steps
from polykron.partitions import _contingency_rows, _partitions_between, partitions_of
from polykron.schur import _product_terms


def measure(benchmark, mode, fn, *args):
    if mode == "cold":
        return benchmark.pedantic(fn, args=args, setup=clear_all, rounds=3)
    fn(*args)
    return benchmark(fn, *args)


MODES = pytest.mark.parametrize("mode", ["cold", "warm"])


@MODES
@pytest.mark.parametrize("parts", [(5, 4, 3, 2)], ids=["d14"])
def test_chain(benchmark, mode, parts):
    # The single chain of the leading Jacobi-Trudi term h_mu of mu = lam.
    measure(benchmark, mode, _chain, parts, _steps(parts, ()))


@MODES
@pytest.mark.parametrize("parts", [(5, 4, 3, 2)], ids=["d14"])
def test_fold(benchmark, mode, parts):
    # The d14 square's whole determinant folded along lam by column masks.
    measure(benchmark, mode, _fold, parts, parts)


@MODES
@pytest.mark.parametrize(
    "parts",
    [(5, 4, 3, 2), (6, 4, 3, 2, 1), (6, 5, 4, 2, 1), (7, 5, 4, 2, 1, 1)],
    ids=["d14", "d16", "d18", "d20"],
)
def test_kronecker_general(benchmark, mode, parts):
    lam = Partition(parts)
    measure(benchmark, mode, kronecker_general, lam, lam)


@MODES
@pytest.mark.parametrize(
    "lam, mu", [((9, 3, 2, 1), (4, 4, 4, 3)), ((4, 4, 4, 3), (9, 3, 2, 1))], ids=["lam-mu", "mu-lam"]
)
def test_kronecker_general_either_order(benchmark, mode, lam, mu):
    # Both orders fold (9,3,2,1) along (4,4,4,3), the orientation with the
    # lowest fold estimate, so their times match.
    measure(benchmark, mode, kronecker_general, Partition(lam), Partition(mu))


@MODES
@pytest.mark.parametrize(
    "mu, nu", [((4, 3, 2, 1), (3, 2, 1)), ((5, 4, 2, 1), (3, 2, 1))], ids=["d16", "d18"]
)
def test_product_terms(benchmark, mode, mu, nu):
    measure(benchmark, mode, _product_terms, mu, nu)


@MODES
def test_schur_outer_product(benchmark, mode):
    # Two signed three-term expansions of degree 8.  Cold, the nine LR
    # products are walked; warm, the time is the multiply-accumulate alone.
    a = SchurExpansion(8, {(4, 3, 1): 3, (3, 3, 2): -2, (5, 2, 1): 1})
    b = SchurExpansion(8, {(4, 2, 2): 1, (3, 2, 2, 1): -4, (6, 1, 1): 2})
    measure(benchmark, mode, schur_outer_product, a, b)


def test_kronecker_general_costliest_batch_query(benchmark):
    # The costliest query of the kron-batch workload's seed 1, from cold
    # memos: most of its time is LR walks and chain steps.
    lam, mu = Partition([5, 3, 3, 2, 2]), Partition([8, 3, 3, 1])
    measure(benchmark, "cold", kronecker_general, lam, mu)


@pytest.mark.parametrize("path", ["hook", "general"])
def test_long_leg_hook_pair(benchmark, path):
    # A typical reference hook pair with leg q = 9 > 4, from cold memos:
    # its q + 1 hook chains against one fold, the reason `auto` folds hooks.
    lam = Partition([5, 5, 3, 1])
    if path == "hook":
        measure(benchmark, "cold", kronecker_hook, lam, 5, 9)
    else:
        measure(benchmark, "cold", kronecker_general, lam, Partition([5] + [1] * 9))


def test_partitions_between(benchmark):
    # The partitions of 9 inside (6,5,4), as a fold estimate or a skew
    # expansion asks them.
    measure(benchmark, "cold", _partitions_between, (), (6, 5, 4), 9)


def test_jacobi_trudi(benchmark):
    # The 144 terms of a six-row determinant; jacobi_trudi has no memo.
    measure(benchmark, "cold", jacobi_trudi, Partition([6, 5, 4, 3, 2, 1]))


def product_then_conjugate(mu, nu):
    _product_terms(mu, nu)
    return _product_terms(Partition(mu).conjugate().parts, Partition(nu).conjugate().parts)


@pytest.mark.parametrize("mu, nu", [((5, 4, 2, 1), (3, 2, 1))], ids=["d18"])
def test_product_terms_then_its_conjugate(benchmark, mu, nu):
    # Cold, one walk answers both calls: the conjugate pair reads it through
    # the conjugation permutation, so the gap to the cold test_product_terms
    # case is the redirect's cost.
    benchmark.pedantic(product_then_conjugate, args=(mu, nu), setup=clear_all, rounds=3)


@MODES
@pytest.mark.parametrize("parts", [(5, 4, 3, 2)], ids=["d14"])
def test_weyl_tensor_wedge(benchmark, mode, parts):
    # The Gamma chain of lam along its own rows, its entry at lam read
    # through the conjugation permutation.
    measure(benchmark, mode, weyl_tensor_wedge, Partition(parts), Composition(parts))


@MODES
@pytest.mark.parametrize(
    "outer, inner", [((5, 4, 3, 2), (3, 1)), ((6, 5, 4, 2, 1), (3, 2, 1))], ids=["d14", "d18"]
)
def test_skew_schur_expansion(benchmark, mode, outer, inner):
    # Cold, every c^outer_{inner,beta} comes from a product s_inner * s_beta.
    shape = SkewShape(Partition(outer), Partition(inner))
    measure(benchmark, mode, skew_schur_expansion, shape)


@MODES
@pytest.mark.parametrize("parts", [(6, 5, 4, 2, 1), (7, 5, 4, 2, 1, 1)], ids=["d18", "d20"])
def test_kronecker_oracle_expansion(benchmark, mode, parts):
    lam = Partition(parts)
    measure(benchmark, mode, kronecker_oracle_expansion, lam, lam)


@MODES
@pytest.mark.parametrize("parts", [(6, 4, 3, 2, 1), (6, 5, 4, 2, 1)], ids=["d16", "d18"])
def test_character_row(benchmark, mode, parts):
    # Cold, the row fills the Murnaghan-Nakayama memo for its shape.
    measure(benchmark, mode, character_row, parts)


def kostka_table(shapes, contents):
    return [kostka(lam, nu) for nu in contents for lam in shapes]


@MODES
def test_kostka_jacobi_trudi_contents(benchmark, mode):
    # Every content of a Jacobi-Trudi term at d = 10 against every shape,
    # as the JT sweep asks them.
    shapes = partitions_of(10)
    contents = [nu for mu in shapes for _, nu in jacobi_trudi(mu)]
    measure(benchmark, mode, kostka_table, shapes, contents)


def count_matrices(mu, lam):
    return sum(1 for _ in iter_contingency(mu, lam))


def count_rows(sums, cols):
    return sum(1 for _ in _contingency_rows(sums, cols))


MARGINS = pytest.mark.parametrize(
    "mu, lam",
    [
        ((2, 2, 2, 2), (3, 2, 2, 1)),
        # Two rows: _prefixes at depth 0 yields the one empty prefix, and
        # the closing loop does all the work.
        ((10, 10), (4, 4, 3, 3, 2, 2, 1, 1)),
        # Three rows: row 0 is walked by _prefixes at depth 1, and rows 1-2
        # are closed from a pair table.
        ((4, 4, 4), (2, 2, 2, 2, 2, 2)),
        # Five rows: row 0 is walked in _prefixes' one frame, rows 1-2 in
        # the nested loops, and rows 3-4 are closed from a pair table.
        ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2)),
    ],
    ids=["d8", "d20-2rows", "d12-3rows", "d10-5rows"],
)


@MODES
@MARGINS
def test_contingency_count(benchmark, mode, mu, lam):
    measure(benchmark, mode, count_matrices, Composition(mu), Composition(lam))


@MODES
@MARGINS
def test_contingency_rows_count(benchmark, mode, mu, lam):
    # The rows tuples alone, as the contingency sweep counts them.
    measure(benchmark, mode, count_rows, mu, lam)


def test_sweep_contingency(benchmark):
    # Cold, a smaller contingency sweep: count pairs up to d = 7, character
    # pairs up to d = 6, with the Kostka rows and row-vector pairs rebuilt.
    result = benchmark.pedantic(sweeps.sweep_contingency, args=(7,), setup=clear_all, rounds=3)
    assert result.ok


@MODES
def test_gamma_tensor_gamma(benchmark, mode):
    # A d = 6 pair with 4 x 4 margins, as the contingency sweep's character
    # half asks it.
    mu, lam = Composition([2, 2, 1, 1]), Composition([3, 1, 1, 1])
    measure(benchmark, mode, gamma_tensor_gamma, mu, lam)
