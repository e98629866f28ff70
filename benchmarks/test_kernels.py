"""Microbenchmarks of the Weyl chain, the general Kronecker product and the
LR product kernel, cold and warm.

Run with ``pytest benchmarks/`` (pytest-benchmark); the default ``pytest``
run collects only ``tests/``.  A cold round clears every kernel memo first,
so it pays for all the LR products the call needs; a warm round is answered
by memos that an untimed call filled.
"""

import pytest

from polykron import Partition, characters, internal_product, kronecker_general, partitions, schur
from polykron.internal_product import _chain, _gamma_steps
from polykron.schur import _product_terms

MEMOS = {
    id(fn): fn
    for module in (partitions, schur, characters, internal_product)
    for fn in vars(module).values()
    if hasattr(fn, "cache_clear")
}.values()


def clear_memos():
    for fn in MEMOS:
        fn.cache_clear()


def measure(benchmark, mode, fn, *args):
    if mode == "cold":
        return benchmark.pedantic(fn, args=args, setup=clear_memos, rounds=3)
    fn(*args)
    return benchmark(fn, *args)


MODES = pytest.mark.parametrize("mode", ["cold", "warm"])


@MODES
@pytest.mark.parametrize("parts", [(5, 4, 3, 2)], ids=["d14"])
def test_chain(benchmark, mode, parts):
    # The chain of the leading Jacobi-Trudi term h_mu of mu = lam.
    steps = _gamma_steps(Partition(parts))
    measure(benchmark, mode, _chain, parts, steps)


@MODES
@pytest.mark.parametrize("parts", [(5, 4, 3, 2), (6, 4, 3, 2, 1)], ids=["d14", "d16"])
def test_kronecker_general(benchmark, mode, parts):
    lam = Partition(parts)
    measure(benchmark, mode, kronecker_general, lam, lam)


@MODES
@pytest.mark.parametrize("mu, nu", [((4, 3, 2, 1), (3, 2, 1))], ids=["d16"])
def test_product_terms(benchmark, mode, mu, nu):
    measure(benchmark, mode, _product_terms, mu, nu)
