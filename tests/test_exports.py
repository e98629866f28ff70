import importlib

import pytest

import polykron

# Public wrappers that duplicated a path the package keeps, and what replaces
# each of them.
RETIRED = {
    "ClassFunction": "perm_row(nu.sorted_parts()), aligned with partitions_of(d)",
    "perm_character": "perm_row(nu.sorted_parts()), aligned with partitions_of(d)",
    "kronecker_oracle": "kronecker_oracle_expansion(lam, mu).coefficient(alpha)",
    "enumerate_contingency": "list(iter_contingency(mu, lam))",
    "conjugate_expansion": "SchurExpansion.conjugate()",
    "kronecker_two_row": "kronecker_general(lam, Partition((a, b)))",
    "enumerate_partitions": "list(partitions_of(d))",
    # The --cache file: loading recomputed every entry, so it saved no time.
    "load_cache": "nothing; every memo table lives in polykron._memo.MEMOS",
    "save_cache": "nothing; every memo table lives in polykron._memo.MEMOS",
    "CACHE_VERSION": "nothing; --cache reads and writes no file",
}
# Alternate spellings on the value classes, each with the spelling that stays.
RETIRED_METHODS = {
    ("SchurExpansion", "zero"): "SchurExpansion(d)",
    ("Composition", "sorted_partition"): "Partition(c.sorted_parts())",
}
MODULES = ("partitions", "schur", "characters", "internal_product", "sweeps", "cli")


def test_every_exported_name_resolves():
    for name in polykron.__all__:
        assert getattr(polykron, name) is not None, name
    namespace = {}
    exec("from polykron import *", namespace)
    assert set(polykron.__all__) <= set(namespace)


def test_export_list_has_no_duplicates():
    assert len(polykron.__all__) == len(set(polykron.__all__))


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_wrapper_is_gone(name):
    assert name not in polykron.__all__
    assert not hasattr(polykron, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"polykron.{module}"), name)


@pytest.mark.parametrize("cls, name", sorted(RETIRED_METHODS))
def test_retired_method_is_gone(cls, name):
    assert not hasattr(getattr(polykron, cls), name)
