"""The sweeps can fail: each one, fed a computation with one planted error,
reports that error as its first counterexample, with the number of the check
that failed.  Each sweep takes its degree bound alone, and `run_suites` takes
one suite name or "all" and rejects any other before a sweep runs."""

import inspect

import pytest

from polykron import (
    GAMMA,
    SYM,
    WEDGE,
    CharTwoMode,
    Composition,
    ExpDecomposition,
    ExpFunctor,
    Partition,
    SchurExpansion,
    sweeps,
)

MU, LAM = Composition([2, 1]), Composition([1, 2])
P21, P211 = Partition([2, 1]), Partition([2, 1, 1])
# The degree bound each sweep runs at by default, as in `oracle-check`.
DEFAULT_MAX_D = {"kron": 6, "fastpath": 8, "contingency": 8, "weyl": 7, "exptable": 6,
                 "jt": 8, "chars": 8, "dims": 8, "lr": 7}


def _plant(monkeypatch, name, at, wrong):
    """Replace the name `sweeps` imported by a function that returns
    wrong(real result) for the positional arguments `at`."""
    real = getattr(sweeps, name)

    def planted(*args):
        got = real(*args)
        return wrong(got) if args == at else got

    monkeypatch.setattr(sweeps, name, planted)


def _plus_one_row(expansion):
    """The expansion plus s_(d): a wrong but non-negative answer."""
    return expansion + SchurExpansion.single(Partition([expansion.degree]))


def _plant_summands(monkeypatch, wrong):
    """Replace the gamma_tensor_gamma that `sweeps` imported by one whose
    summands are wrong(real summands) at (MU, LAM)."""
    real = sweeps.gamma_tensor_gamma

    def planted(mu, lam):
        got = real(mu, lam)
        if (mu, lam) == (MU, LAM):
            return ExpDecomposition(GAMMA, wrong(got.summands))
        return got

    monkeypatch.setattr(sweeps, "gamma_tensor_gamma", planted)


def test_contingency_count_fails_without_one_summand(monkeypatch):
    # A pair whose characters are checked is counted by its summands.
    _plant_summands(monkeypatch, lambda summands: summands[:-1])
    result = sweeps.sweep_contingency(4)
    assert not result.ok
    assert result.failure == "count mu=2,1 lambda=1,2: 1 != 2"


def test_contingency_characters_fail_with_one_summand_repeated(monkeypatch):
    # The count stays right, so only the characters can tell.
    _plant_summands(monkeypatch, lambda summands: (summands[0], summands[0]))
    result = sweeps.sweep_contingency(4)
    assert not result.ok
    assert result.failure == "characters mu=2,1 lambda=1,2"


def test_contingency_count_fails_without_one_matrix(monkeypatch):
    # Above d = 6 the count reads the bare enumerator; (7) x (7) is the
    # first pair there, after every pair of d <= 6 ran both its checks.
    real = sweeps._contingency_rows

    def skip_one(sums, cols):
        matrices = real(sums, cols)
        if (sums, cols) == ((7,), (7,)):
            next(matrices)
        return matrices

    monkeypatch.setattr(sweeps, "_contingency_rows", skip_one)
    assert sweeps.sweep_contingency(7).line() == (
        "contingency: FAIL (52667 checks) first counterexample: count mu=7 lambda=7: 0 != 1"
    )


def test_contingency_count_fails_with_one_wrong_kostka_row(monkeypatch):
    # Only the content (1,2) is wrong, not its permutation (2,1): the sweep
    # must ask each weight's own Kostka row, not share one per block sizes.
    # Each pair before it ran its count and its characters checks.
    _plant(monkeypatch, "kostka", (Partition([3]), LAM), lambda k: k + 1)
    assert sweeps.sweep_contingency(4).line() == (
        "contingency: FAIL (1039 checks) first counterexample: count mu=3 lambda=1,2: 1 != 2"
    )


def test_jacobi_trudi_fails_with_one_sign_flipped(monkeypatch):
    real = sweeps.jacobi_trudi

    def flip_one(mu):
        terms = real(mu)
        if mu == Partition([2, 1]):
            (sign, nu), *rest = terms
            return [(-sign, nu), *rest]
        return terms

    monkeypatch.setattr(sweeps, "jacobi_trudi", flip_one)
    result = sweeps.sweep_jt(4)
    assert not result.ok
    assert result.failure.startswith("mu=2,1: ")


def test_kron_fails_with_one_wrong_product(monkeypatch):
    _plant(monkeypatch, "kronecker_general", (P21, P21), _plus_one_row)
    assert sweeps.sweep_kron(3).line() == (
        "kron: FAIL (11 checks) first counterexample: lambda=2,1 mu=2,1: "
        "SchurExpansion(3, 2*s(3) + 1*s(2,1) + 1*s(1,1,1)) != "
        "SchurExpansion(3, 1*s(3) + 1*s(2,1) + 1*s(1,1,1))"
    )


def test_fixture_fails_with_one_wrong_path(monkeypatch):
    _plant(monkeypatch, "kronecker_one_box", (P21, 2), _plus_one_row)
    assert sweeps.sweep_fixture().line() == (
        "fixture: FAIL (3 checks) first counterexample: one-box path produced "
        "SchurExpansion(3, 2*s(3) + 1*s(2,1) + 1*s(1,1,1))"
    )


def test_fastpath_fails_with_one_wrong_two_row_product(monkeypatch):
    _plant(monkeypatch, "kronecker_general", (P211, Partition([2, 2])), _plus_one_row)
    assert sweeps.sweep_fastpath(4).line() == (
        "fastpath: FAIL (38 checks) first counterexample: two-row lambda=2,1,1 mu=(2,2): "
        "SchurExpansion(4, 1*s(4) + 1*s(3,1) + 1*s(2,1,1)) != "
        "SchurExpansion(4, 1*s(3,1) + 1*s(2,1,1))"
    )


def test_fastpath_fails_with_one_wrong_hook_product(monkeypatch):
    _plant(monkeypatch, "kronecker_hook", (P211, 2, 2), _plus_one_row)
    assert sweeps.sweep_fastpath(4).line() == (
        "fastpath: FAIL (40 checks) first counterexample: hook lambda=2,1,1 mu=(2,1^2): "
        "SchurExpansion(4, 2*s(4) + 1*s(3,1) + 1*s(2,2) + 1*s(2,1,1)) != "
        "SchurExpansion(4, 1*s(4) + 1*s(3,1) + 1*s(2,2) + 1*s(2,1,1))"
    )


def test_fastpath_fails_with_one_wrong_one_box_product(monkeypatch):
    _plant(monkeypatch, "kronecker_one_box", (P211, 3), _plus_one_row)
    assert sweeps.sweep_fastpath(4).line() == (
        "fastpath: FAIL (42 checks) first counterexample: one-box lambda=2,1,1 a=3: "
        "SchurExpansion(4, 1*s(4) + 1*s(3,1) + 1*s(2,2) + 1*s(2,1,1) + 1*s(1,1,1,1)) != "
        "SchurExpansion(4, 1*s(3,1) + 1*s(2,2) + 1*s(2,1,1) + 1*s(1,1,1,1))"
    )


def test_weyl_fails_with_one_negative_filtration(monkeypatch):
    _plant(monkeypatch, "weyl_tensor_gamma", (P21, LAM), lambda e: -e)
    assert sweeps.sweep_weyl(3).line() == (
        "weyl: FAIL (93 checks) first counterexample: negative coefficient lambda=2,1 nu=1,2"
    )


def test_weyl_fails_with_one_filtration_off_the_oracle(monkeypatch):
    _plant(monkeypatch, "weyl_tensor_gamma", (P21, LAM), _plus_one_row)
    assert sweeps.sweep_weyl(3).line() == (
        "weyl: FAIL (93 checks) first counterexample: lambda=2,1 nu=1,2: "
        "SchurExpansion(3, 2*s(3) + 2*s(2,1) + 1*s(1,1,1)) != "
        "SchurExpansion(3, 1*s(3) + 2*s(2,1) + 1*s(1,1,1))"
    )


def test_weyl_fails_with_one_wrong_wedge_filtration(monkeypatch):
    # (1,1,1) reads the oracle value at (3) that the check of (3) computed.
    _plant(monkeypatch, "weyl_tensor_wedge", (Partition([1, 1, 1]), LAM), _plus_one_row)
    assert sweeps.sweep_weyl(3).line() == (
        "weyl: FAIL (128 checks) first counterexample: wedge lambda=1,1,1 nu=1,2: "
        "SchurExpansion(3, 2*s(3) + 1*s(2,1)) != SchurExpansion(3, 1*s(3) + 1*s(2,1))"
    )


def test_exptable_fails_without_one_summand(monkeypatch):
    wl, wr = Composition([1, 1]), Composition([2])
    _plant(monkeypatch, "exponential_tensor", (ExpFunctor(GAMMA, wl), ExpFunctor(SYM, wr)),
           lambda got: ExpDecomposition(got.family, got.summands[:-1]))
    assert sweeps.sweep_exptable(2).line() == (
        "exptable: FAIL (717 checks) first counterexample: Gamma^1,1 x Sym^2 gave "
        "ExpDecomposition(Sym, [])"
    )


def test_exptable_fails_with_one_wrong_family_when_two_is_zero(monkeypatch):
    wl, wr = Composition([1, 1]), Composition([2])
    at = (ExpFunctor(SYM, wl), ExpFunctor(WEDGE, wr), CharTwoMode.TWO_ZERO)
    _plant(monkeypatch, "exponential_tensor", at,
           lambda got: ExpDecomposition(WEDGE, got.summands))
    assert sweeps.sweep_exptable(2).line() == (
        "exptable: FAIL (725 checks) first counterexample: Sym^1,1 x Wedge^2 with 2=0 gave "
        "ExpDecomposition(Wedge, [1,1])"
    )


def test_exptable_fails_when_one_undefined_product_does_not_raise(monkeypatch):
    wl, wr = Composition([1, 1]), Composition([2])
    real = sweeps.exponential_tensor

    def no_raise(left, right, mode=CharTwoMode.TWO_INVERTIBLE):
        if (left, right, mode) == (
            ExpFunctor(SYM, wl), ExpFunctor(WEDGE, wr), CharTwoMode.TWO_NONZERO_NONUNIT
        ):
            mode = CharTwoMode.TWO_ZERO
        return real(left, right, mode)

    monkeypatch.setattr(sweeps, "exponential_tensor", no_raise)
    # The failing check is counted, one after the 2=0 check of this pair.
    assert sweeps.sweep_exptable(2).line() == (
        "exptable: FAIL (726 checks) first counterexample: Sym^1,1 x Wedge^2 "
        "did not raise for nonzero nonunit 2"
    )


def test_chars_fails_with_one_wrong_character(monkeypatch):
    _plant(monkeypatch, "mn_character", (P21, Partition([3])), lambda c: c + 1)
    assert sweeps.sweep_chars(3).line() == (
        "chars: FAIL (7 checks) first counterexample: lambda=3 mu=2,1: 2 != 0"
    )


def test_dims_fails_with_one_wrong_product(monkeypatch):
    _plant(monkeypatch, "kronecker", (P21, P21),
           lambda got: (_plus_one_row(got[0]), got[1]))
    assert sweeps.sweep_dims(3).line() == (
        "dims: FAIL (9 checks) first counterexample: lambda=2,1 mu=2,1: 5 != 4"
    )


def test_lr_fails_with_one_wrong_coefficient(monkeypatch):
    _plant(monkeypatch, "lr_coeff", (P21, Partition([1]), Partition([1, 1])), lambda c: c + 1)
    assert sweeps.sweep_lr(3).line() == (
        "lr: FAIL (28 checks) first counterexample: (2,1; 1, 1,1): 2 != 1"
    )


@pytest.mark.parametrize("suite", sweeps.SUITE_NAMES)
def test_every_sweep_takes_only_its_degree_bound(suite):
    # The part and character bounds are fixed in each sweep's body; the
    # degree is the one bound that run_suites and oracle-check set.
    params = inspect.signature(getattr(sweeps, f"sweep_{suite}")).parameters.values()
    want = [] if suite == "fixture" else [("max_d", DEFAULT_MAX_D[suite])]
    assert [(p.name, p.default) for p in params] == want


def test_run_suites_takes_one_name_and_checks_it_before_it_runs_a_sweep(monkeypatch):
    ran = []
    for suite in sweeps.SUITE_NAMES:
        monkeypatch.setattr(sweeps, f"sweep_{suite}", lambda *a, s=suite: ran.append((s, a)))
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        sweeps.run_suites("bogus")
    # The list form is gone: a list names no suite, even a list of one.
    with pytest.raises(ValueError, match=r"unknown suite \['fixture'\]"):
        sweeps.run_suites(["fixture"])
    with pytest.raises(ValueError):
        sweeps.run_suites(["all"])
    assert ran == []
    # max_d reaches every sweep but the fixture, which takes no bound.
    sweeps.run_suites("fixture", 3)
    sweeps.run_suites("contingency", 3)
    assert ran == [("fixture", ()), ("contingency", (3,))]
    ran.clear()
    sweeps.run_suites("all")
    assert ran == [(suite, ()) for suite in sweeps.SUITE_NAMES]
