from itertools import permutations
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykron import (
    Composition,
    ConsistencyError,
    DegreeMismatchError,
    Partition,
    centralizer_order,
    characters,
    class_size,
    dimension,
    internal_h_oracle,
    kostka,
    kronecker_oracle_expansion,
    lr_oracle,
    mn_character,
)
from polykron._memo import clear_all
from polykron.characters import character_row, perm_row
from polykron.partitions import enumerate_compositions, partitions_of


def P(*parts):
    return Partition(parts)


def C(*entries):
    return Composition(entries)


def _plant_one_wrong_value(monkeypatch):
    """Make the oracles pass _class_sums a row whose last value (the
    identity class) is one too large, so no class sum is divisible by d!."""
    real = characters._class_sums

    def planted(lam, values):
        values = list(values)
        values[-1] += 1
        return real(lam, values)

    monkeypatch.setattr(characters, "_class_sums", planted)


def _reference_strip_removals(parts, length):
    """Yield (sign, smaller Partition) for each removable border strip, by
    beta numbers: the Partition-based recursion the tuple kernel replaced."""
    n = len(parts)
    betas = [parts[i] + n - 1 - i for i in range(n)]
    beta_set = set(betas)
    for b in betas:
        nb = b - length
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_betas = sorted((x for x in betas if x != b), reverse=True)
        new_betas.append(nb)
        new_betas.sort(reverse=True)
        new_parts = [new_betas[j] - (n - 1 - j) for j in range(n)]
        yield (-1) ** height, Partition(new_parts)


def reference_character(lam, rho, memo):
    """chi_lam(rho) by the Murnaghan-Nakayama rule on Partition objects,
    memoised in the caller's dict: the reference for mn_character."""
    if lam.size == 0:
        return 1
    key = (lam, rho)
    if key not in memo:
        rest = Partition(rho.parts[1:])
        memo[key] = sum(
            sign * reference_character(smaller, rest, memo)
            for sign, smaller in _reference_strip_removals(lam.parts, rho.parts[0])
        )
    return memo[key]


def kronecker_class_sum(lam, mu, alpha):
    """The Kronecker coefficient of one target by its own class sum: the
    reference that kronecker_oracle_expansion is checked against."""
    d = lam.size
    total = sum(
        class_size(rho)
        * mn_character(lam, rho)
        * mn_character(mu, rho)
        * mn_character(alpha, rho)
        for rho in partitions_of(d)
    )
    q, r = divmod(total, factorial(d))
    assert r == 0
    return q


def g(lam, mu, alpha):
    return kronecker_oracle_expansion(lam, mu).coefficient(alpha)


def perm_values(nu):
    """The permutation character of nu as {cycle type: value}."""
    d = nu.degree
    return dict(zip(partitions_of(d), perm_row(nu.sorted_parts())))


class TestCentralizer:
    @pytest.mark.parametrize(
        "rho, z", [((1, 1, 1), 6), ((3,), 3), ((2, 1), 2), ((), 1), ((2, 2, 1, 1), 16)]
    )
    def test_fixtures(self, rho, z):
        assert centralizer_order(Partition(rho)) == z

    def test_class_sizes_sum_to_group_order(self):
        for d in range(0, 9):
            assert sum(class_size(rho) for rho in partitions_of(d)) == factorial(d)


class TestMNCharacter:
    def test_trivial_character(self):
        for d in range(0, 8):
            for rho in partitions_of(d):
                assert mn_character(Partition([d] if d else []), rho) == 1

    def test_d3_table(self):
        classes = [P(1, 1, 1), P(2, 1), P(3)]
        table = {
            P(3): [1, 1, 1],
            P(2, 1): [2, 0, -1],
            P(1, 1, 1): [1, -1, 1],
        }
        for lam, row in table.items():
            assert [mn_character(lam, rho) for rho in classes] == row

    def test_column_orthogonality_d3(self):
        classes = partitions_of(3)
        for r1 in classes:
            for r2 in classes:
                total = sum(
                    mn_character(lam, r1) * mn_character(lam, r2)
                    for lam in partitions_of(3)
                )
                assert total == (centralizer_order(r1) if r1 == r2 else 0)

    def test_sign_character(self):
        sign = P(1, 1, 1, 1)
        for rho in partitions_of(4):
            expected = (-1) ** (4 - len(rho))
            assert mn_character(sign, rho) == expected

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            mn_character(P(2), P(3))


@pytest.mark.parametrize("d", range(11))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mn_character_matches_the_reference_cold_and_warm(d, seed):
    # Every (lam, rho) of degree d, asked in a drawn order on empty memos and
    # then again on full ones; the rows must hold the same values.
    shapes = partitions_of(d)
    memo = {}
    want = {(lam, rho): reference_character(lam, rho, memo) for lam in shapes for rho in shapes}
    order = list(want)
    Random(seed).shuffle(order)
    clear_all()
    assert [mn_character(lam, rho) for lam, rho in order] == [want[k] for k in order]
    assert [mn_character(lam, rho) for lam, rho in order] == [want[k] for k in order]
    for lam in shapes:
        assert character_row(lam.parts) == tuple(want[lam, rho] for rho in shapes)
    clear_all()
    for lam in shapes:
        assert character_row(lam.parts) == tuple(want[lam, rho] for rho in shapes)


class TestDimension:
    @pytest.mark.parametrize("lam, f", [((5,), 1), ((2, 1), 2), ((2, 2), 2), ((3, 2), 5)])
    def test_fixtures(self, lam, f):
        assert dimension(Partition(lam)) == f

    def test_matches_character_at_identity(self):
        for d in range(0, 8):
            ones = Partition([1] * d)
            for lam in partitions_of(d):
                assert dimension(lam) == mn_character(lam, ones)


class TestKroneckerOracle:
    def test_trivial_factor(self):
        for d in range(0, 6):
            triv = Partition([d] if d else [])
            for mu in partitions_of(d):
                for alpha in partitions_of(d):
                    expected = 1 if mu == alpha else 0
                    assert g(triv, mu, alpha) == expected

    def test_staircase_cube(self):
        assert g(P(2, 1), P(2, 1), P(2, 1)) == 1

    def test_sign_twist(self):
        for d in range(1, 6):
            sign = Partition([1] * d)
            for mu in partitions_of(d):
                for alpha in partitions_of(d):
                    expected = 1 if mu.conjugate() == alpha else 0
                    assert g(sign, mu, alpha) == expected

    def test_symmetric_in_all_arguments(self):
        for d in range(0, 6):
            parts = partitions_of(d)
            for lam in parts:
                for mu in parts:
                    for alpha in parts:
                        want = g(lam, mu, alpha)
                        for triple in permutations((lam, mu, alpha)):
                            assert g(*triple) == want
                        assert g(lam.conjugate(), mu.conjugate(), alpha) == want

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError, match="sizes 2 and 1"):
            kronecker_oracle_expansion(P(2), P(1))

    def test_indivisible_class_sum_raises(self, monkeypatch):
        _plant_one_wrong_value(monkeypatch)
        with pytest.raises(ConsistencyError) as exc:
            kronecker_oracle_expansion(P(2, 1), P(2, 1))
        assert str(exc.value) == "kronecker class sum 8 is not divisible by 3! for (2,1, 2,1, 3)"

    def test_expansion_matches_single_coefficients(self):
        for d in range(0, 8):
            parts = partitions_of(d)
            for lam in parts:
                for mu in parts:
                    expansion = kronecker_oracle_expansion(lam, mu)
                    for alpha in parts:
                        want = kronecker_class_sum(lam, mu, alpha)
                        assert expansion.coefficient(alpha) == want


class TestPermCharacter:
    def test_trivial_module(self):
        assert perm_row((5,)) == (1,) * len(partitions_of(5))

    def test_regular_module(self):
        for d in range(1, 6):
            pc = perm_values(Composition([1] * d))
            for rho in partitions_of(d):
                expected = factorial(d) if rho == Partition([1] * d) else 0
                assert pc[rho] == expected

    def test_fixture(self):
        assert perm_values(C(2, 1))[P(1, 1, 1)] == 3

    def test_zeros_do_not_matter(self):
        assert perm_values(C(2, 0, 1)) == perm_values(C(2, 1))
        assert perm_values(C(1, 0, 2)) == perm_values(C(2, 1))

    def test_young_rule(self):
        # the permutation character is the Kostka-weighted sum of irreducibles
        for d in range(0, 9):
            for nu_part in partitions_of(d):
                nu = Composition(nu_part.parts)
                pc = perm_values(nu)
                for rho in partitions_of(d):
                    total = sum(
                        kostka(lam, nu) * mn_character(lam, rho)
                        for lam in partitions_of(d)
                    )
                    assert pc[rho] == total

    def test_row_is_the_character_on_partitions_of_d(self):
        # Young's rule for every composition, zeros and order included: the
        # row of its sorted parts is aligned with partitions_of(d).
        for d in range(0, 7):
            parts = partitions_of(d)
            for n in range(0, d + 2):
                for nu in enumerate_compositions(d, n):
                    row = perm_row(nu.sorted_parts())
                    assert row == tuple(
                        sum(kostka(lam, nu) * mn_character(lam, rho) for lam in parts)
                        for rho in parts
                    )


class TestLROracle:
    def test_unit(self):
        for d in range(0, 6):
            for lam in partitions_of(d):
                assert lr_oracle(lam, lam, P()) == 1

    def test_fixtures(self):
        assert lr_oracle(P(2, 1), P(1), P(1, 1)) == 1
        assert lr_oracle(P(2, 1), P(2), P(1)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            lr_oracle(P(3), P(1), P(1))


class TestInternalHOracle:
    def test_trivial_weight(self):
        for d in range(0, 6):
            for lam in partitions_of(d):
                got = internal_h_oracle(lam, Composition([d] if d else []))
                assert got.terms == {lam: 1}

    def test_staircase_fixture(self):
        got = internal_h_oracle(P(2, 1), C(2, 1))
        assert got.terms == {P(3): 1, P(2, 1): 2, P(1, 1, 1): 1}

    def test_regular_weight_fixture(self):
        got = internal_h_oracle(P(3), C(1, 1, 1))
        assert got.terms == {P(3): 1, P(2, 1): 2, P(1, 1, 1): 1}

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            internal_h_oracle(P(2), C(3))

    def test_indivisible_class_sum_raises(self, monkeypatch):
        _plant_one_wrong_value(monkeypatch)
        with pytest.raises(ConsistencyError) as exc:
            internal_h_oracle(P(2, 1), C(1, 2))
        assert str(exc.value) == "class sum 8 is not divisible by 3! for (2,1, weight 1,2, 3)"

    def test_matches_the_class_sum_per_target(self):
        # One class sum per (beta, rho), nothing shared between targets.
        for d in range(0, 7):
            parts = partitions_of(d)
            weights = [Composition(p.parts) for p in parts] + [C(*([1] * d), 0)]
            for lam in parts:
                for nu in weights:
                    pc = perm_values(nu)
                    want = {}
                    for beta in parts:
                        total = sum(
                            class_size(rho)
                            * mn_character(lam, rho)
                            * pc[rho]
                            * mn_character(beta, rho)
                            for rho in parts
                        )
                        q, r = divmod(total, factorial(d))
                        assert r == 0
                        if q:
                            want[beta] = q
                    assert internal_h_oracle(lam, nu).terms == want
