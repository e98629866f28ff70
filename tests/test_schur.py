import random

import pytest

from polykron import (
    Composition,
    DegreeMismatchError,
    Partition,
    SchurExpansion,
    SkewShape,
    dimension,
    kostka,
    lr_coeff,
    schur_outer_product,
    skew_schur_expansion,
)
from polykron.partitions import partitions_of


def P(*parts):
    return Partition(parts)


def C(*entries):
    return Composition(entries)


def S(terms):
    degree = next(iter(terms)).size if terms else 0
    return SchurExpansion(degree, terms)


class TestSchurExpansion:
    def test_zero_coefficients_dropped(self):
        e = SchurExpansion(2, {P(2): 0, P(1, 1): 3})
        assert e.terms == {P(1, 1): 3}

    def test_equal_keys_are_summed(self):
        # A parts tuple and the equal Partition name one term, as in __add__.
        e = SchurExpansion(3, {(2, 1): 1, P(2, 1): 2})
        assert e.terms == {P(2, 1): 3}
        assert e == S({P(2, 1): 1}) + S({P(2, 1): 2})
        cancelled = SchurExpansion(3, {(2, 1): 1, P(2, 1): -1, (3,): 4})
        assert cancelled.terms == {P(3): 4}

    def test_coefficient_reads_a_parts_tuple_as_its_partition(self):
        # The key is normalised as in the constructor and __add__.
        e = SchurExpansion(2, {(1, 1): 1})
        assert e.coefficient((1, 1)) == e.coefficient(P(1, 1)) == 1
        assert e.coefficient((2,)) == 0
        with pytest.raises(ValueError):
            e.coefficient((1, 2))

    def test_repeated_pairs_are_summed(self):
        # Terms given as (key, coefficient) pairs sum like equal mapping keys.
        e = SchurExpansion(3, [((2, 1), 1), ((2, 1), 2)])
        assert e.terms == {P(2, 1): 3}
        cancelled = SchurExpansion(3, [(P(2, 1), 1), ((3,), 4), ((2, 1), -1)])
        assert cancelled.terms == {P(3): 4}

    def test_wrong_degree_key_rejected(self):
        with pytest.raises(DegreeMismatchError):
            SchurExpansion(2, {P(3): 1})

    def test_arithmetic(self):
        a = S({P(2): 1, P(1, 1): 2})
        b = S({P(2): -1})
        assert (a + b).terms == {P(1, 1): 2}
        assert (a - a).terms == {}
        assert (3 * b).coefficient(P(2)) == -3
        assert not a.is_nonnegative() or True
        assert not b.is_nonnegative()

    def test_degree_mismatch_in_addition(self):
        with pytest.raises(DegreeMismatchError):
            S({P(2): 1}) + S({P(3): 1})

    def test_adding_a_foreign_type_raises_type_error(self):
        e = SchurExpansion(3, {(3,): 1})
        for other in (0, P(3)):
            with pytest.raises(TypeError):
                e + other
            with pytest.raises(TypeError):
                e - other

    def test_subtracting_a_foreign_type_names_the_minus_operator(self):
        e = SchurExpansion(3, {(3,): 1})
        for other in ("ab", 0, P(3)):
            with pytest.raises(TypeError, match="for -: 'SchurExpansion'"):
                e - other
        assert e - SchurExpansion(3, {(3,): 1}) == SchurExpansion(3, {})

    def test_items_descending_lex(self):
        e = S({P(1, 1, 1): 1, P(3): 1, P(2, 1): 5})
        assert [p for p, _ in e.items()] == [P(3), P(2, 1), P(1, 1, 1)]

    @pytest.mark.parametrize("coeff", [1.7, 2.0, "2", None])
    def test_non_integer_coefficient_rejected(self, coeff):
        # int() would truncate 1.7 to 1 and parse "2"; neither is a coefficient
        with pytest.raises(ValueError):
            SchurExpansion(3, {P(3): coeff})

    @pytest.mark.parametrize("degree", [2.9, 3.0, "3", None])
    def test_non_integer_degree_rejected(self, degree):
        # int() would truncate 2.9 to 2 and parse "3"; neither is a degree
        with pytest.raises(ValueError):
            SchurExpansion(degree, {})

    @pytest.mark.parametrize("scalar", [0.5, 2.0, "2"])
    def test_non_integer_scalar_rejected(self, scalar):
        e = S({P(3): 1})
        with pytest.raises(ValueError):
            e * scalar
        with pytest.raises(ValueError):
            scalar * e
        with pytest.raises(ValueError):
            SchurExpansion(3) * scalar


class TestKostka:
    def test_single_row_content(self):
        assert kostka(P(3), C(3)) == 1

    def test_standard_content(self):
        assert kostka(P(2, 1), C(1, 1, 1)) == 2

    def test_column_violation(self):
        assert kostka(P(1, 1, 1), C(2, 1)) == 0

    def test_degree_mismatch_convention(self):
        assert kostka(P(2), C(3)) == 0
        assert kostka(P(2, 1), C(1, 1)) == 0

    def test_content_zeros_are_harmless(self):
        assert kostka(P(2, 1), C(1, 0, 1, 1)) == kostka(P(2, 1), C(1, 1, 1))

    def test_standard_count_is_hook_length_dimension(self):
        for d in range(0, 8):
            ones = C(*([1] * d))
            for lam in partitions_of(d):
                assert kostka(lam, ones) == dimension(lam)


class TestLRCoeff:
    def test_fixtures(self):
        assert lr_coeff(P(2, 1), P(1), P(1, 1)) == 1
        assert lr_coeff(P(3), P(1, 1), P(1)) == 0

    def test_unit_of_outer_product(self):
        for d in range(0, 7):
            for lam in partitions_of(d):
                assert lr_coeff(lam, lam, P()) == 1
                assert lr_coeff(lam, P(), lam) == 1

    def test_impossible_queries_are_zero(self):
        assert lr_coeff(P(3), P(1), P(1)) == 0
        assert lr_coeff(P(2, 2), P(3), P(1)) == 0

    def test_symmetry_and_conjugation(self):
        for d in range(0, 9):
            for lam in partitions_of(d):
                lam_c = lam.conjugate()
                for a in range(0, d + 1):
                    for mu in partitions_of(a):
                        for nu in partitions_of(d - a):
                            c = lr_coeff(lam, mu, nu)
                            assert c == lr_coeff(lam, nu, mu)
                            assert c == lr_coeff(lam_c, mu.conjugate(), nu.conjugate())


class TestSkewSchur:
    def test_single_cell(self):
        assert skew_schur_expansion(SkewShape(P(2, 1), P(2))).terms == {P(1): 1}

    def test_broken_strip(self):
        e = skew_schur_expansion(SkewShape(P(2, 1), P(1)))
        assert e.terms == {P(2): 1, P(1, 1): 1}

    def test_empty_inner(self):
        for d in range(0, 7):
            for lam in partitions_of(d):
                assert skew_schur_expansion(SkewShape(lam, P())).terms == {lam: 1}

    def test_mutating_a_result_leaves_later_calls_intact(self):
        shape = SkewShape(P(2, 1), P(1))
        skew_schur_expansion(shape).terms[P(2)] = 7
        assert skew_schur_expansion(shape).terms == {P(2): 1, P(1, 1): 1}


class TestOuterProduct:
    def test_pieri_fixtures(self):
        s1 = SchurExpansion.single(P(1))
        assert schur_outer_product(s1, s1).terms == {P(2): 1, P(1, 1): 1}
        got = schur_outer_product(SchurExpansion.single(P(2)), s1)
        assert got.terms == {P(3): 1, P(2, 1): 1}

    def test_unit_law(self):
        unit = SchurExpansion.single(P())
        a = S({P(2, 1): 4, P(3): -1})
        assert schur_outer_product(a, unit) == a
        assert schur_outer_product(unit, a) == a

    def _random_expansion(self, rng, degree):
        terms = {}
        for p in partitions_of(degree):
            if rng.random() < 0.6:
                terms[p] = rng.randint(-3, 3)
        return SchurExpansion(degree, terms)

    def test_associative_and_commutative(self):
        rng = random.Random(20240815)
        for _ in range(25):
            da = rng.randint(0, 3)
            db = rng.randint(0, 3)
            dc = rng.randint(0, max(0, 8 - da - db - 2))
            a = self._random_expansion(rng, da)
            b = self._random_expansion(rng, db)
            c = self._random_expansion(rng, dc)
            ab = schur_outer_product(a, b)
            bc = schur_outer_product(b, c)
            assert schur_outer_product(ab, c) == schur_outer_product(a, bc)
            assert ab == schur_outer_product(b, a)


class TestConjugateExpansion:
    def test_fixtures(self):
        assert SchurExpansion.single(P(3)).conjugate().terms == {P(1, 1, 1): 1}
        assert SchurExpansion.single(P(2, 1)).conjugate().terms == {P(2, 1): 1}

    def test_termwise(self):
        e = S({P(3): 1, P(2, 1): 2})
        assert e.conjugate().terms == {P(1, 1, 1): 1, P(2, 1): 2}

    def test_a_one_term_conjugate_builds_no_table_of_partitions(self):
        # Terms are conjugated one at a time, never through partitions_of(40).
        before = partitions_of.cache_info().currsize
        got = SchurExpansion.single(P(20, 20)).conjugate()
        assert got.terms == {Partition([2] * 20): 1}
        assert partitions_of.cache_info().currsize == before
