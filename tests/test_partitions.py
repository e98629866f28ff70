import copy
import inspect
import math
import pickle

import pytest

from polykron import (
    Composition,
    ContingencyMatrix,
    DegreeMismatchError,
    Partition,
    SkewShape,
    gamma_tensor_gamma,
    iter_contingency,
)
from polykron.partitions import enumerate_compositions, partitions_of


def P(*parts):
    return Partition(parts)


def C(*entries):
    return Composition(entries)


class TestPartition:
    def test_canonical_form_strips_trailing_zeros(self):
        assert P(3, 2, 0, 0) == P(3, 2)
        assert P(0) == P()
        assert P().parts == ()

    def test_hash_follows_equality(self):
        assert hash(P(3, 2, 0)) == hash(P(3, 2))
        assert len({P(2, 1), P(2, 1, 0), P(3)}) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, -1])
        with pytest.raises(ValueError):
            Partition([2, 0, 1])

    def test_non_integer_parts_are_rejected_not_truncated(self):
        for parts in ([2.5, 1], [2.0, 1], ["2", 1]):
            with pytest.raises(ValueError):
                Partition(parts)

    def test_size_and_row(self):
        p = P(4, 2, 1)
        assert p.size == 7
        assert len(p) == 3
        assert p.row(0) == 4
        assert p.row(5) == 0

    def test_text(self):
        assert P(3, 2, 1).text() == "3,2,1"
        assert P().text() == "0"

    @pytest.mark.parametrize(
        "parts, expected",
        [((2, 1), (2, 1)), ((), ()), ((3, 1), (2, 1, 1))],
    )
    def test_conjugate_fixtures(self, parts, expected):
        assert Partition(parts).conjugate() == Partition(expected)

    def test_conjugate_is_involution(self):
        for d in range(0, 13):
            for p in partitions_of(d):
                assert p.conjugate().conjugate() == p

    def test_containment(self):
        assert P(3, 2).contains(P(2, 2))
        assert not P(3).contains(P(1, 1))
        assert P().contains(P())

    def test_ordering_with_a_foreign_type_raises_type_error(self):
        for other in ((1,), 3):
            with pytest.raises(TypeError):
                P(1) < other
            with pytest.raises(TypeError):
                P(2, 1) >= other


class TestOuterCorners:
    def test_two_corners(self):
        assert P(2, 1).outer_corners() == [(1, 2), (2, 1)]

    def test_single_row(self):
        assert P(6).outer_corners() == [(1, 6)]

    def test_rectangle(self):
        assert P(2, 2).outer_corners() == [(2, 2)]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            P().outer_corners()


class TestOneBoxMoves:
    def test_staircase(self):
        assert P(2, 1).one_box_moves() == [P(3), P(1, 1, 1)]

    def test_single_row(self):
        assert P(5).one_box_moves() == [P(4, 1)]

    def test_rectangle(self):
        assert P(2, 2).one_box_moves() == [P(3, 1), P(2, 1, 1)]

    def test_moves_preserve_size_and_exclude_self(self):
        for d in range(1, 9):
            for p in partitions_of(d):
                moves = p.one_box_moves()
                assert len(set(moves)) == len(moves)
                for alpha in moves:
                    assert alpha.size == d
                    assert alpha != p

    def test_move_count_identity(self):
        # each corner removal contributes one move per addable cell of the
        # smaller shape, minus the one that restores p
        for d in range(1, 10):
            for p in partitions_of(d):
                total = 0
                for (r, _c) in p.outer_corners():
                    smaller = list(p.parts)
                    smaller[r - 1] -= 1
                    addable = len({x for x in smaller if x}) + 1
                    total += addable - 1
                assert total == len(p.one_box_moves())


def _brute_partitions(d):
    """Every non-increasing tuple of positive parts that sums to d, in
    descending lexicographic order, from all compositions of d."""
    found = set()
    for mask in range(2 ** max(d - 1, 0)):
        parts, run = [], 1
        for i in range(d - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        if d:
            parts.append(run)
        found.add(tuple(sorted(parts, reverse=True)))
    return sorted(found, reverse=True)


class TestEnumeratePartitions:
    def test_degree_zero(self):
        assert partitions_of(0) == (P(),)

    def test_counts(self):
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(8)) == 22

    def test_descending_lex_order(self):
        for d in range(0, 10):
            ps = list(partitions_of(d))
            assert ps == sorted(ps, key=lambda p: p.parts, reverse=True)

    def test_matches_a_brute_force(self):
        for d in range(0, 13):
            assert [p.parts for p in partitions_of(d)] == _brute_partitions(d), d

    def test_larger_counts(self):
        assert [len(partitions_of(d)) for d in (20, 25, 30)] == [627, 1958, 5604]

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


class TestComposition:
    def test_zeros_are_significant(self):
        assert C(1, 0, 1) != C(1, 1)
        assert len(C(1, 0, 1)) == 3
        assert C(1, 0, 1).degree == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Composition([1, -1])

    def test_non_integer_entries_are_rejected_not_truncated(self):
        for entries in ([1.9, 0.2], [1, 0.0], [1, "1"]):
            with pytest.raises(ValueError):
                Composition(entries)

    def test_sorted_partition(self):
        assert Partition(C(0, 3, 1, 3).sorted_parts()) == P(3, 3, 1)
        assert C(0, 3, 1, 3).sorted_parts() == (3, 3, 1)

    def test_text(self):
        assert C(2, 0, 1).text() == "2,0,1"
        assert C().text() == "0"

    def test_enumerate_compositions_counts(self):
        for d in range(0, 7):
            for n in range(1, 5):
                got = enumerate_compositions(d, n)
                assert len(got) == math.comb(d + n - 1, n - 1)
                assert len(set(got)) == len(got)
                assert all(c.degree == d and len(c) == n for c in got)


class TestReadOnlyValues:
    """Partitions and compositions are memo values shared by every caller, so
    none may be changed after construction; pickle and copy rebuild them."""

    @pytest.mark.parametrize("value, name", [(P(3, 1), "parts"), (P(3, 1), "size"),
                                             (P(3, 1), "_hash"), (C(2, 0, 1), "entries"),
                                             (C(2, 0, 1), "degree")])
    def test_assignment_and_deletion_raise(self, value, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) == before

    def test_memo_values_cannot_be_changed(self):
        first = partitions_of(3)[0]
        with pytest.raises(AttributeError):
            first.parts = (9,)
        summand = gamma_tensor_gamma(C(2, 1), C(1, 2)).summands[0]
        with pytest.raises(AttributeError):
            summand.entries = (9,)
        assert partitions_of(3)[0] == P(3)
        assert [s.entries for s in gamma_tensor_gamma(C(2, 1), C(1, 2)).summands] == [
            (1, 1, 0, 1), (0, 2, 1, 0),
        ]

    @pytest.mark.parametrize("value", [P(), P(3, 1), C(), C(2, 0, 1)])
    def test_pickle_and_copies_round_trip(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert [getattr(twin, n) for n in type(value).__slots__] == [
                getattr(value, n) for n in type(value).__slots__
            ]


class TestSkewShape:
    def test_containment_enforced(self):
        SkewShape(P(3, 1), P(1))
        with pytest.raises(ValueError):
            SkewShape(P(2), P(3))

    def test_size(self):
        assert SkewShape(P(3, 2), P(2)).size == 3


class TestContingency:
    def test_single_row_forces_everything(self):
        for lam in [C(3), C(2, 1), C(1, 1, 1), C(0, 3, 0)]:
            ms = list(iter_contingency(C(3), lam))
            assert len(ms) == 1
            assert ms[0].rows == (lam.entries,)

    def test_two_by_two_permutation_matrices(self):
        ms = list(iter_contingency(C(1, 1), C(1, 1)))
        assert [m.rows for m in ms] == [((1, 0), (0, 1)), ((0, 1), (1, 0))]
        assert [m.flatten() for m in ms] == [C(1, 0, 0, 1), C(0, 1, 1, 0)]

    def test_count_fixture(self):
        assert len(list(iter_contingency(C(2, 1), C(2, 1)))) == 2

    def test_flatten_matches_the_public_constructor(self):
        built = [ContingencyMatrix([[2, 0], [1, 3]]), ContingencyMatrix([], col_sums=[0])]
        for m in built + list(iter_contingency(C(3, 0, 2), C(1, 2, 2))):
            flat = m.flatten()
            want = Composition(x for row in m.rows for x in row)
            assert (flat.entries, flat.degree) == (want.entries, want.degree)
            assert flat == want and hash(flat) == hash(want)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            list(iter_contingency(C(2), C(3)))

    def test_degenerate_degree_zero(self):
        ms = list(iter_contingency(C(0, 0), C(0)))
        assert len(ms) == 1
        assert ms[0].flatten() == C(0, 0)

    def test_row_major_descending_order(self):
        for mu, lam in [(C(2, 2), C(2, 1, 1)), (C(3, 1), C(1, 1, 2))]:
            flats = [m.flatten().entries for m in iter_contingency(mu, lam)]
            assert flats == sorted(flats, reverse=True)
            assert len(set(flats)) == len(flats)

    def test_transpose_sets(self):
        for mu, lam in [(C(2, 1), C(1, 1, 1)), (C(2, 2), C(3, 1)), (C(1, 1, 1), C(2, 1))]:
            forward = {m.rows for m in iter_contingency(mu, lam)}
            backward = {m.transpose().rows for m in iter_contingency(lam, mu)}
            assert forward == backward

    def test_matrix_margins_exposed(self):
        m = list(iter_contingency(C(2, 1), C(2, 1)))[0]
        assert m.row_sums == C(2, 1)
        assert m.col_sums == C(2, 1)
        assert m.total == 3

    def test_rsk_count_identity_small(self):
        from polykron import kostka
        from polykron.partitions import enumerate_compositions

        for d in range(0, 5):
            weights = [c for n in (1, 2, 3) for c in enumerate_compositions(d, n)]
            for mu in weights:
                for lam in weights:
                    count = len(list(iter_contingency(mu, lam)))
                    rsk = sum(
                        kostka(v, mu) * kostka(v, lam) for v in partitions_of(d)
                    )
                    assert count == rsk, (mu, lam)

    def test_is_a_lazy_generator(self):
        # Tracers time a generator function per next() call.
        assert inspect.isgeneratorfunction(iter_contingency)
        # Listing (6^5) x (6^5) would take minutes; the first matrix does not.
        six = C(6, 6, 6, 6, 6)
        first = next(iter_contingency(six, six))
        assert first.rows == tuple(
            tuple(6 if i == j else 0 for j in range(5)) for i in range(5)
        )

    def test_degree_mismatch_raises_on_first_next(self):
        matrices = iter_contingency(C(2, 1), C(2, 2))
        with pytest.raises(DegreeMismatchError):
            next(matrices)

    def test_no_rows(self):
        assert [m.rows for m in iter_contingency(C(), C())] == [()]
        assert [m.rows for m in iter_contingency(C(), C(0, 0))] == [()]
        assert [m.rows for m in iter_contingency(C(0, 0), C())] == [((), ())]

    def test_equality_compares_the_margins(self):
        # A 0x0 and a 0x2 matrix have the same (empty) rows but are not equal.
        square = next(iter_contingency(C(), C()))
        wide = next(iter_contingency(C(), C(0, 0)))
        assert square.rows == wide.rows == ()
        assert square != wide
        assert len({square, wide}) == 2
        assert square == ContingencyMatrix([])
        assert wide == ContingencyMatrix([], col_sums=[0, 0])
        assert hash(wide) == hash(ContingencyMatrix([], col_sums=[0, 0]))
        tall = next(iter_contingency(C(0, 0), C()))
        assert tall == ContingencyMatrix([[], []]) and tall != square

    def test_rows_are_int_tuples_with_exact_margins(self):
        cases = [
            (C(3, 0, 2), C(1, 2, 2)),
            (C(2, 2, 1, 1), C(3, 0, 3)),
            (C(0, 4), C(2, 2)),
            (C(1, 1, 1, 1, 1), C(2, 3)),
        ]
        for mu, lam in cases:
            ms = list(iter_contingency(mu, lam))
            assert ms
            for m in ms:
                assert type(m.rows) is tuple
                assert len(m.rows) == len(mu)
                for row in m.rows:
                    assert type(row) is tuple and len(row) == len(lam)
                    assert all(type(x) is int and x >= 0 for x in row)
                assert tuple(sum(row) for row in m.rows) == mu.entries
                assert tuple(sum(col) for col in zip(*m.rows)) == lam.entries
                assert m.row_sums == mu and m.col_sums == lam

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            ContingencyMatrix([[1, 0], [0, 1]], row_sums=[2, 0])
        with pytest.raises(ValueError):
            ContingencyMatrix([[1, -1]])
        with pytest.raises(ValueError):
            ContingencyMatrix([[1.5, 0], [0, 1]])
        ok = ContingencyMatrix([[1, 1], [0, 1]])
        assert ok.row_sums == C(2, 1)
        assert ok.col_sums == C(1, 2)
