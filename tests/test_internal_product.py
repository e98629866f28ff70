import pytest

from polykron import (
    GAMMA,
    SYM,
    WEDGE,
    CharTwoMode,
    Composition,
    DegreeMismatchError,
    ExpFunctor,
    Partition,
    SchurExpansion,
    SizeBoundError,
    UndefinedProductError,
    exponential_tensor,
    gamma_tensor_gamma,
    hook_mixed,
    internal_product,
    iter_contingency,
    jacobi_trudi,
    kostka,
    kronecker,
    kronecker_general,
    kronecker_hook,
    kronecker_one_box,
    kronecker_oracle_expansion,
    schur,
    weyl_tensor_gamma,
    weyl_tensor_wedge,
)
from polykron._memo import clear_all
from polykron.internal_product import _chain, _fold, _fold_cost, _gamma_steps
from polykron.partitions import partitions_of

def P(*parts):
    return Partition(parts)


def C(*entries):
    return Composition(entries)


class TestGammaTensorGamma:
    def test_unit_weight(self):
        for lam in [C(3), C(2, 1), C(1, 1, 1), C(0, 2, 1)]:
            dec = gamma_tensor_gamma(C(3), lam)
            assert dec.family == GAMMA
            assert dec.summands == (lam,)

    def test_two_by_two(self):
        dec = gamma_tensor_gamma(C(1, 1), C(1, 1))
        assert dec.summands == (C(1, 0, 0, 1), C(0, 1, 1, 0))

    def test_single_column(self):
        dec = gamma_tensor_gamma(C(2, 1), C(3))
        assert dec.summands == (C(2, 1),)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            gamma_tensor_gamma(C(2), C(3))

    def test_commutativity_up_to_transpose(self):
        for mu, lam in [(C(2, 1), C(1, 1, 1)), (C(2, 2), C(3, 1))]:
            forward = {tuple(sorted(s.entries)) for s in gamma_tensor_gamma(mu, lam).summands}
            backward = {tuple(sorted(s.entries)) for s in gamma_tensor_gamma(lam, mu).summands}
            assert forward == backward


class TestExponentialTensor:
    def test_wedge_squared_is_sym(self):
        for d in range(0, 6):
            w = ExpFunctor(WEDGE, C(d))
            dec = exponential_tensor(w, w)
            assert dec.family == SYM
            assert dec.summands == (C(d),)

    def test_sym_wedge_two_zero(self):
        dec = exponential_tensor(
            ExpFunctor(SYM, C(4)), ExpFunctor(WEDGE, C(4)), CharTwoMode.TWO_ZERO
        )
        assert dec.family == SYM
        assert dec.summands == (C(4),)
        flipped = exponential_tensor(
            ExpFunctor(WEDGE, C(4)), ExpFunctor(SYM, C(4)), CharTwoMode.TWO_ZERO
        )
        assert flipped.family == SYM

    def test_gamma_unit_for_every_family(self):
        weight = C(2, 1)
        unit = ExpFunctor(GAMMA, C(3))
        for family in (GAMMA, SYM, WEDGE):
            dec = exponential_tensor(unit, ExpFunctor(family, weight))
            assert dec.summands == (weight,)
            dec = exponential_tensor(ExpFunctor(family, weight), unit)
            assert dec.summands == (weight,)

    def test_gamma_sym_pair(self):
        dec = exponential_tensor(ExpFunctor(GAMMA, C(1, 1)), ExpFunctor(SYM, C(1, 1)))
        assert dec.family == SYM
        assert dec.summands == (C(1, 0, 0, 1), C(0, 1, 1, 0))

    def test_family_table(self):
        expected = {
            (GAMMA, GAMMA): GAMMA,
            (GAMMA, SYM): SYM,
            (GAMMA, WEDGE): WEDGE,
            (SYM, SYM): SYM,
            (SYM, WEDGE): WEDGE,
            (WEDGE, WEDGE): SYM,
        }
        for (fl, fr), family in expected.items():
            for pair in [(fl, fr), (fr, fl)]:
                dec = exponential_tensor(
                    ExpFunctor(pair[0], C(2, 1)), ExpFunctor(pair[1], C(3))
                )
                assert dec.family == family

    def test_undetermined_mode_raises(self):
        with pytest.raises(UndefinedProductError):
            exponential_tensor(
                ExpFunctor(SYM, C(2)),
                ExpFunctor(WEDGE, C(2)),
                CharTwoMode.TWO_NONZERO_NONUNIT,
            )
        with pytest.raises(UndefinedProductError):
            exponential_tensor(
                ExpFunctor(WEDGE, C(2)),
                ExpFunctor(SYM, C(2)),
                CharTwoMode.TWO_NONZERO_NONUNIT,
            )

    def test_a_mode_that_is_no_member_raises_for_every_pair(self):
        # The CLI's spelling "unit" is a member's value, not the member.
        for mode in ("unit", None):
            for fl, fr in [(SYM, WEDGE), (WEDGE, SYM), (GAMMA, GAMMA)]:
                with pytest.raises(ValueError, match="characteristic-two mode"):
                    exponential_tensor(ExpFunctor(fl, C(2)), ExpFunctor(fr, C(2)), mode)

    def test_summands_are_contingency_flattenings(self):
        wl, wr = C(2, 1), C(1, 2)
        dec = exponential_tensor(ExpFunctor(WEDGE, wl), ExpFunctor(GAMMA, wr))
        assert dec.summands == tuple(m.flatten() for m in iter_contingency(wl, wr))


class TestWeylTensorGamma:
    def test_unit_weight(self):
        for d in range(0, 7):
            nu = Composition([d] if d else [])
            for lam in partitions_of(d):
                assert weyl_tensor_gamma(lam, nu).terms == {lam: 1}

    def test_staircase_fixture(self):
        got = weyl_tensor_gamma(P(2, 1), C(2, 1))
        assert got.terms == {P(3): 1, P(2, 1): 2, P(1, 1, 1): 1}

    def test_single_row_gives_kostka_multiplicities(self):
        # Weyl(d) is the tensor unit, so the multiplicities are Young's rule
        for nu in [C(1, 1, 1), C(2, 1), C(2, 2), C(1, 1, 2)]:
            d = nu.degree
            got = weyl_tensor_gamma(P(d), nu)
            assert got.terms == {
                beta: kostka(beta, nu)
                for beta in partitions_of(d)
                if kostka(beta, nu)
            }

    def test_kostka_fills_the_chain_entry_of_the_single_row(self):
        # Kostka numbers are read from the chain of (d) x Gamma^nu, so the
        # Weyl filtration along (d) then hits that entry, for any order of nu.
        clear_all()
        kostka(P(3, 2), C(2, 0, 1, 2))
        before = _chain.cache_info()
        weyl_tensor_gamma(P(5), C(1, 2, 2))
        after = _chain.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_zeros_pause_the_chain(self):
        assert weyl_tensor_gamma(P(2, 1), C(2, 0, 1)) == weyl_tensor_gamma(P(2, 1), C(2, 1))
        assert weyl_tensor_gamma(P(2, 1), C(0, 2, 1)) == weyl_tensor_gamma(P(2, 1), C(2, 1))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            weyl_tensor_gamma(P(2, 1), C(2))


class TestWeylTensorWedge:
    def test_wedge_of_row_is_column(self):
        for d in range(1, 7):
            got = weyl_tensor_wedge(P(d), C(d))
            assert got.terms == {Partition([1] * d): 1}

    def test_staircase_fixture(self):
        got = weyl_tensor_wedge(P(2, 1), C(2, 1))
        assert got.terms == {P(1, 1, 1): 1, P(2, 1): 2, P(3): 1}

    def test_unit_weight_conjugates(self):
        for d in range(0, 7):
            nu = Composition([d] if d else [])
            for lam in partitions_of(d):
                assert weyl_tensor_wedge(lam, nu).terms == {lam.conjugate(): 1}

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            weyl_tensor_wedge(P(2, 1), C(2))


class TestJacobiTrudi:
    def test_single_row(self):
        assert jacobi_trudi(P(4)) == [(1, C(4))]

    def test_staircase(self):
        assert sorted(jacobi_trudi(P(2, 1))) == sorted([(1, C(2, 1)), (-1, C(3, 0))])

    def test_column(self):
        assert sorted(jacobi_trudi(P(1, 1))) == sorted([(1, C(1, 1)), (-1, C(2, 0))])

    def test_empty(self):
        assert jacobi_trudi(P()) == [(1, C())]

    def test_bound(self):
        with pytest.raises(SizeBoundError):
            jacobi_trudi(Partition([1] * 13))

    def test_roundtrip_small(self):
        for d in range(0, 7):
            for mu in partitions_of(d):
                acc = {lam: 0 for lam in partitions_of(d)}
                for sign, nu in jacobi_trudi(mu):
                    for lam in acc:
                        acc[lam] += sign * kostka(lam, nu)
                assert acc == {lam: int(lam == mu) for lam in partitions_of(d)}


class TestKroneckerGeneral:
    def test_trivial_factor(self):
        for d in range(0, 7):
            mu = Partition([d] if d else [])
            for lam in partitions_of(d):
                assert kronecker_general(lam, mu).terms == {lam: 1}

    def test_d3_staircase_square(self):
        got = kronecker_general(P(2, 1), P(2, 1))
        assert got.terms == {P(3): 1, P(2, 1): 1, P(1, 1, 1): 1}

    def test_sign_twist(self):
        for d in range(1, 7):
            sign = Partition([1] * d)
            for lam in partitions_of(d):
                assert kronecker_general(lam, sign).terms == {lam.conjugate(): 1}

    def test_size_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            kronecker_general(P(2), P(3))

    def test_symmetry_in_all_three_labels(self):
        for d in range(0, 5):
            for lam in partitions_of(d):
                for mu in partitions_of(d):
                    e = kronecker_general(lam, mu)
                    for alpha in partitions_of(d):
                        g = e.coefficient(alpha)
                        assert kronecker_general(lam, alpha).coefficient(mu) == g
                        assert kronecker_general(
                            lam.conjugate(), mu.conjugate()
                        ).coefficient(alpha) == g

    def test_both_factors_past_the_bound_run_the_conjugate_pair(self):
        tall, wide = Partition([2] * 13), P(13, 13)
        got = kronecker_general(tall, tall)
        assert got == kronecker_general(wide, wide)
        assert got == kronecker_general(wide, tall).conjugate()
        with pytest.raises(SizeBoundError):
            kronecker_general(Partition([13] * 13), Partition([13] * 13))


def _chained_terms(chain, expanded):
    """The Kronecker product as the chains of expanded's Jacobi-Trudi terms
    along chain, one by one: the reference for _fold."""
    total = SchurExpansion._from_index(chain.size, ())
    for sign, nu in jacobi_trudi(expanded):
        entry = _chain(chain.parts, _gamma_steps(nu)).get(chain.parts, {})
        total = total + sign * SchurExpansion._from_index(chain.size, entry.items())
    return total


def _estimate(expanded, chain):
    return _fold_cost(chain.parts, expanded.parts)


class TestResolutionChoice:
    """kronecker_general folds the determinant of one factor or conjugate
    along the other, in the orientation with the lowest fold estimate, and
    the first of (lam, mu), (mu, lam), (lam', mu'), (mu', lam') on a tie,
    with the lexicographically larger factor as mu."""

    def folded(self, monkeypatch, lam, mu, run=True, product=kronecker_general):
        # The (chain, expanded) partitions of every _fold call.
        seen = []
        real = internal_product._fold

        def spy(chain, expanded):
            seen.append((Partition(chain), Partition(expanded)))
            return real(chain, expanded) if run else {}

        monkeypatch.setattr(internal_product, "_fold", spy)
        product(lam, mu)
        return seen

    def test_the_estimate_reads_shapes_only(self, monkeypatch):
        lam, mu = P(9, 3, 2, 1), P(4, 4, 4, 3)
        clear_all()
        assert _estimate(lam, mu) == 66
        assert _estimate(mu, lam) == 246
        # mu is its own conjugate, so the conjugate orientations fold lam'
        # along mu and mu along lam'.
        assert _estimate(lam.conjugate(), mu) == 376
        assert _estimate(mu, lam.conjugate()) == 246
        assert self.folded(monkeypatch, lam, mu, run=False) == [(mu, lam)]
        for fn in (
            schur._product_terms, schur._pieri, schur._skew_terms, _chain, _fold,
        ):
            assert fn.cache_info().currsize == 0, fn.__name__

    def test_the_estimate_bounds_the_multiply_calls_of_a_cold_fold(self, monkeypatch):
        # A cold _fold multiplies once per nonzero move and beta that the
        # step reaches, and _fold_cost counts every partition inside chain at
        # the move's size.  A step that reaches |lam| reaches lam alone, so
        # no step asks _partitions_between for that size.
        calls, asked = [0], []
        multiply, between = internal_product._multiply, internal_product._partitions_between

        def count(*args):
            calls[0] += 1
            multiply(*args)

        def record(inner, outer, size):
            asked.append((outer, size))
            return between(inner, outer, size)

        monkeypatch.setattr(internal_product, "_multiply", count)
        monkeypatch.setattr(internal_product, "_partitions_between", record)

        def fold(chain, expanded):
            calls[0] = 0
            asked.clear()
            _fold(chain, expanded)
            assert all(size < sum(outer) for outer, size in asked), (chain, expanded)
            return calls[0]

        clear_all()
        for d in range(1, 9):
            for chain in partitions_of(d):
                for expanded in partitions_of(d):
                    assert fold(chain.parts, expanded.parts) <= _estimate(expanded, chain)
        square = P(6, 4, 3, 2, 1)
        clear_all()
        assert fold(square.parts, square.parts) == _estimate(square, square) == 385
        asked.clear()
        lam = P(4, 3, 2, 1)
        assert kronecker_hook(lam, 4, 6) == kronecker_oracle_expansion(lam, P(4, *[1] * 6))
        weyl_tensor_gamma(lam, C(3, 0, 4, 3))
        assert asked and all(size < sum(outer) for outer, size in asked)

    def test_the_cheaper_side_is_chained_in_both_orders(self, monkeypatch):
        lam, mu = P(9, 3, 2, 1), P(4, 4, 4, 3)
        want = kronecker_oracle_expansion(lam, mu)
        for a, b in ((lam, mu), (mu, lam)):
            clear_all()
            assert self.folded(monkeypatch, a, b) == [(mu, lam)]
            assert kronecker_general(a, b) == want
        # Cold, chaining mu's terms along lam takes over four times the LR
        # products.
        chosen = schur._product_terms.cache_info().misses
        clear_all()
        assert _chained_terms(lam, mu) == want
        assert schur._product_terms.cache_info().misses > 4 * chosen

    def test_a_tie_expands_mu(self, monkeypatch):
        # (5,5) x (7,2,1): both unconjugated orientations estimate 11, and
        # the larger factor, listed first as expanded, is expanded.
        lam, mu = P(5, 5), P(7, 2, 1)
        assert _estimate(mu, lam) == _estimate(lam, mu) == 11
        for a, b in ((lam, mu), (mu, lam)):
            assert self.folded(monkeypatch, a, b, run=False) == [(lam, mu)]
        # The d = 18 square lists its own orientation before its conjugate's.
        square = P(6, 5, 4, 2, 1)
        seen = self.folded(monkeypatch, square, square, run=False)
        assert len(seen) == 1 and seen[0] == (square, square)

    def test_a_two_row_factor_is_expanded_on_either_side(self, monkeypatch):
        lam, mu = P(6, 4), P(4, 3, 2, 1)
        assert _estimate(lam, mu) < _estimate(mu, lam)
        assert self.folded(monkeypatch, lam, mu, run=False) == [(mu, lam)]
        assert self.folded(monkeypatch, mu, lam, run=False) == [(mu, lam)]

    def test_the_conjugate_pair_wins_on_a_tall_square(self, monkeypatch):
        # (2^10) x (2^10) folds (10, 10) along (10, 10): two masks against
        # (2^10)'s 1,024, estimated 13 against 1,415.
        tall, wide = Partition([2] * 10), P(10, 10)
        assert (_estimate(tall, tall), _estimate(wide, wide)) == (1415, 13)
        assert self.folded(monkeypatch, tall, tall, run=False) == [(wide, wide)]
        assert kronecker_general(tall, tall) == kronecker_general(wide, wide)

    def test_a_large_determinant_is_read_only_up_to_the_other_estimate(self, monkeypatch):
        # (2^12) x (12, 12): folding (12, 12)'s determinant along (2^12)
        # estimates 15, and (2^12)'s along (12, 12) estimates 2,840 over
        # thousands of masks.  Costed second, with the first estimate as its
        # budget, it stops after its first few masks.
        lam = P(*[2] * 12)
        assert _estimate(P(12, 12), lam) == 15
        assert _estimate(lam, P(12, 12)) == 2840
        read = []
        real = internal_product._moves

        def spy(expanded, row, mask):
            read.append(expanded)
            return real(expanded, row, mask)

        monkeypatch.setattr(internal_product, "_moves", spy)
        seen = self.folded(monkeypatch, lam, P(12, 12), run=False)
        assert seen == [(lam, P(12, 12))]
        assert read.count(P(12, 12).parts) == 3
        assert read.count(lam.parts) < 10


class TestKroneckerTwoRow:
    """A two-part factor has no procedure of its own: kronecker_general
    expands it, and auto labels the pair general unless a fast path fits."""

    def two_row(self, lam, mu):
        got = kronecker_general(lam, mu)
        assert kronecker(lam, mu, "general") == (got, "general")
        return got

    def test_staircase(self):
        got = self.two_row(P(2, 1), P(2, 1))
        assert got.terms == {P(3): 1, P(2, 1): 1, P(1, 1, 1): 1}

    def test_trivial_lambda(self):
        for (a, b) in [(3, 1), (2, 2), (4, 3)]:
            got = self.two_row(Partition([a + b]), P(a, b))
            assert got.terms == {P(a, b): 1}
            assert kronecker(Partition([a + b]), P(a, b))[1] == ("one-box" if b == 1 else "general")

    def test_square_fixture(self):
        # frozen from the character-sum oracle at d=4
        got = self.two_row(P(2, 2), P(2, 2))
        assert got.terms == {P(4): 1, P(2, 2): 1, P(1, 1, 1, 1): 1}
        assert got == kronecker_oracle_expansion(P(2, 2), P(2, 2))

    def test_preconditions(self):
        # The two-row method is gone; general takes the pair.
        with pytest.raises(ValueError, match="unknown method 'two-row'"):
            kronecker(P(2, 1), P(2, 1), "two-row")
        with pytest.raises(DegreeMismatchError):
            kronecker(P(3), P(3, 1), "two-row")


class TestKroneckerOneBox:
    def test_staircase(self):
        got = kronecker_one_box(P(2, 1), 2)
        assert got.terms == {P(2, 1): 1, P(3): 1, P(1, 1, 1): 1}

    def test_single_row(self):
        for d in range(2, 8):
            got = kronecker_one_box(P(d), d - 1)
            assert got.terms == {P(d - 1, 1): 1}

    def test_square(self):
        got = kronecker_one_box(P(2, 2), 3)
        assert got.terms == {P(3, 1): 1, P(2, 1, 1): 1}

    def test_preconditions(self):
        with pytest.raises(DegreeMismatchError):
            kronecker_one_box(P(2, 1), 1)
        with pytest.raises(ValueError):
            kronecker_one_box(P(1), 0)


class TestHookMixed:
    def test_staircase(self):
        got = hook_mixed(P(2, 1), 2, 1)
        assert got.terms == {P(3): 1, P(2, 1): 2, P(1, 1, 1): 1}

    def test_no_wedge_part_is_identity(self):
        for lam in [P(3), P(2, 1), P(2, 2), P(3, 1, 1)]:
            assert hook_mixed(lam, lam.size, 0).terms == {lam: 1}

    def test_single_row(self):
        got = hook_mixed(P(3), 2, 1)
        assert got.terms == {P(2, 1): 1, P(3): 1}

    def test_matches_its_two_hook_pieces(self):
        # Gamma^p (x) Wedge^q carries the two hooks (p,1^q) and (p+1,1^(q-1))
        for d in range(2, 7):
            for lam in partitions_of(d):
                for q in range(1, d):
                    p = d - q
                    want = kronecker_oracle_expansion(lam, Partition([p] + [1] * q))
                    second = Partition([p + 1] + [1] * (q - 1))
                    want = want + kronecker_oracle_expansion(lam, second)
                    assert hook_mixed(lam, p, q) == want

    def test_preconditions(self):
        with pytest.raises(ValueError):
            hook_mixed(P(2), 0, 2)
        with pytest.raises(DegreeMismatchError):
            hook_mixed(P(2), 2, 2)


class TestKroneckerHook:
    def test_trivial_lambda(self):
        got = kronecker_hook(P(3), 2, 1)
        assert got.terms == {P(2, 1): 1}

    def test_staircase(self):
        got = kronecker_hook(P(2, 1), 2, 1)
        assert got.terms == {P(3): 1, P(2, 1): 1, P(1, 1, 1): 1}

    def test_column_lambda(self):
        for d in range(3, 7):
            got = kronecker_hook(Partition([1] * d), d - 1, 1)
            assert got.terms == {Partition([2] + [1] * (d - 2)): 1}

    def test_sign_and_unit_partners_run_no_chain(self, monkeypatch):
        # p = 1 is the sign (1^n), whose product is lam'; a one-row lam is
        # the unit, and a one-column lam the sign.  kronecker answers them
        # for every method that applies, and kronecker_hook still runs its
        # chains on them.
        cases = [(P(5, 4), 1, 8), (P(9), 5, 4), (Partition([1] * 9), 5, 4), (Partition([1] * 4), 1, 3)]
        hooks = [Partition([p] + [1] * q) for _, p, q in cases]
        want = [kronecker_oracle_expansion(lam, hook) for (lam, _, _), hook in zip(cases, hooks)]
        assert want[0].terms == {P(2, 2, 2, 2, 1): 1} and want[2].terms == {P(5, 1, 1, 1, 1): 1}
        assert [kronecker_hook(*case) for case in cases] == want
        with monkeypatch.context() as patch:
            patch.setattr(internal_product, "_chain", None)
            patch.setattr(internal_product, "_fold", None)
            for (lam, _, _), hook, expansion in zip(cases, hooks, want):
                for method in ("auto", "general", "hook"):
                    label = "general" if method == "auto" else method
                    assert kronecker(lam, hook, method) == (expansion, label)
                    assert kronecker(hook, lam, method) == (expansion, label)

    def test_a_repeated_call_reads_its_chains_from_the_memo(self, monkeypatch):
        # The hook path reads each of its q + 1 chains whole from the chain
        # memo, so a second call multiplies nothing.
        lam, hook = P(5, 4, 3, 2, 1), Partition([8] + [1] * 7)
        calls = []
        multiply = internal_product._multiply

        def count(*args):
            calls.append(args)
            multiply(*args)

        monkeypatch.setattr(internal_product, "_multiply", count)
        clear_all()
        first = kronecker_hook(lam, 8, 7)
        assert calls and first == kronecker_oracle_expansion(lam, hook)
        calls.clear()
        assert kronecker_hook(lam, 8, 7) == first
        assert calls == []

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kronecker_hook(P(2, 1), 3, 0)
        with pytest.raises(DegreeMismatchError):
            kronecker_hook(P(2, 1), 3, 1)


class TestDispatch:
    def test_method_selection(self):
        cases = [
            (P(2, 1), "one-box"),
            (P(1, 1), "one-box"),
            (P(2, 2), "general"),
            (P(3, 1, 1), "general"),
            (P(2, 1, 1, 1), "general"),
            (P(4), "general"),
            (P(2, 2, 1), "general"),
        ]
        for mu, method in cases:
            lam = Partition([mu.size])
            _, used = kronecker(lam, mu)
            assert used == method, mu

    def test_all_methods_agree_on_admissible_input(self):
        lam, mu = P(3, 2), P(4, 1)
        results = {
            m: kronecker(lam, mu, m)[0]
            for m in ("general", "one-box", "hook")
        }
        assert len({tuple(sorted((p.parts, c) for p, c in r.terms.items())) for r in results.values()}) == 1

    def test_explicit_method_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            kronecker(P(2, 2), P(2, 1, 1), "two-row")
        with pytest.raises(ValueError, match="neither 2,2 nor 2,2 has the one-box shape"):
            kronecker(P(2, 2), P(2, 2), "one-box")
        # An explicit fast path runs on whichever factor has its shape.
        assert kronecker(P(2, 1, 1), P(2, 2), "hook") == kronecker(P(2, 2), P(2, 1, 1), "hook")
        with pytest.raises(ValueError):
            kronecker(P(2, 2), P(2, 2), "hook")
        with pytest.raises(ValueError):
            kronecker(P(2, 2), P(2, 2), "newton")

    def test_degree_zero(self):
        expansion, method = kronecker(P(), P())
        assert expansion.terms == {P(): 1}
        assert method == "general"


class TestCallersCannotPoisonTheMemo:
    def test_mutating_a_weyl_filtration_leaves_kronecker_intact(self):
        w = weyl_tensor_gamma(P(2, 1), C(2, 1))
        w.terms[P(3)] = 99
        assert kronecker_general(P(2, 1), P(2, 1)).terms == {P(3): 1, P(2, 1): 1, P(1, 1, 1): 1}
        assert weyl_tensor_gamma(P(2, 1), C(2, 1)).coefficient(P(3)) == 1

    def test_mutating_hook_mixed_leaves_later_calls_intact(self):
        first = hook_mixed(P(3, 1), 2, 2)
        want = dict(first.terms)
        first.terms.clear()
        assert hook_mixed(P(3, 1), 2, 2).terms == want
        assert kronecker_hook(P(3, 1), 2, 2) == kronecker_oracle_expansion(P(3, 1), P(2, 1, 1))
