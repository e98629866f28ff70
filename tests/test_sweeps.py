"""The sweeps can fail: each one, fed a computation with one planted error,
reports that error as its first counterexample."""

from polykron import GAMMA, Composition, ExpDecomposition, Partition, sweeps

MU, LAM = Composition([2, 1]), Composition([1, 2])


def test_contingency_characters_fail_without_one_summand(monkeypatch):
    real = sweeps.gamma_tensor_gamma

    def drop_one(mu, lam):
        got = real(mu, lam)
        if (mu, lam) == (MU, LAM):
            return ExpDecomposition(GAMMA, got.summands[:-1])
        return got

    monkeypatch.setattr(sweeps, "gamma_tensor_gamma", drop_one)
    result = sweeps.sweep_contingency(count_max_d=4, char_max_d=4)
    assert not result.ok
    assert result.failure == "characters mu=2,1 lambda=1,2"


def test_contingency_count_fails_without_one_matrix(monkeypatch):
    real = sweeps._contingency_rows

    def skip_one(sums, cols):
        matrices = real(sums, cols)
        if (sums, cols) == (MU.entries, LAM.entries):
            next(matrices)
        return matrices

    monkeypatch.setattr(sweeps, "_contingency_rows", skip_one)
    result = sweeps.sweep_contingency(count_max_d=4, char_max_d=4)
    assert not result.ok
    assert result.failure == "count mu=2,1 lambda=1,2: 1 != 2"


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
