"""Exhaustive verification sweeps pairing every decomposition with its oracle.

Each sweep walks a bounded family of inputs, compares the combinatorial
computation against the independent character-theoretic one (or an exact
identity), and stops at the first counterexample.  Tolerances are zero
everywhere: a single coefficient mismatch is a failure.

Every sweep is a generator wrapped by `_sweep`, which counts its checks: the
generator yields once per check, None when the check passed or the
counterexample text when it failed, and the first text stops the sweep.  A
check with several conditions tests them in order and still yields once, and
its text is formatted only when it fails.
"""

from __future__ import annotations

from functools import wraps
from math import factorial
from operator import mul

from .characters import (
    class_size,
    dimension,
    internal_h_oracle,
    kronecker_oracle_expansion,
    lr_oracle,
    mn_character,
    perm_row,
)
from .errors import UndefinedProductError
from .internal_product import (
    GAMMA,
    SYM,
    WEDGE,
    CharTwoMode,
    ExpFunctor,
    exponential_tensor,
    gamma_tensor_gamma,
    jacobi_trudi,
    kostka,
    kronecker,
    kronecker_general,
    kronecker_hook,
    kronecker_one_box,
    weyl_tensor_gamma,
    weyl_tensor_wedge,
)
from .partitions import (
    Composition,
    Partition,
    _contingency_rows,
    enumerate_compositions,
    iter_contingency,
    partitions_of,
)
from .schur import lr_coeff


class SweepResult:
    """Outcome of one verification sweep."""

    __slots__ = ("name", "checks", "failure")

    def __init__(self, name: str, checks: int, failure: str | None = None):
        self.name = name
        self.checks = checks
        self.failure = failure

    @property
    def ok(self) -> bool:
        return self.failure is None

    def line(self) -> str:
        if self.ok:
            return f"{self.name}: PASS ({self.checks} checks)"
        return f"{self.name}: FAIL ({self.checks} checks) first counterexample: {self.failure}"

    def __repr__(self):
        return f"SweepResult({self.line()!r})"


def _sweep(checks):
    """Turn a generator of checks into a sweep that returns its SweepResult;
    sweep_x reports under the name x."""
    name = checks.__name__.removeprefix("sweep_")

    @wraps(checks)
    def sweep(*args, **kwargs) -> SweepResult:
        count = 0
        for count, failure in enumerate(checks(*args, **kwargs), 1):
            if failure is not None:
                return SweepResult(name, count, failure)
        return SweepResult(name, count)

    return sweep


def _weights_up_to(d: int, max_parts: int):
    return [w for n in range(1, max_parts + 1) for w in enumerate_compositions(d, n)]


@_sweep
def sweep_kron(max_d: int = 6) -> SweepResult:
    """Kronecker decompositions agree with the character class sums."""
    for d in range(0, max_d + 1):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                got = kronecker_general(lam, mu)
                want = kronecker_oracle_expansion(lam, mu)
                yield None if got == want else (
                    f"lambda={lam.text()} mu={mu.text()}: {got!r} != {want!r}"
                )


@_sweep
def sweep_fastpath(max_d: int = 8) -> SweepResult:
    """Two-part factors by kronecker_general, (a, 1) and hooks match the class sums."""
    for d in range(2, max_d + 1):
        for lam in partitions_of(d):
            for b in range(1, d // 2 + 1):
                a = d - b
                got = kronecker_general(lam, Partition([a, b]))
                want = kronecker_oracle_expansion(lam, Partition([a, b]))
                yield None if got == want else (
                    f"two-row lambda={lam.text()} mu=({a},{b}): {got!r} != {want!r}"
                )
            for q in range(1, d):
                p = d - q
                got = kronecker_hook(lam, p, q)
                want = kronecker_oracle_expansion(lam, Partition([p] + [1] * q))
                yield None if got == want else (
                    f"hook lambda={lam.text()} mu=({p},1^{q}): {got!r} != {want!r}"
                )
            got = kronecker_one_box(lam, d - 1)
            want = kronecker_oracle_expansion(lam, Partition([d - 1, 1]))
            yield None if got == want else (
                f"one-box lambda={lam.text()} a={d - 1}: {got!r} != {want!r}"
            )


@_sweep
def sweep_fixture() -> SweepResult:
    """The d=3 worked product (2,1) x (2,1) comes out of the three procedures
    and of the dispatcher, whose `auto` takes the one-box path."""
    lam = Partition([2, 1])
    want = {
        Partition([3]): 1,
        Partition([2, 1]): 1,
        Partition([1, 1, 1]): 1,
    }
    paths = {
        "general": kronecker_general(lam, lam),
        "auto": kronecker(lam, lam)[0],
        "one-box": kronecker_one_box(lam, 2),
        "hook": kronecker_hook(lam, 2, 1),
    }
    for name, got in paths.items():
        yield None if got.terms == want else f"{name} path produced {got!r}"


@_sweep
def sweep_contingency(max_d: int = 8) -> SweepResult:
    """Margin enumeration has the RSK cardinality up to max_d, and the
    permutation-module character identity holds for the divided-power product
    up to d = 6, for weights of up to 4 entries.

    A pair with both checks is enumerated once: its count is the number of
    summands of its product, and its characters check follows its count."""
    for d in range(0, max_d + 1):
        parts_d = partitions_of(d)
        chars = d <= 6
        # One Kostka row per weight, each weight with the index of its row
        # and, when its characters are checked, its permutation character;
        # the RSK dot product is computed once per pair of distinct rows.
        index = {}
        weights = [
            (
                w,
                index.setdefault(tuple(kostka(v, w) for v in parts_d), len(index)),
                perm_row(w.sorted_parts()) if chars else None,
            )
            for w in _weights_up_to(d, 4)
        ]
        rsk = [[sum(map(mul, a, b)) for b in index] for a in index]
        for mu, i, perm_mu in weights:
            rsk_mu, sums = rsk[i], mu.entries
            for lam, j, perm_lam in weights:
                if chars:
                    summands = gamma_tensor_gamma(mu, lam).summands
                    count = len(summands)
                else:
                    count = 0
                    for count, _ in enumerate(_contingency_rows(sums, lam.entries), 1):
                        pass
                yield None if count == rsk_mu[j] else (
                    f"count mu={mu.text()} lambda={lam.text()}: {count} != {rsk_mu[j]}"
                )
                if chars:
                    # The character of the product is the column sums of its
                    # summands' permutation characters.
                    rows = map(perm_row, map(Composition.sorted_parts, summands))
                    got = list(map(sum, zip(*rows)))
                    yield None if got == list(map(mul, perm_mu, perm_lam)) else (
                        f"characters mu={mu.text()} lambda={lam.text()}"
                    )


@_sweep
def sweep_weyl(max_d: int = 7) -> SweepResult:
    """Weyl filtrations are non-negative and match the class-sum oracle, and
    the dual Weyl filtration of lam x Wedge^nu matches the oracle at lam',
    for weights nu of up to 4 entries."""
    for d in range(0, max_d + 1):
        weights = _weights_up_to(d, 4)
        # The oracle reads nu only through its block sizes, so each value is
        # computed once per (shape, blocks) and shared by lam, lam' and every
        # weight that permutes nu.
        oracle = {}

        def want_at(shape, nu):
            key = (shape, nu.sorted_parts())
            if key not in oracle:
                oracle[key] = internal_h_oracle(shape, nu)
            return oracle[key]

        for lam in partitions_of(d):
            conj = lam.conjugate()
            for nu in weights:
                got = weyl_tensor_gamma(lam, nu)
                if not got.is_nonnegative():
                    yield f"negative coefficient lambda={lam.text()} nu={nu.text()}"
                    continue
                want, want_conj = want_at(lam, nu), want_at(conj, nu)
                if got != want:
                    yield f"lambda={lam.text()} nu={nu.text()}: {got!r} != {want!r}"
                    continue
                wedge = weyl_tensor_wedge(lam, nu)
                yield None if wedge == want_conj else (
                    f"wedge lambda={lam.text()} nu={nu.text()}: {wedge!r} != {want_conj!r}"
                )


# Expected output family for each ordered family pair when 2 is invertible.
_EXPECTED_FAMILY = {
    (GAMMA, GAMMA): GAMMA,
    (GAMMA, SYM): SYM,
    (GAMMA, WEDGE): WEDGE,
    (SYM, GAMMA): SYM,
    (SYM, SYM): SYM,
    (SYM, WEDGE): WEDGE,
    (WEDGE, GAMMA): WEDGE,
    (WEDGE, SYM): WEDGE,
    (WEDGE, WEDGE): SYM,
}


@_sweep
def sweep_exptable(max_d: int = 6) -> SweepResult:
    """All nine exponential products have the stated family and summands,
    and the undefined Sym/Wedge case raises, for weights of up to 3 entries."""
    for d in range(0, max_d + 1):
        weights = _weights_up_to(d, 3)
        for wl in weights:
            for wr in weights:
                summands = tuple(m.flatten() for m in iter_contingency(wl, wr))
                for (fl, fr), family in _EXPECTED_FAMILY.items():
                    got = exponential_tensor(ExpFunctor(fl, wl), ExpFunctor(fr, wr))
                    yield None if got.family == family and got.summands == summands else (
                        f"{fl}^{wl.text()} x {fr}^{wr.text()} gave {got!r}"
                    )
                zero_mode = exponential_tensor(
                    ExpFunctor(SYM, wl), ExpFunctor(WEDGE, wr), CharTwoMode.TWO_ZERO
                )
                yield None if zero_mode.family == SYM and zero_mode.summands == summands else (
                    f"Sym^{wl.text()} x Wedge^{wr.text()} with 2=0 gave {zero_mode!r}"
                )
                try:
                    exponential_tensor(
                        ExpFunctor(SYM, wl),
                        ExpFunctor(WEDGE, wr),
                        CharTwoMode.TWO_NONZERO_NONUNIT,
                    )
                except UndefinedProductError:
                    yield None
                else:
                    yield (
                        f"Sym^{wl.text()} x Wedge^{wr.text()} did not raise for nonzero nonunit 2"
                    )


@_sweep
def sweep_jt(max_d: int = 8) -> SweepResult:
    """Re-expanding the signed determinant terms through Kostka numbers
    recovers each Schur function exactly."""
    for d in range(0, max_d + 1):
        parts_d = partitions_of(d)
        for mu in parts_d:
            acc = {lam: 0 for lam in parts_d}
            for sign, nu in jacobi_trudi(mu):
                for lam in parts_d:
                    acc[lam] += sign * kostka(lam, nu)
            exact = all(c == (1 if lam == mu else 0) for lam, c in acc.items())
            yield None if exact else f"mu={mu.text()}: {acc}"


@_sweep
def sweep_chars(max_d: int = 8) -> SweepResult:
    """Row orthogonality of the character table in every degree."""
    for d in range(0, max_d + 1):
        parts_d = partitions_of(d)
        d_fact = factorial(d)
        for i, lam in enumerate(parts_d):
            for mu in parts_d[i:]:
                total = sum(
                    class_size(rho) * mn_character(lam, rho) * mn_character(mu, rho)
                    for rho in parts_d
                )
                want = d_fact if lam == mu else 0
                yield None if total == want else (
                    f"lambda={lam.text()} mu={mu.text()}: {total} != {want}"
                )


@_sweep
def sweep_dims(max_d: int = 8) -> SweepResult:
    """Dimension identity: multiplicities weighted by hook-length dimensions
    multiply, for every pair through the dispatching Kronecker."""
    for d in range(0, max_d + 1):
        parts_d = partitions_of(d)
        for i, lam in enumerate(parts_d):
            for mu in parts_d[i:]:
                expansion, _ = kronecker(lam, mu)
                total = sum(c * dimension(al) for al, c in expansion.terms.items())
                want = dimension(lam) * dimension(mu)
                yield None if total == want else (
                    f"lambda={lam.text()} mu={mu.text()}: {total} != {want}"
                )


@_sweep
def sweep_lr(max_d: int = 7) -> SweepResult:
    """Tableau counts agree with induced-character inner products."""
    for d in range(0, max_d + 1):
        for lam in partitions_of(d):
            for a in range(0, d + 1):
                for mu in partitions_of(a):
                    for nu in partitions_of(d - a):
                        got = lr_coeff(lam, mu, nu)
                        want = lr_oracle(lam, mu, nu)
                        yield None if got == want else (
                            f"({lam.text()}; {mu.text()}, {nu.text()}): {got} != {want}"
                        )


#: Suite names in the order `all` runs them; suite x is the function sweep_x.
SUITE_NAMES = ("kron", "fastpath", "fixture", "contingency", "weyl", "exptable", "jt",
               "chars", "dims", "lr")


def run_suites(name: str, max_d: int | None = None):
    """Run the suite `name`, or every suite in order for "all", and return the
    list of results.  With max_d every sweep but the fixture runs up to that
    degree; without it, each runs at the default of its signature."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    results = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        # Looked up when called, so a sweep replaced on this module (wrapped
        # for timing, or patched in a test) is the one that runs.
        sweep = globals()[f"sweep_{suite}"]
        results.append(sweep() if max_d is None or suite == "fixture" else sweep(max_d))
    return results
