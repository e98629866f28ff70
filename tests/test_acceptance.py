"""Acceptance suite: one test per criterion, exact tolerances, stated bounds.

Every comparison is exact-integer; a single coefficient mismatch fails the
criterion, and so does a sweep that runs any other number of checks than its
stated count at its stated bounds.  Each test prints its own pass/fail line
(visible with -s or -rA).
The last two tests hold the engine to every expansion that the character
oracle stored in perfbench/reference.json, and to the oracle itself on
seeded pairs at d = 16, 17 and 18.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import time
from pathlib import Path

from polykron import Partition, kronecker, kronecker_oracle_expansion
from polykron._memo import clear_all
from polykron.sweeps import (
    sweep_chars,
    sweep_contingency,
    sweep_dims,
    sweep_exptable,
    sweep_fastpath,
    sweep_fixture,
    sweep_jt,
    sweep_kron,
    sweep_lr,
    sweep_weyl,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _finish(label, results, counts, elapsed, limit=None):
    """Report the sweeps and assert that each passed with its count of checks."""
    ok = all(r.ok for r in results)
    checks = [r.checks for r in results]
    status = "PASS" if ok and checks == counts else "FAIL"
    line = f"{status} {label}: {sum(checks)} checks in {elapsed:.1f}s"
    if not ok:
        line += " | " + "; ".join(r.failure for r in results if not r.ok)
    print(line)
    assert ok, line
    assert checks == counts, f"{label} ran {checks} checks, not {counts}"
    if limit is not None:
        assert elapsed <= limit, f"{label} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_kronecker_oracle_equivalence():
    t0 = time.time()
    result = sweep_kron(max_d=6)
    _finish("criterion 1 (kronecker vs character oracle, d<=6)",
            [result], [210], time.time() - t0, limit=60)


def test_criterion_2_fast_path_agreement():
    t0 = time.time()
    result = sweep_fastpath(max_d=8)
    _finish("criterion 2 (two-row/hook/one-box vs character oracle, d<=8)",
            [result], [610], time.time() - t0, limit=120)


def test_criterion_3_worked_d3_fixture():
    t0 = time.time()
    result = sweep_fixture()
    _finish("criterion 3 ((2,1) x (2,1) by all four paths)",
            [result], [4], time.time() - t0)


def test_criterion_4_contingency_identities():
    t0 = time.time()
    result = sweep_contingency(max_d=8)
    _finish("criterion 4 (margin counts d<=8, permutation characters d<=6)",
            [result], [128291], time.time() - t0)


def test_criterion_5_weyl_filtration_oracle_match():
    t0 = time.time()
    result = sweep_weyl(max_d=7)
    _finish("criterion 5 (weyl filtration positivity and oracle, d<=7)",
            [result], [4822], time.time() - t0)


def test_criterion_6_exponential_table():
    t0 = time.time()
    result = sweep_exptable(max_d=6)
    _finish("criterion 6 (nine-family table and undefined mode, d<=6)",
            [result], [31801], time.time() - t0)


def test_criterion_7_jacobi_trudi_roundtrip():
    t0 = time.time()
    result = sweep_jt(max_d=8)
    _finish("criterion 7 (signed determinant re-expansion, d<=8)",
            [result], [67], time.time() - t0)


def test_criterion_8_character_self_consistency():
    t0 = time.time()
    results = [sweep_chars(max_d=8), sweep_dims(max_d=8), sweep_lr(max_d=7)]
    _finish("criterion 8 (orthogonality d<=8, dimensions d<=8, LR double path d<=7)",
            results, [493, 493, 2760], time.time() - t0)


def test_every_reference_expansion_by_auto_and_general():
    # All 1,310 pairs at d = 9-11 and 13-15, unsampled, from cold memos; the
    # general pass reads the memo entries that the auto pass checked.
    rows = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert len(rows) == 1310
    t0 = time.time()
    clear_all()
    wrong = []
    for method in ("auto", "general"):
        for lam, mu, terms in rows:
            got, _ = kronecker(Partition(lam), Partition(mu), method)
            if {p.parts: c for p, c in got.terms.items()} != {tuple(p): c for p, c in terms}:
                wrong.append(f"{method} {tuple(lam)} x {tuple(mu)}")
    status = "FAIL" if wrong else "PASS"
    print(f"{status} reference expansions: {2 * len(rows)} checks in {time.time() - t0:.1f}s")
    assert not wrong, f"{len(wrong)} wrong, first {wrong[0]}"


# Seeded pairs above the reference degrees: for each d, 15 draws of two
# partitions of d with 3-6 rows each, uniform among those shapes
# (random.Random(1617)).
HIGH_DEGREE_PAIRS = {
    16: (
        ((5, 4, 3, 2, 2), (7, 4, 3, 2)),
        ((6, 4, 3, 2, 1), (6, 4, 4, 1, 1)),
        ((9, 3, 1, 1, 1, 1), (4, 4, 3, 2, 2, 1)),
        ((5, 5, 2, 2, 1, 1), (8, 7, 1)),
        ((9, 3, 1, 1, 1, 1), (6, 4, 3, 2, 1)),
        ((6, 4, 4, 1, 1), (5, 3, 3, 3, 2)),
        ((5, 3, 2, 2, 2, 2), (5, 3, 2, 2, 2, 2)),
        ((9, 4, 3), (8, 4, 2, 1, 1)),
        ((6, 3, 3, 2, 1, 1), (4, 4, 4, 3, 1)),
        ((6, 4, 3, 3), (5, 3, 3, 3, 1, 1)),
        ((4, 4, 3, 3, 1, 1), (4, 3, 3, 3, 2, 1)),
        ((10, 2, 2, 1, 1), (9, 5, 1, 1)),
        ((5, 3, 3, 3, 1, 1), (6, 3, 3, 2, 1, 1)),
        ((7, 3, 3, 1, 1, 1), (5, 5, 4, 2)),
        ((7, 3, 3, 3), (7, 4, 2, 1, 1, 1)),
    ),
    17: (
        ((7, 6, 4), (5, 5, 5, 1, 1)),
        ((9, 3, 3, 1, 1), (8, 3, 2, 2, 1, 1)),
        ((6, 5, 2, 2, 2), (7, 5, 5)),
        ((5, 4, 3, 3, 2), (5, 4, 3, 2, 2, 1)),
        ((8, 6, 2, 1), (6, 5, 2, 2, 2)),
        ((5, 5, 4, 3), (4, 3, 3, 3, 3, 1)),
        ((7, 6, 4), (6, 4, 4, 3)),
        ((8, 6, 3), (7, 5, 2, 2, 1)),
        ((4, 4, 4, 4, 1), (5, 3, 3, 2, 2, 2)),
        ((5, 3, 3, 3, 2, 1), (8, 5, 3, 1)),
        ((12, 1, 1, 1, 1, 1), (6, 4, 4, 2, 1)),
        ((4, 4, 4, 3, 1, 1), (5, 5, 5, 2)),
        ((7, 6, 2, 1, 1), (6, 3, 3, 2, 2, 1)),
        ((11, 2, 1, 1, 1, 1), (9, 5, 3)),
        ((7, 5, 2, 2, 1), (11, 3, 3)),
    ),
    18: (
        ((9, 4, 4, 1), (6, 4, 4, 2, 1, 1)),
        ((4, 3, 3, 3, 3, 2), (7, 4, 4, 2, 1)),
        ((5, 5, 5, 1, 1, 1), (12, 5, 1)),
        ((11, 6, 1), (9, 6, 1, 1, 1)),
        ((6, 5, 3, 2, 1, 1), (14, 1, 1, 1, 1)),
        ((8, 4, 2, 2, 2), (9, 7, 1, 1)),
        ((8, 4, 2, 2, 1, 1), (7, 5, 4, 1, 1)),
        ((8, 4, 2, 2, 1, 1), (15, 1, 1, 1)),
        ((7, 5, 4, 2), (5, 5, 3, 3, 2)),
        ((7, 4, 4, 1, 1, 1), (5, 5, 3, 3, 2)),
        ((7, 7, 2, 2), (5, 4, 4, 3, 1, 1)),
        ((12, 3, 3), (6, 6, 2, 2, 1, 1)),
        ((14, 2, 1, 1), (6, 5, 2, 2, 2, 1)),
        ((10, 4, 1, 1, 1, 1), (10, 4, 1, 1, 1, 1)),
        ((7, 7, 4), (8, 3, 3, 2, 2)),
    ),
}


def test_high_degree_pairs_by_auto_and_general_match_the_oracle():
    # The reference pairs stop at d = 15; these hold both methods to the
    # character oracle at d = 16, 17 and 18, in one process.
    assert [len(pairs) for pairs in HIGH_DEGREE_PAIRS.values()] == [15, 15, 15]
    t0 = time.time()
    wrong = []
    for d, pairs in HIGH_DEGREE_PAIRS.items():
        for lam, mu in pairs:
            lam, mu = Partition(lam), Partition(mu)
            assert lam.size == mu.size == d and 3 <= len(lam) <= 6 and 3 <= len(mu) <= 6
            want = kronecker_oracle_expansion(lam, mu)
            for method in ("auto", "general"):
                if kronecker(lam, mu, method)[0] != want:
                    wrong.append(f"{method} {lam.parts} x {mu.parts}")
    status = "FAIL" if wrong else "PASS"
    print(f"{status} d = 16-18 expansions: 90 checks in {time.time() - t0:.1f}s")
    assert not wrong, f"{len(wrong)} wrong, first {wrong[0]}"
