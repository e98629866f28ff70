"""Seeded inputs for the benchmark workloads.

Inputs are plain tuples of integers made with the standard library only, so
the program under test receives nothing but the generated partitions.  The
same (workload, seed, seconds) always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

WORKLOADS = ("kron-batch", "cli-cache", "oracle-check")
POPULATION = Path(__file__).resolve().parent / "population.json"

#: Operations per second of --seconds: a run's timed phase lasts about
#: --seconds on a 2-core x86 machine.  oracle-check's size is fixed by the
#: default sweep bounds.
OPS_PER_SECOND = {"kron-batch": 7, "cli-cache": 3.4}
#: Fewest operations in a run, so that p90 has at least ten samples above it.
MIN_OPS = 100

KRON_DEGREES = (13, 14, 15)
# Share of each shape of mu, as in a library user's mix: general shapes go
# through the Jacobi-Trudi resolution, the rest through the fast paths.
KRON_STRATA = (("general", 0.6), ("two-row", 0.2), ("hook", 0.1), ("one-box", 0.1))

CLI_DEGREES = (9, 10, 11)
#: Distinct pairs of each degree in the CLI stream.  The cache file, which
#: every call loads and saves, grows most with the pairs at d = 11.
CLI_POOL = {10: 12, 9: 12, 11: 6}
CLI_DISTINCT_PAIRS = sum(CLI_POOL.values())

#: Check count of each sweep at the default bounds.  A sweep that runs a
#: different number of checks counts as failed.
ORACLE_CHECKS = {
    "kron": 210,
    "fastpath": 610,
    "fixture": 4,
    "contingency": 128291,
    "weyl": 4822,
    "exptable": 31801,
    "jt": 67,
    "chars": 493,
    "dims": 493,
    "lr": 2760,
}


def is_hook(p) -> bool:
    return len(p) >= 2 and all(x == 1 for x in p[1:])


def _systematic(rng, candidates, k: int):
    """k draws from (weight, cost, item) candidates, one per quantile band.

    Candidates are ordered by cost and cut into k bands of equal weight.
    Each band gives the item at one random offset into it, so seeds differ
    in the items drawn but not in how much work they add up to.  Costs are
    heavy-tailed, so the costliest fifth of the bands always give the item
    at their centre: a single draw from the tail would otherwise move the
    total by a quarter.
    """
    candidates = list(candidates)
    rng.shuffle(candidates)
    candidates.sort(key=lambda c: c[1])
    step = sum(c[0] for c in candidates) / k
    offset, fixed_from = rng.random(), k - max(1, k // 5)
    targets = [(j + (offset if j < fixed_from else 0.5)) * step for j in range(k)]
    acc, out = 0.0, []
    for weight, _, item in candidates:
        acc += weight
        while len(out) < k and targets[len(out)] < acc:
            out.append(item)
    while len(out) < k:  # rounding at the very end of the cumulative weight
        out.append(candidates[-1][2])
    return out


@lru_cache(maxsize=None)
def population() -> dict:
    """Candidate pairs with their measured cold cost (see make_population.py)."""
    return json.loads(POPULATION.read_text(encoding="utf-8"))


def _candidates(workload: str, stratum: str | None = None):
    """(weight, cost, (lam, mu)); in kron-batch every cell of d, rows of lambda
    and rows of mu has the same weight, so those are uniform."""
    rows = [r for r in population()[workload] if r.get("stratum") == stratum]
    cells = {}
    for r in rows:
        cells[r.get("cell")] = cells.get(r.get("cell"), 0) + 1
    return [(1 / (len(cells) * cells[r.get("cell")]), r["cost_s"],
             (tuple(r["lam"]), tuple(r["mu"]))) for r in rows]


def _ops(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(OPS_PER_SECOND[workload] * seconds))


def kron_batch(seed: int, seconds: float):
    """(lambda, mu) queries at d = 13..15; lambda has 2-5 rows, mu is stratified.

    Each stratum has a fixed share of the batch, split evenly over the
    degrees (a remainder goes to the highest degrees), and each stratum and
    degree is drawn by cost band (see _systematic).  So seeds differ in the
    shapes drawn, not in the mix.  General queries at d = 15 take about half
    of a batch's time, and without the split by degree their number ranged
    from 18 to 23 in a batch of 105 over five seeds.
    """
    rng = random.Random(f"kron-batch/{seed}")
    n = _ops("kron-batch", seconds)
    counts = [round(share * n) for _, share in KRON_STRATA[:-1]]
    counts.append(n - sum(counts))
    degrees = sorted(KRON_DEGREES, reverse=True)
    queries = []
    for (stratum, _), count in zip(KRON_STRATA, counts):
        candidates = _candidates("kron-batch", stratum)
        for j, d in enumerate(degrees):
            k = count // len(degrees) + (j < count % len(degrees))
            queries.extend(_systematic(rng, [c for c in candidates if sum(c[2][0]) == d], k))
    rng.shuffle(queries)
    return queries


def cli_stream(seed: int, seconds: float):
    """Zipf-repeated CLI queries on 30 distinct pairs at d = 9..11.

    mu has any shape, so the CLI's auto dispatch picks every method.  The
    pairs are drawn by cost band within each degree, like kron-batch, but
    with a fixed draw: the seed orders the stream.  The stream asks each
    pair once and then repeats them by popularity.  How big the cache file
    is at each call sets most of the run's time; with the pairs and their
    first calls in seeded places, it moved the run's time by a fifth.
    """
    rng = random.Random(f"cli-cache/{seed}")
    pool_rng = random.Random("cli-cache/pool")
    candidates = _candidates("cli-cache")
    cost = {pair: c for _, c, pair in candidates}
    # Popularity ranks take the degrees in turn, in CLI_POOL's order, and
    # within a degree the pairs at cost quantiles 1/2, 1/4, 3/4, 1/8, ...
    # The most popular pair takes a quarter of the repeats, so the popular
    # pairs are neither all of one degree, nor all cheap, nor all dear.
    by_degree = []
    for d, k in CLI_POOL.items():
        pool = _systematic(pool_rng, [c for c in candidates if sum(c[2][0]) == d], k)
        by_degree.append(_by_quantile(sorted(pool, key=cost.get)))
    by_rank = [pairs[i] for i in range(max(CLI_POOL.values()))
               for pairs in by_degree if i < len(pairs)]
    first = list(by_rank)
    rng.shuffle(first)
    repeats = _zipf_counts(len(by_rank), _ops("cli-cache", seconds) - len(by_rank))
    stream = [pair for pair, n in zip(by_rank, repeats) for _ in range(n)]
    rng.shuffle(stream)
    return first + stream


def _by_quantile(pool):
    """The items of a cost-sorted pool at quantiles 1/2, 1/4, 3/4, 1/8, ..."""
    free, out = list(range(len(pool))), []
    for rank in range(1, len(pool) + 1):
        target = _van_der_corput(rank) * len(pool)
        i = min(free, key=lambda i: abs(i + 0.5 - target))
        free.remove(i)
        out.append(pool[i])
    return out


def _zipf_counts(ranks: int, total: int):
    """Calls per popularity rank, proportional to 1/rank (largest remainder)."""
    weights = [1 / r for r in range(1, ranks + 1)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(ranks), key=lambda r: counts[r] - shares[r])
    for r in by_remainder[: total - sum(counts)]:
        counts[r] += 1
    return counts


def _van_der_corput(n: int) -> float:
    """n-th term of the base-2 van der Corput sequence: 1/2, 1/4, 3/4, 1/8, ..."""
    q, scale = 0.0, 0.5
    while n:
        n, bit = divmod(n, 2)
        q += bit * scale
        scale /= 2
    return q


def oracle_suites(seed: int, seconds: float):
    """The sweeps at their default bounds; they do not depend on the seed."""
    return list(ORACLE_CHECKS)


GENERATORS = {
    "kron-batch": kron_batch,
    "cli-cache": cli_stream,
    "oracle-check": oracle_suites,
}


def generate(workload: str, seed: int, seconds: float):
    return GENERATORS[workload](seed, seconds)
