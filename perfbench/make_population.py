"""Regenerate population.json and reference.json.

    python3 perfbench/make_population.py               (from the root of a checkout)
    python3 perfbench/make_population.py --reference   (reference.json only)

kron-batch and cli-cache draw their queries from these candidates by cost
band, so that seeds differ in the pairs drawn but not in how much work they
add up to.  The cost of a pair is the time of kronecker(lam, mu, "auto") in
a fresh interpreter.  Only the order of the costs is used, so the file need
not be remade for another machine; remake it when the population changes
or when a change to polykron reorders the costs a lot.

reference.json holds the expansion of every candidate pair by the
character-theory oracle, kronecker_oracle_expansion, which shares no code
path with the combinatorial one.  run.py checks each output against it, so
the check costs no time in a run and does not depend on the oracle of the
commit being measured.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import bench_inputs as bi

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "population.json"
REFERENCE = HERE / "reference.json"

KRON_PER_CELL = {"general": 16, "two-row": 8, "hook": 8, "one-box": 8}
CLI_PER_DEGREE = 150


def partitions(d: int) -> tuple:
    """All partitions of d as tuples, in descending lexicographic order."""
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for first in range(min(remaining, largest), 0, -1):
            rec(remaining - first, first, acc + [first])

    rec(d, d, [])
    return tuple(out)


def mu_shapes(stratum: str, d: int, rows: int):
    """Shapes of mu in a kron-batch stratum; rows only matters for general."""
    ps = partitions(d)
    if stratum == "general":
        return [p for p in ps if len(p) == rows and not bi.is_hook(p)]
    if stratum == "two-row":
        return [p for p in ps if len(p) == 2 and p[1] >= 2]
    if stratum == "hook":
        return [p for p in ps if len(p) >= 3 and bi.is_hook(p)]
    return [(d - 1, 1)]


TIMER = """
import sys, time
from polykron import Partition, kronecker
lam, mu = (Partition(map(int, a.split(","))) for a in sys.argv[1:3])
t0 = time.perf_counter()
kronecker(lam, mu, "auto")
print(time.perf_counter() - t0)
"""


def cold_cost(lam, mu) -> float:
    """Seconds kronecker(lam, mu, "auto") takes with cold memo tables."""
    out = subprocess.run(
        [sys.executable, "-c", TIMER, ",".join(map(str, lam)), ",".join(map(str, mu))],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True)
    return float(out.stdout)


def kron_cells(rng):
    """(stratum, cell, lam, mu): per cell of d, rows of lambda and rows of mu,
    a fixed number of pairs drawn uniformly."""
    for stratum, per_cell in KRON_PER_CELL.items():
        mu_rows = (3, 4, 5) if stratum == "general" else (0,)
        for d in bi.KRON_DEGREES:
            for lam_rows in range(2, 6):
                lams = [p for p in partitions(d) if len(p) == lam_rows]
                for rows in mu_rows:
                    mus = mu_shapes(stratum, d, rows)
                    pairs = sorted({(rng.choice(lams), rng.choice(mus))
                                    for _ in range(per_cell * 4)})
                    for lam, mu in rng.sample(pairs, min(per_cell, len(pairs))):
                        yield stratum, f"{d}/{lam_rows}/{rows}", lam, mu


def cli_pairs(rng):
    for d in bi.CLI_DEGREES:
        ps = partitions(d)
        pairs = sorted({(rng.choice(ps), rng.choice(ps)) for _ in range(CLI_PER_DEGREE * 4)})
        yield from rng.sample(pairs, CLI_PER_DEGREE)


REFERENCE_JOB = """
import json, sys
from polykron import Partition, kronecker_oracle_expansion
out = []
for lam, mu in json.load(sys.stdin):
    e = kronecker_oracle_expansion(Partition(lam), Partition(mu))
    out.append([lam, mu, sorted([list(p.parts), c] for p, c in e.items())])
json.dump(out, sys.stdout)
"""


def write_reference() -> None:
    """Oracle expansion of every candidate pair, one pair per line."""
    pop = json.loads(OUT.read_text(encoding="utf-8"))
    pairs = sorted({(tuple(r["lam"]), tuple(r["mu"])) for rows in pop.values() for r in rows})
    proc = subprocess.run([sys.executable, "-c", REFERENCE_JOB], input=json.dumps(pairs),
                          env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout)
    with REFERENCE.open("w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in rows) + "\n]\n")
    print(f"wrote the oracle expansions of {len(rows)} pairs to {REFERENCE}")


def main() -> int:
    if sys.argv[1:] == ["--reference"]:
        write_reference()
        return 0
    rng = random.Random("population")
    kron = [
        {"stratum": s, "cell": c, "lam": lam, "mu": mu, "cost_s": cold_cost(lam, mu)}
        for s, c, lam, mu in kron_cells(rng)
    ]
    cli = [{"lam": lam, "mu": mu, "cost_s": cold_cost(lam, mu)} for lam, mu in cli_pairs(rng)]
    with OUT.open("w", encoding="utf-8") as fh:  # one candidate per line
        fh.write("{\n")
        for name, rows in (("kron-batch", kron), ("cli-cache", cli)):
            body = ",\n".join(json.dumps(r) for r in rows)
            fh.write(f'"{name}": [\n{body}\n]{"," if name == "kron-batch" else ""}\n')
        fh.write("}\n")
    print(f"wrote {len(kron)} kron-batch and {len(cli)} cli-cache candidates to {OUT}")
    write_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
