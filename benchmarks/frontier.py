"""The frontier table: cold lam = mu squares by the general algorithm and by
the character oracle, each run in a fresh process.

    python benchmarks/frontier.py                       # d = 18, 20, 22; 12 pairs
    python benchmarks/frontier.py --degrees 20 22 --pairs 3 --out frontier.json
    python benchmarks/frontier.py --case 4,3,2,1 4,3,2,1 --pairs 1   # that pair only
    python benchmarks/frontier.py --src OTHER_CHECKOUT/src   # measure another tree

Each run is a child interpreter that imports polykron from `--src` (default:
this checkout's src), computes one Kronecker product from cold memos, and
prints its process CPU for the call, its peak resident memory (VmHWM from
/proc/self/status, which unlike ru_maxrss does not inherit the starter's
peak) and the sha256 of the expansion.  The two sides alternate: pair i
runs general first when i is even and the oracle first when it is odd.  Both
sides must give the same expansion in every run; otherwise the exit code is
1, after the JSON is written.

The JSON has a fixed schema: the format name, the git sha of `--src`'s
checkout, the Python version, the host, the number of pairs, and per case
(d, lam, mu) whether the sha256 matched and, per side, the raw lists of
cpu_s and vmhwm_mb, their medians and the number of pairs in which the side
used less CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

FORMAT = "polykron-frontier/1"
SIDES = ("general", "oracle")
#: The named square at each degree.
SQUARES = {
    16: (6, 4, 3, 2, 1),
    18: (6, 5, 4, 2, 1),
    20: (7, 5, 4, 2, 1, 1),
    22: (8, 6, 4, 2, 1, 1),
    24: (8, 6, 4, 3, 2, 1),
    26: (9, 6, 5, 3, 2, 1),
}
DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import hashlib, json, sys, time
from polykron import Partition, kronecker_general, kronecker_oracle_expansion

lam, mu = (Partition(tuple(map(int, a.split(",") if a else ()))) for a in sys.argv[1:3])
run = kronecker_general if sys.argv[3] == "general" else kronecker_oracle_expansion
start = time.process_time()
got = run(lam, mu)
cpu = time.process_time() - start
hwm = None
try:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1]) / 1024
except OSError:
    pass
digest = hashlib.sha256(repr([(p.parts, c) for p, c in got.items()]).encode()).hexdigest()
print(json.dumps({"cpu_s": cpu, "vmhwm_mb": hwm, "sha256": digest}))
"""


def _parts(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",")) if text else ()


def run_child(src: Path, lam: tuple, mu: tuple, side: str) -> dict:
    """One cold product in a fresh interpreter: {cpu_s, vmhwm_mb, sha256}."""
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [",".join(map(str, lam)), ",".join(map(str, mu)), side]
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(src: Path, lam: tuple, mu: tuple, pairs: int) -> dict:
    """The alternated runs of one case, summarised."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_child(src, lam, mu, side))
    digests = {r["sha256"] for side in SIDES for r in runs[side]}
    sides = {}
    for side in SIDES:
        other = runs[SIDES[1] if side == SIDES[0] else SIDES[0]]
        cpu = [r["cpu_s"] for r in runs[side]]
        hwm = [r["vmhwm_mb"] for r in runs[side]]
        sides[side] = {
            "cpu_s": cpu,
            "vmhwm_mb": hwm,
            "median_cpu_s": _median(cpu),
            "median_vmhwm_mb": _median(hwm),
            "pairs_won": sum(a < b["cpu_s"] for a, b in zip(cpu, other)),
        }
    return {
        "d": sum(lam),
        "lam": list(lam),
        "mu": list(mu),
        "sha256_match": len(digests) == 1,
        "sha256": sorted(digests),
        "sides": sides,
    }


def _git_sha(src: Path):
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", type=int, nargs="*", choices=sorted(SQUARES),
                    help="named squares to run (default 18 20 22, or none with --case)")
    ap.add_argument("--case", nargs=2, action="append", default=[], metavar=("LAM", "MU"),
                    help="another pair, as comma-separated parts; may repeat")
    ap.add_argument("--pairs", type=int, default=12, help="alternated runs per side")
    ap.add_argument("--src", type=Path, default=DEFAULT_SRC, help="directory holding polykron")
    ap.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    degrees = args.degrees if args.degrees is not None else [] if args.case else [18, 20, 22]
    cases = [(SQUARES[d], SQUARES[d]) for d in degrees]
    cases += [(_parts(lam), _parts(mu)) for lam, mu in args.case]
    src = args.src.resolve()
    report = {
        "format": FORMAT,
        "git_sha": _git_sha(src),
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "system": platform.system(),
                 "cpus": os.cpu_count()},
        "pairs": args.pairs,
        "cases": [],
    }
    for lam, mu in cases:
        case = measure(src, lam, mu, args.pairs)
        report["cases"].append(case)
        summary = ", ".join(
            f"{side} {s['median_cpu_s']:.3f} s {s['median_vmhwm_mb'] or 0:.1f} MB"
            f" ({s['pairs_won']} won)"
            for side, s in case["sides"].items()
        )
        match = "same expansion" if case["sha256_match"] else "EXPANSIONS DIFFER"
        print(f"d={case['d']} {lam} x {mu}: {summary}; {match}", file=sys.stderr)
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if all(case["sha256_match"] for case in report["cases"]) else 1


if __name__ == "__main__":
    sys.exit(main())
