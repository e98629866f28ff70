"""polykron benchmark: three closed-loop workloads, checked against the oracle.

    python3 perfbench/run.py --workload kron-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout.  The package is imported from the checkout's
src/ in fresh interpreters, one client at a time, so every run starts with
cold memo tables.  Times are scaled to a reference speed of the machine
(bench_clock.py); the raw wall time is printed before the result.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run,
which also makes one untraced pass to measure the tracing overhead.  Every
output is compared with the character-theory oracle's expansion, stored in
reference.json, outside the timed phase; the exit code is 1 when any output
is wrong, and 2, with no result printed, when the benchmark cannot run at
all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_clock
import bench_inputs
from bench_inputs import ORACLE_CHECKS, WORKLOADS
from bench_worker import DISTINCT_ARGS, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "bench_worker.py"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 9
JOB_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # a user's interpreter caches bytecode
    return env


def _check_output(argv, env) -> str:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def warm_up(env) -> None:
    """Import once, discarded: compiles bytecode and checks where polykron is from."""
    where = _check_output(
        [sys.executable, "-c", "import polykron, polykron.cli; print(polykron.__file__)"], env)
    if Path(where.strip()).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"polykron was imported from {where.strip()}, not from {SRC}")


#: A set-up probe: a fresh interpreter measures the machine's speed, then
#: imports polykron and its CLI.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from bench_clock import RefClock
clock = RefClock()
clock.calibrate()
clock.calibrate()
import polykron, polykron.cli
print(*clock.cal_seconds())
"""


def setup_seconds(env) -> float:
    """Median time, at the reference speed, for a fresh interpreter to start
    and import polykron and its CLI.  Each probe measures the machine's
    speed in its own process; the calibrations are not counted, and the
    median probe is scaled by the median calibration."""
    times, cal = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = _check_output([sys.executable, "-c", SETUP_PROBE, str(HERE)], env)
        elapsed = time.perf_counter() - t0
        first, second = map(float, out.split())
        times.append(elapsed - first - second)
        cal.append(second)
    return statistics.median(times) * bench_clock.REFERENCE_CAL_S / statistics.median(cal)


def run_job(job: str, spec: dict, work: Path, env) -> dict:
    spec_path = work / f"{job}-spec.json"
    out_path = work / f"{job}-out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _check_output([sys.executable, str(WORKER), job, str(spec_path), str(out_path)], env)
    return json.loads(out_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- checking


def load_reference() -> dict:
    """{(lam, mu): {partition: multiplicity}} from the oracle's expansions."""
    rows = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {(tuple(lam), tuple(mu)): _as_dict(terms) for lam, mu, terms in rows}


def _as_dict(terms) -> dict:
    return {tuple(p): c for p, c in terms}


def check_kron(queries, phase, expected) -> dict:
    """{query index: (failed operations, message)} for wrong or failed queries."""
    failures = {}
    for k, ((lam, mu), out) in enumerate(zip(queries, phase["outputs"])):
        if "error" in out:
            failures[k] = (1, f"{lam} x {mu}: {out['error']}")
        elif _as_dict(out["terms"]) != expected[(lam, mu)]:
            failures[k] = (1, f"{lam} x {mu}: {out['method']} gave {out['terms']}")
    return failures


def check_cli(queries, phase, expected) -> dict:
    """{call index: (failed operations, message)} for failed calls or wrong reports."""
    failures = {}
    for k, ((lam, mu), out) in enumerate(zip(queries, phase["outputs"])):
        if out["code"] != 0:
            failures[k] = (1, f"{lam} x {mu}: exit {out['code']}: {out['stderr']}")
            continue
        try:
            report = json.loads(out["stdout"])
            got = {tuple(t["partition"]): t["mult"] for t in report["expansion"]}
            ok = (
                report["d"] == sum(lam)
                and report["basis"] == "Weyl"
                and got == expected[(lam, mu)]
                and json.dumps(report, indent=2) + "\n" == out["stdout"]
            )
        except (ValueError, KeyError, TypeError) as exc:
            failures[k] = (1, f"{lam} x {mu}: unreadable report ({exc})")
            continue
        if not ok:
            failures[k] = (1, f"{lam} x {mu}: report {out['stdout']!r}")
    return failures


def check_oracle(phase) -> dict:
    """{suite: (failed operations, message)}: a sweep that fails or runs another
    number of checks fails all of its checks."""
    failures = {}
    got = {r["name"]: r for r in phase["outputs"]}
    for name, checks in ORACLE_CHECKS.items():
        r = got.get(name)
        if r is None or not r["ok"] or r["checks"] != checks:
            failures[name] = (checks, f"{name}: expected PASS ({checks} checks), got {r and r['line']}")
    return failures


def _attempted(workload: str, inputs) -> int:
    if workload == "oracle-check":
        return sum(ORACLE_CHECKS[name] for name in inputs)
    return len(inputs)


# ---------------------------------------------------------------- metrics


#: Percentiles on each side of p50 and p90 whose mean reports them.  One
#: run has 100-210 operations, and the tail ones are few and costly: the
#: 90th percentile alone moved by a tenth between passes of the same inputs.
PERCENTILE_BAND = 5


def _latency_ms(workload: str, phase) -> tuple:
    """(p50, p90, samples) of per-operation latency in milliseconds.

    pN is the mean of the percentiles N - 5 .. N + 5, a smoothed estimate
    of the N-th.  The sweeps do not expose single checks, so on oracle-check
    each check is given its sweep's mean time per check and the percentiles
    are taken over all checks.
    """
    band = range(-PERCENTILE_BAND, PERCENTILE_BAND + 1)
    if workload == "oracle-check":
        samples = []
        for r in phase["outputs"]:
            if r["checks"]:
                samples.append((phase["suite_s"][r["name"]] / r["checks"], r["checks"]))
        samples.sort()
        total = sum(n for _, n in samples)

        def pct(q):
            seen = 0
            for value, n in samples:
                seen += n
                if seen >= q * total / 100:
                    return value * 1e3
            return samples[-1][0] * 1e3

        percentiles = {q: pct(q) for q in range(1, 100)}
    else:
        lat = phase["latencies"]
        total = len(lat)
        percentiles = dict(zip(range(1, 100), (t * 1e3 for t in statistics.quantiles(lat, n=100))))
    p50, p90 = (statistics.fmean(percentiles[q + k] for k in band) for q in (50, 90))
    return p50, p90, total


def end_to_end(workload, inputs, phase, setup_s) -> dict:
    p50, p90, _ = _latency_ms(workload, phase)
    values = {
        "setup_s": setup_s,
        "wall_s": phase["wall_s"],
        "ops_per_s": _attempted(workload, inputs) / phase["wall_s"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_name(fn: str) -> str:
    """sweeps.sweep_kron -> sweeps.kron; other names are module.function."""
    return fn.replace("sweeps.sweep_", "sweeps.", 1)


def per_layer(trace: dict, *, general_vs_oracle: float, cache_file_mb: float,
              overhead_s: float) -> dict:
    """Per-layer metrics from a merged trace summary."""
    fns = trace["functions"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for fn in TRACED:
        s = fns[fn]
        name = _layer_name(fn)
        if fn.startswith("sweeps.") or fn == "cli.run":
            put(f"{name}.total_s", s["total_s"], "s")
            continue
        put(f"{name}.calls", s["calls"], "count")
        put(f"{name}.self_s", s["self_s"], "s")
        put(f"{name}.total_s", s["total_s"], "s")
        if fn in DISTINCT_ARGS:
            put(f"{name}.distinct_args", s["distinct_args"], "count")
    lr = fns["schur.lr_coeff"]
    put("schur.lr_coeff.nonzero_ratio", lr["nonzero"] / lr["calls"] if lr["calls"] else 0.0, "ratio")
    put("partitions.iter_contingency.matrices", fns["partitions.iter_contingency"]["yielded"], "count")
    put("internal_product.general_vs_oracle_ratio", general_vs_oracle, "ratio")
    put("cli.cache_file_mb", cache_file_mb, "MB")
    put("trace_overhead_s", overhead_s, "s")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- workloads


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path, env):
    """Returns (metrics, attempted, failed, notes)."""
    inputs = bench_inputs.generate(workload, seed, seconds)
    spec = {"workload": workload, "inputs": inputs, "trace": False, "work_dir": str(work)}
    if workload == "oracle-check":
        def check(ph):
            return check_oracle(ph)
    else:
        reference = load_reference()
        missing = sorted(set(inputs) - set(reference))
        if missing:
            raise BenchError(f"{len(missing)} pairs have no reference expansion, "
                             f"e.g. {missing[0]}; run make_population.py --reference")
        checker = check_kron if workload == "kron-batch" else check_cli

        def check(ph):
            return checker(inputs, ph, reference)

    warm_up(env)
    setup_s = None if trace else setup_seconds(env)

    def phase(traced: bool) -> dict:
        shutil.rmtree(work / "spans", ignore_errors=True)
        (work / "cache.json").unlink(missing_ok=True)  # cli-cache starts empty
        return run_job("phase", {**spec, "trace": traced}, work, env)

    untraced = phase(False)
    failures = check(untraced)
    attempted = _attempted(workload, inputs)
    cal = untraced["cal_s"]
    notes = [f"input size: {attempted} operations, seed {seed}",
             f"raw wall time: {untraced['raw_wall_s']:.6g} s; {len(cal)} calibrations, "
             f"median {statistics.median(cal) * 1e3:.4g} ms (reference "
             f"{bench_clock.REFERENCE_CAL_S * 1e3:.4g} ms)"]
    if not trace:
        metrics = end_to_end(workload, inputs, untraced, setup_s)
        _, _, samples = _latency_ms(workload, untraced)
        notes.append(f"latency samples: {samples}")
    else:
        traced = phase(True)
        failures.update(check(traced))
        general_vs_oracle = 0.0
        if workload == "kron-batch":
            # Both sides untraced, cold and at the reference speed: the
            # general-path queries of the untraced pass against the oracle
            # on the same queries.
            general = [(q, t) for q, t, out in zip(inputs, untraced["latencies"],
                                                     untraced["outputs"])
                       if out.get("method") == "general"]
            oracle = run_job("oracle", {**spec, "inputs": [q for q, _ in general]}, work, env)
            general_vs_oracle = _ratio(sum(t for _, t in general), oracle["wall_s"])
        metrics = per_layer(
            traced["trace"],
            general_vs_oracle=general_vs_oracle,
            cache_file_mb=traced.get("cache_file_mb", 0.0),
            overhead_s=traced["raw_wall_s"] - untraced["raw_wall_s"],
        )
        if traced["trace"]["absent"]:
            notes.append(f"absent functions: {', '.join(traced['trace']['absent'])}")
    failed = sum(n for n, _ in failures.values())
    notes.append(f"error_rate: {failed / attempted:.6f} ({failed}/{attempted})")
    notes.extend(f"FAILED {msg}" for _, msg in list(failures.values())[:20])
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # An exception, unlike the default SIGTERM action, makes subprocess.run
    # kill the worker it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "polykron" / "__init__.py").is_file():
        print(f"error: no polykron package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    env = _env()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            with tempfile.TemporaryDirectory(dir=scratch) as work:
                m, a, f, notes = run_workload(
                    workload, args.seed, args.seconds, bool(args.trace), Path(work), env)
            for name, v in m.items():
                print(f"{workload:13s} {name:55s} {v['value']:.6g} {v['unit']}")
            for note in notes:
                print(f"{workload:13s} {note}")
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
