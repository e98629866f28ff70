"""Worker process of the benchmark: one fresh interpreter per job.

    python3 bench_worker.py phase SPEC.json OUT.json      timed phase of a workload
    python3 bench_worker.py oracle SPEC.json OUT.json     time of the oracle on the inputs
    python3 bench_worker.py cli SUMMARY.json ARGS...      traced `polykron` CLI call

SPEC holds the workload name, its generated inputs, whether to trace and a
scratch directory.  polykron is imported from PYTHONPATH, which run.py
points at the checkout's src/.  Memo tables are cold because every job is a
new process; no private cache of the package is touched.

An untraced job reports its times at the reference speed of bench_clock.py,
and its raw wall time next to them.  A traced job reports raw times only:
calibrations inside a traced span would count as the span's own time.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

from bench_clock import REFERENCE_CAL_S, RefClock, window_medians
from bench_inputs import ORACLE_CHECKS
from bench_tracer import Tracer, merge

TRACED = (
    "partitions.iter_contingency",
    "schur.lr_coeff",
    "schur.kostka",
    "schur.skew_schur_expansion",
    "schur.schur_outer_product",
    "internal_product.kronecker",
    "internal_product.kronecker_general",
    "internal_product.kronecker_two_row",
    "internal_product.kronecker_hook",
    "internal_product.hook_mixed",
    "internal_product.kronecker_one_box",
    "internal_product.weyl_tensor_gamma",
    "internal_product.jacobi_trudi",
    "internal_product.gamma_tensor_gamma",
    "internal_product.exponential_tensor",
    "characters.mn_character",
    "characters.kronecker_oracle_expansion",
    "characters.internal_h_oracle",
    "characters.lr_oracle",
    "characters.perm_character",
    *(f"sweeps.sweep_{suite}" for suite in ORACLE_CHECKS),
    "cli.load_cache",
    "cli.save_cache",
    "cli.run",
)
DISTINCT_ARGS = (
    "schur.lr_coeff",
    "internal_product.weyl_tensor_gamma",
    "characters.mn_character",
)


def _tracer() -> Tracer:
    import polykron.cli  # noqa: F401  (loads every module before wrapping)

    tracer = Tracer(TRACED, DISTINCT_ARGS)
    tracer.install()
    return tracer


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _terms(expansion):
    return [[list(p.parts), c] for p, c in expansion.items()]


class _Timer:
    """Spans of a timed phase: at the reference speed when `scaled`, else raw.

    When scaled, calibrations run from a timer signal during the phase.
    """

    def __init__(self, scaled: bool):
        self.clock = RefClock() if scaled else None

    def __enter__(self):
        if self.clock is not None:
            self.clock.start_timer()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        if self.clock is not None:
            self.clock.stop_timer()

    def span(self, a: float, b: float) -> float:
        return b - a if self.clock is None else self.clock.scaled(a, b)

    def report(self) -> dict:
        """wall_s as scaled (or raw), raw_wall_s, and the calibration times."""
        if self.clock is None:
            raw = self.end - self.start
            return {"wall_s": raw, "raw_wall_s": raw, "cal_s": []}
        return {"wall_s": self.clock.scaled(self.start, self.end),
                "raw_wall_s": self.clock.raw(self.start, self.end),
                "cal_s": self.clock.cal_seconds()}


def _kron_batch(queries, spec):
    from polykron import Partition, kronecker  # after wrapping, when tracing

    pairs = [(Partition(lam), Partition(mu)) for lam, mu in queries]
    results, spans = [], []
    with _Timer(spec["scaled"]) as timer:
        for lam, mu in pairs:
            t0 = time.perf_counter()
            try:
                results.append(kronecker(lam, mu, "auto"))
            except Exception as exc:  # a failed query is counted, not fatal
                results.append(exc)
            spans.append((t0, time.perf_counter()))
    rss = _peak_rss_mb()
    outputs = [
        {"error": repr(r)} if isinstance(r, Exception)
        else {"method": r[1], "terms": _terms(r[0])}
        for r in results
    ]
    return {**timer.report(), "latencies": [timer.span(a, b) for a, b in spans],
            "outputs": outputs, "peak_rss_mb": rss}


def _text(parts) -> str:
    return ",".join(map(str, parts)) or "0"


#: An untraced CLI call: the machine's speed is measured at the start of
#: the call's own process, on its own core, and reported on stderr; then the
#: CLI runs as `python3 -m polykron.cli` would run it.  A calibration in
#: this process, between two calls, tracked the calls less well.
SCALED_CLI = """
import sys
sys.path.insert(0, sys.argv.pop(1))
from bench_clock import RefClock
clock = RefClock()
clock.calibrate()
clock.calibrate()
print("calibration", *clock.cal_seconds(), file=sys.stderr, flush=True)
import runpy
runpy.run_module("polykron.cli", run_name="__main__", alter_sys=True)
"""


def _cli_cache(queries, spec):
    cache = os.path.join(spec["work_dir"], "cache.json")
    summaries_dir = os.path.join(spec["work_dir"], "spans")
    os.makedirs(summaries_dir, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    calls = []
    for k, (lam, mu) in enumerate(queries):
        args = ["kron", "--lambda", _text(lam), "--mu", _text(mu), "--json", "--cache", cache]
        if spec["trace"]:
            out = os.path.join(summaries_dir, f"{k}.json")
            calls.append([sys.executable, os.path.abspath(__file__), "cli", out, *args])
        else:
            calls.append([sys.executable, "-c", SCALED_CLI, here, *args])
    outputs, elapsed_s, cal_s, cal_total = [], [], [], 0.0
    start = time.perf_counter()
    for argv in calls:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        elapsed = time.perf_counter() - t0
        stderr = proc.stderr
        if not spec["trace"] and stderr.startswith("calibration "):
            line, _, stderr = stderr.partition("\n")
            first, second = map(float, line.split()[1:])
            elapsed -= first + second
            cal_total += first + second
            cal_s.append(second)
        elapsed_s.append(elapsed)
        outputs.append({"code": proc.returncode, "stdout": proc.stdout, "stderr": stderr[-2000:]})
    wall = time.perf_counter() - start
    if cal_s:  # each call scaled by the calibrations of the calls around it
        latencies = [t * REFERENCE_CAL_S / c for t, c in zip(elapsed_s, window_medians(cal_s))]
    else:
        latencies = elapsed_s
    result = {
        "wall_s": sum(latencies),
        "raw_wall_s": wall - cal_total,
        "cal_s": cal_s,
        "latencies": latencies,
        "outputs": outputs,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "cache_file_mb": os.path.getsize(cache) / 1e6 if os.path.exists(cache) else 0.0,
    }
    if spec["trace"]:
        summaries = []
        for k in range(len(calls)):
            with open(os.path.join(summaries_dir, f"{k}.json"), encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        result["trace"] = merge(summaries)
    return result


def _oracle_check(suites, spec):
    from polykron.sweeps import run_suites

    results, spans = [], {}
    with _Timer(spec["scaled"]) as timer:
        for name in suites:
            t0 = time.perf_counter()
            try:
                (res,) = run_suites(name)
                results.append({"name": res.name, "ok": res.ok, "checks": res.checks,
                                "line": res.line()})
            except Exception as exc:
                results.append({"name": name, "ok": False, "checks": 0, "line": repr(exc)})
            spans[name] = (t0, time.perf_counter())
    suite_s = {name: timer.span(a, b) for name, (a, b) in spans.items()}
    return {**timer.report(), "suite_s": suite_s, "outputs": results,
            "peak_rss_mb": _peak_rss_mb()}


PHASES = {"kron-batch": _kron_batch, "cli-cache": _cli_cache, "oracle-check": _oracle_check}


def phase(spec) -> dict:
    # cli-cache traces inside each CLI process, not in this one.
    tracer = _tracer() if spec["trace"] and spec["workload"] != "cli-cache" else None
    result = PHASES[spec["workload"]](spec["inputs"], {**spec, "scaled": not spec["trace"]})
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def oracle(spec) -> dict:
    """Time of the character-theory oracle on the pairs, at the reference speed."""
    from polykron import Partition, kronecker_oracle_expansion

    pairs = [(Partition(lam), Partition(mu)) for lam, mu in spec["inputs"]]
    with _Timer(True) as timer:
        for lam, mu in pairs:
            kronecker_oracle_expansion(lam, mu)
    return timer.report()


def traced_cli(summary_path: str, argv) -> int:
    """Run the CLI in this process with every listed function wrapped."""
    tracer = _tracer()
    import polykron.cli

    try:
        return polykron.cli.run(argv)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


def main(argv) -> int:
    job = argv[0]
    if job == "cli":
        return traced_cli(argv[1], argv[2:])
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"phase": phase, "oracle": oracle}[job](spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
