"""Tests of the benchmark itself (not of polykron).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection; the
traced runs below start fresh interpreters and take several seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench_clock
import bench_inputs
import bench_tracer
import run
from bench_tracer import Tracer, merge

HERE = Path(__file__).resolve().parent


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", ["kron-batch", "cli-cache"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = bench_inputs.generate(workload, 7, 15)
    assert a == bench_inputs.generate(workload, 7, 15)
    assert a != bench_inputs.generate(workload, 8, 15)
    assert len(a) >= bench_inputs.MIN_OPS


def test_kron_batch_mix():
    queries = bench_inputs.kron_batch(3, 15)
    n = len(queries)
    shapes = {"general": 0, "two-row": 0, "hook": 0, "one-box": 0}
    for lam, mu in queries:
        assert sum(lam) == sum(mu) and sum(lam) in bench_inputs.KRON_DEGREES
        assert 2 <= len(lam) <= 5
        if mu == (sum(mu) - 1, 1):
            shapes["one-box"] += 1
        elif len(mu) == 2:
            shapes["two-row"] += 1
        elif bench_inputs.is_hook(mu):
            shapes["hook"] += 1
        else:
            assert 3 <= len(mu) <= 5
            shapes["general"] += 1
    expected = {name: round(share * n) for name, share in bench_inputs.KRON_STRATA[:-1]}
    expected[bench_inputs.KRON_STRATA[-1][0]] = n - sum(expected.values())
    assert shapes == expected
    by_degree = {d: sum(sum(lam) == d for lam, _ in queries) for d in bench_inputs.KRON_DEGREES}
    assert max(by_degree.values()) - min(by_degree.values()) <= len(bench_inputs.KRON_STRATA)


def test_cli_stream_repeats_a_small_pool():
    calls = bench_inputs.cli_stream(3, 15)
    pool = bench_inputs.CLI_DISTINCT_PAIRS
    assert len(set(calls)) == pool < len(calls)
    assert len(set(calls[:pool])) == pool  # every pair once, then the repeats
    assert set(calls) == set(bench_inputs.cli_stream(4, 15))
    assert {sum(lam) for lam, _ in calls} == set(bench_inputs.CLI_DEGREES)


def test_reference_covers_every_candidate():
    reference = run.load_reference()
    for rows in bench_inputs.population().values():
        for r in rows:
            assert (tuple(r["lam"]), tuple(r["mu"])) in reference


# ------------------------------------------------------------------ clock


def _marks(cals):
    """Calibrations of the given lengths, one starting every second."""
    return [(float(k), k + c) for k, c in enumerate(cals)]


def test_scaled_time_between_calibrations():
    clock = bench_clock.RefClock()
    ref = bench_clock.REFERENCE_CAL_S
    # The machine runs at half the reference speed: times are halved.
    clock.marks = _marks([2 * ref] * 4)
    assert clock.scaled(0.0, 4.0) == pytest.approx(3 * (1 - 2 * ref) / 2)
    assert clock.scaled(0.5, 1.5) == pytest.approx((1 - 2 * ref) / 2)
    assert clock.raw(0.5, 1.5) == pytest.approx(1 - 2 * ref)


def test_one_odd_calibration_does_not_rescale():
    clock = bench_clock.RefClock()
    ref = bench_clock.REFERENCE_CAL_S
    clock.marks = _marks([ref] * 5 + [3 * ref] + [ref] * 5)
    assert clock.scaled(4.5, 6.5) == pytest.approx(clock.raw(4.5, 6.5))


def test_window_medians():
    assert bench_clock.window_medians([1, 9, 1, 1, 5, 5, 5], k=1) == [5, 1, 1, 1, 5, 5, 5]


def test_calibration_from_a_timer_signal():
    clock = bench_clock.RefClock()
    clock.start_timer(0.05)
    end = bench_clock.perf_counter() + 0.3
    while bench_clock.perf_counter() < end:
        pass
    clock.stop_timer()
    assert len(clock.marks) >= 4
    assert all(s < e for s, e in clock.marks)


# ------------------------------------------------------------------ tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def toy(monkeypatch):
    """A package `toy` with modules a and b; b re-exports a's functions."""
    clock = FakeClock()
    monkeypatch.setattr(bench_tracer, "perf_counter", clock)
    a = types.ModuleType("toy.a")
    b = types.ModuleType("toy.b")

    def inner(x):
        clock.now += 2
        return x

    def outer(x):
        clock.now += 1
        a.inner(x)
        clock.now += 3
        return 0

    def fact(n):
        clock.now += 1
        return 1 if n == 0 else n * a.fact(n - 1)

    def gen(n):
        for i in range(n):
            clock.now += 1
            yield i
        clock.now += 0.5

    a.inner, a.outer, a.fact, a.gen = inner, outer, fact, gen
    b.inner, b.fact = inner, fact
    for name, mod in (("toy", types.ModuleType("toy")), ("toy.a", a), ("toy.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = Tracer(["a.inner", "a.outer", "a.fact", "a.gen", "a.missing"],
                    distinct_args=["a.inner"])
    tracer.install("toy")
    return tracer, clock, a, b


def test_self_time_of_nested_calls(toy):
    tracer, _, a, b = toy
    a.outer(1)
    b.inner(1)  # the re-exported binding is wrapped too
    b.inner(2)
    s = tracer.summary()["functions"]
    assert (s["a.outer"]["calls"], s["a.outer"]["total_s"], s["a.outer"]["self_s"]) == (1, 6, 4)
    assert (s["a.inner"]["calls"], s["a.inner"]["total_s"], s["a.inner"]["self_s"]) == (3, 6, 6)
    assert s["a.inner"]["distinct_args"] == 2
    assert s["a.outer"]["nonzero"] == 0 and s["a.inner"]["nonzero"] == 3


def test_self_time_through_recursion(toy):
    tracer, _, a, b = toy
    assert b.fact(3) == 6
    s = tracer.summary()["functions"]["a.fact"]
    # Four frames of one second each: recursion is not counted twice.
    assert (s["calls"], s["total_s"], s["self_s"]) == (4, 4, 4)


def test_generator_timed_per_next(toy):
    tracer, clock, a, _ = toy
    for _ in a.gen(3):
        clock.now += 10  # the consumer's time is not the generator's
    s = tracer.summary()["functions"]["a.gen"]
    assert (s["calls"], s["yielded"], s["total_s"], s["self_s"]) == (1, 3, 3.5, 3.5)


def test_missing_function_is_reported_absent(toy):
    tracer, *_ = toy
    summary = tracer.summary()
    assert summary["absent"] == ["a.missing"]
    assert summary["functions"]["a.missing"]["calls"] == 0


def test_merge_sums_processes(toy):
    tracer, _, a, _ = toy
    a.inner(1)
    one = tracer.summary()
    both = merge([one, one])
    assert both["functions"]["a.inner"]["calls"] == 2
    assert both["functions"]["a.inner"]["distinct_args"] == 2
    assert both["functions"]["a.outer"]["distinct_args"] is None
    assert both["absent"] == ["a.missing"]


# ------------------------------------------------------------------ runs


def _counts(summary):
    return {
        (name, key): s[key]
        for name, s in summary["functions"].items()
        for key in ("calls", "yielded", "nonzero", "distinct_args")
    }


@pytest.mark.parametrize("workload, inputs", [
    ("kron-batch", bench_inputs.kron_batch(5, 15)[:12]),
    ("cli-cache", bench_inputs.cli_stream(5, 15)[:4]),
    ("oracle-check", ["kron", "exptable", "lr"]),
])
def test_traced_counts_repeat_exactly(workload, inputs, tmp_path):
    counts = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        spec = {"workload": workload, "inputs": inputs, "trace": True, "work_dir": str(work)}
        counts.append(_counts(run.run_job("phase", spec, work, run._env())["trace"]))
    assert counts[0] == counts[1]
    assert any(v for v in counts[0].values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    fake = {"functions": {fn: {"calls": 1, "self_s": 0.0, "total_s": 0.0, "yielded": 0,
                               "nonzero": 0, "distinct_args": 0} for fn in run.TRACED},
            "absent": []}
    layer = run.per_layer(fake, general_vs_oracle=1.0, cache_file_mb=0.0, overhead_s=0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(bench_inputs.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kron-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
