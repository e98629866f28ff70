"""Smoke test of benchmarks/frontier.py: one alternated pair of the named
d = 16 square, in fresh processes, and the JSON schema it writes."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "frontier.py"


def test_frontier_runs_one_pair_of_the_degree_16_square(tmp_path):
    out = tmp_path / "frontier.json"
    argv = [sys.executable, str(SCRIPT), "--degrees", "16", "--pairs", "1", "--out", str(out)]
    subprocess.run(argv, check=True, capture_output=True)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["format"] == "polykron-frontier/1"
    assert set(report) == {"format", "git_sha", "python", "host", "pairs", "cases"}
    assert report["pairs"] == 1
    (case,) = report["cases"]
    assert (case["d"], case["lam"], case["mu"]) == (16, [6, 4, 3, 2, 1], [6, 4, 3, 2, 1])
    assert case["sha256_match"] and len(case["sha256"]) == 1
    assert set(case["sides"]) == {"general", "oracle"}
    for side in case["sides"].values():
        assert len(side["cpu_s"]) == len(side["vmhwm_mb"]) == 1
        assert side["median_cpu_s"] == side["cpu_s"][0] >= 0
        assert side["pairs_won"] in (0, 1)
    assert sum(side["pairs_won"] for side in case["sides"].values()) <= 1
