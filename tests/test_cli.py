import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polykron
from polykron import Partition, SchurExpansion, internal_product, kronecker
from polykron import kronecker_oracle_expansion, sweeps
from polykron.cli import run
from polykron.sweeps import SUITE_NAMES


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKronCommand:
    def test_auto_json_fixture(self, capsys):
        code, out, _ = invoke(capsys, "kron", "--lambda", "2,1", "--mu", "2,1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report == {
            "d": 3,
            "method": "one-box",
            "basis": "Weyl",
            "expansion": [
                {"partition": [3], "mult": 1},
                {"partition": [2, 1], "mult": 1},
                {"partition": [1, 1, 1], "mult": 1},
            ],
        }

    def test_trivial_product(self, capsys):
        code, out, _ = invoke(capsys, "kron", "--lambda", "3", "--mu", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["expansion"] == [{"partition": [3], "mult": 1}]
        assert report["method"] == "general"

    def test_hook_shorthand(self, capsys):
        # auto sends a hook to the fold; --method hook runs the hook chain.
        reports = []
        for method in ("auto", "hook"):
            code, out, _ = invoke(capsys, "kron", "--lambda", "2,2,1", "--mu", "hook:3,2",
                                  "--method", method, "--json")
            assert code == 0
            reports.append(json.loads(out))
        assert [r["method"] for r in reports] == ["general", "hook"]
        assert reports[0]["expansion"] == reports[1]["expansion"]

    def test_unit_and_sign_partners_need_no_procedure(self, monkeypatch, capsys):
        # (n) and (1^n) are answered before any fold or chain runs, whatever
        # the degree and the method.
        def refuse(*args):
            raise AssertionError("no fold or chain runs")

        monkeypatch.setattr(internal_product, "_fold", refuse)
        monkeypatch.setattr(internal_product, "_chain", refuse)
        unit, sign, rect = Partition([600]), Partition([1] * 600), Partition([300, 300])
        for method in ("auto", "general"):
            assert kronecker(unit, rect, method) == (SchurExpansion.single(rect), "general")
        assert kronecker(unit, unit) == (SchurExpansion.single(unit), "general")
        assert kronecker(sign, rect, "hook") == (SchurExpansion.single(rect.conjugate()), "hook")
        code, out, _ = invoke(capsys, "kron", "--lambda", "600", "--mu", "300,300", "--json")
        assert code == 0
        assert json.loads(out)["expansion"] == [{"partition": [300, 300], "mult": 1}]

    def test_auto_reads_either_factor(self, capsys):
        # (9, 1) fits the one-box path from either side of the product.
        reports = []
        for lam, mu in (("9,1", "4,3,2,1"), ("4,3,2,1", "9,1")):
            code, out, _ = invoke(capsys, "kron", "--lambda", lam, "--mu", mu, "--json")
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0] == reports[1]
        assert reports[0]["method"] == "one-box"

    @pytest.mark.parametrize("lam, mu", [
        ("4,3,2,1", "9,1"), ("hook:3,2", "2,2,1"), ("3,1", "2,2"), ("hook:4,1", "hook:2,3"),
        ("4,2", "3,3"), ("1,1,1", "3"), ("2,2", "3,1,1,1"), ("hook:0,1", "2"),
    ])
    @pytest.mark.parametrize("method", ["auto", "general", "one-box", "hook"])
    def test_swapped_flags_print_the_same_bytes(self, capsys, lam, mu, method):
        # The exit code and stdout; a message on stderr names the flag.
        runs = [
            invoke(capsys, "kron", "--lambda", a, "--mu", b, "--method", method, *json_flag)[:2]
            for json_flag in ([], ["--json"]) for a, b in ((lam, mu), (mu, lam))
        ]
        assert runs[0] == runs[1] and runs[2] == runs[3]

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("general", "one-box", "hook"):
            code, out, _ = invoke(
                capsys, "kron", "--lambda", "3,2", "--mu", "4,1",
                "--method", method, "--json",
            )
            assert code == 0
            outputs.add(json.dumps(json.loads(out)["expansion"]))
        assert len(outputs) == 1

    def test_degree_zero(self, capsys):
        code, out, _ = invoke(capsys, "kron", "--lambda", "0", "--mu", "0", "--json")
        assert code == 0
        assert json.loads(out)["expansion"] == [{"partition": [], "mult": 1}]

    def test_general_expands_lambda_when_mu_has_too_many_rows(self, capsys):
        lam, mu = Partition([12, 2]), Partition([1] * 14)
        code, out, _ = invoke(
            capsys, "kron", "--lambda", "12,2", "--mu", ",".join(["1"] * 14),
            "--method", "general", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "general"
        want = kronecker_oracle_expansion(lam, mu)
        assert report["expansion"] == [
            {"partition": list(p.parts), "mult": c} for p, c in want.items()
        ]

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = invoke(capsys, "kron", "--lambda", "3,1", "--mu", "2,2", "--json")
        assert code == 0
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), indent=2) == text


class TestInputErrors:
    def test_malformed_partition(self, capsys):
        code, _, err = invoke(capsys, "kron", "--lambda", "2,x", "--mu", "2,1")
        assert code == 2
        assert "--lambda" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("kron", "--lambda", "2,,1", "--mu", "3"),
             "error: --lambda: expected comma-separated integers, got '2,,1'"),
            (("gamma-tensor", "--mu", "1,x", "--lambda", "2"),
             "error: --mu: expected comma-separated integers, got '1,x'"),
        ],
        ids=["partition", "composition"],
    )
    def test_malformed_integers_name_the_flag_once(self, capsys, argv, line):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", line + "\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("kron", "--lambda", "1_0", "--mu", "10"),
             "error: --lambda: expected comma-separated integers, got '1_0'"),
            (("kron", "--lambda", "\u0663,2", "--mu", "5"),
             "error: --lambda: expected comma-separated integers, got '\u0663,2'"),
            (("kron", "--lambda", "+3,2", "--mu", "5"),
             "error: --lambda: expected comma-separated integers, got '+3,2'"),
            (("kron", "--lambda", "3,2", "--mu", "hook:\uff13,2"),
             "error: --mu: expected comma-separated integers, got '\uff13,2'"),
            (("gamma-tensor", "--mu", "2,1", "--lambda", "1,0_2"),
             "error: --lambda: expected comma-separated integers, got '1,0_2'"),
        ],
        ids=["underscore", "arabic-indic-digit", "plus-sign", "fullwidth-hook", "composition"],
    )
    def test_only_ascii_digits_are_integers(self, capsys, argv, line):
        # int() reads "1_0" as 10 and any Unicode decimal digit as a digit.
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", line + "\n")

    def test_spaces_around_parts_are_allowed(self, capsys):
        spaced = invoke(capsys, "kron", "--lambda", " 3 , 2 ", "--mu", "4, 1", "--json")
        assert spaced == invoke(capsys, "kron", "--lambda", "3,2", "--mu", "4,1", "--json")
        assert spaced[0] == 0

    def test_a_negative_part_is_reported_as_not_positive(self, capsys):
        code, out, err = invoke(capsys, "kron", "--lambda", "3, -1", "--mu", "2")
        assert (code, out) == (2, "")
        assert err == "error: --lambda: partition parts must be positive, got (3, -1)\n"

    def test_increasing_partition(self, capsys):
        code, _, err = invoke(capsys, "kron", "--lambda", "1,2", "--mu", "2,1")
        assert code == 2
        assert "--lambda" in err

    def test_degree_mismatch(self, capsys):
        code, _, err = invoke(capsys, "kron", "--lambda", "2,1", "--mu", "4")
        assert code == 2
        assert "error" in err

    def test_bound_exceeded(self, capsys):
        mu = ",".join(["1"] * 13)
        code, _, err = invoke(capsys, "jacobi-trudi", "--mu", mu)
        assert code == 2
        assert "bound" in err

    def test_general_bound_exceeded_by_both_factors(self, capsys):
        square = ",".join(["13"] * 13)
        code, _, err = invoke(
            capsys, "kron", "--lambda", square, "--mu", square, "--method", "general"
        )
        assert code == 2
        assert "bound" in err

    def test_general_runs_the_conjugate_pair_past_the_bound(self, capsys):
        tall = invoke(
            capsys, "kron", "--lambda", "2," + ",".join(["1"] * 12),
            "--mu", ",".join(["1"] * 14), "--method", "general", "--json",
        )
        assert tall == invoke(
            capsys, "kron", "--lambda", "13,1", "--mu", "14", "--method", "general", "--json"
        )
        assert tall[0] == 0

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "kron", "--lambda", "2,1")
        assert code == 2

    def test_bad_method_shape(self, capsys):
        code, _, err = invoke(
            capsys, "kron", "--lambda", "3,3", "--mu", "2,2,2", "--method", "hook"
        )
        assert code == 2
        assert "neither 2,2,2 nor 3,3 has the hook shape" in err

    def test_two_row_method_is_gone(self, capsys):
        code, _, err = invoke(
            capsys, "kron", "--lambda", "2,2", "--mu", "2,2", "--method", "two-row"
        )
        assert code == 2
        assert "invalid choice: 'two-row'" in err


class TestGammaTensorCommand:
    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "gamma-tensor", "--mu", "1,1", "--lambda", "1,1")
        assert code == 0
        assert out.splitlines() == [
            "d=2 method=gamma-tensor basis=Gamma",
            "  1,0,0,1  1",
            "  0,1,1,0  1",
        ]

    def test_three_thousand_rows_exit_zero(self, capsys):
        # The contingency walk keeps its prefix rows in one frame, so a deep
        # margin gives a result and not a RecursionError with exit code 1.
        ones = ",".join(["1"] * 3000)
        code, out, err = invoke(capsys, "gamma-tensor", "--mu", ones, "--lambda", "3000", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["expansion"] == [{"partition": [1] * 3000, "mult": 1}]


class TestExpTensorCommand:
    def test_wedge_wedge(self, capsys):
        code, out, _ = invoke(
            capsys, "exp-tensor", "--left", "wedge:3", "--right", "wedge:3", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["basis"] == "Sym"
        assert report["expansion"] == [{"partition": [3], "mult": 1}]

    def test_char_two_zero(self, capsys):
        code, out, _ = invoke(
            capsys, "exp-tensor", "--left", "sym:2", "--right", "wedge:2",
            "--char-two", "zero", "--json",
        )
        assert code == 0
        assert json.loads(out)["basis"] == "Sym"

    def test_char_two_other_is_input_error(self, capsys):
        code, _, err = invoke(
            capsys, "exp-tensor", "--left", "sym:2", "--right", "wedge:2",
            "--char-two", "other",
        )
        assert code == 2
        assert "nonzero nonunit" in err

    def test_bad_family(self, capsys):
        code, _, err = invoke(capsys, "exp-tensor", "--left", "div:2", "--right", "sym:2")
        assert code == 2
        assert "--left" in err


class TestWeylCommands:
    def test_weyl_gamma(self, capsys):
        code, out, _ = invoke(capsys, "weyl-gamma", "--lambda", "2,1", "--nu", "2,1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["basis"] == "Weyl"
        assert report["expansion"] == [
            {"partition": [3], "mult": 1},
            {"partition": [2, 1], "mult": 2},
            {"partition": [1, 1, 1], "mult": 1},
        ]

    def test_weyl_wedge(self, capsys):
        code, out, _ = invoke(capsys, "weyl-wedge", "--lambda", "3", "--nu", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["basis"] == "DualWeyl"
        assert report["expansion"] == [{"partition": [1, 1, 1], "mult": 1}]

    def test_weight_with_zeros(self, capsys):
        code, out, _ = invoke(capsys, "weyl-gamma", "--lambda", "2,1", "--nu", "2,0,1", "--json")
        assert code == 0
        assert json.loads(out)["expansion"][1] == {"partition": [2, 1], "mult": 2}


class TestJacobiTrudiCommand:
    def test_staircase(self, capsys):
        code, out, _ = invoke(capsys, "jacobi-trudi", "--mu", "2,1", "--json")
        assert code == 0
        assert json.loads(out)["expansion"] == [
            {"partition": [3, 0], "mult": -1},
            {"partition": [2, 1], "mult": 1},
        ]


class TestOracleCheckCommand:
    def test_kron_suite(self, capsys):
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "kron", "--max-d", "4")
        assert code == 0
        assert out.startswith("kron: PASS (")

    def test_lr_suite(self, capsys):
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "lr", "--max-d", "5")
        assert code == 0
        assert "lr: PASS" in out

    def test_dims_suite(self, capsys):
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "dims", "--max-d", "5")
        assert code == 0
        assert "dims: PASS" in out

    def test_guard_above_eight(self, capsys):
        code, _, err = invoke(capsys, "oracle-check", "--suite", "kron", "--max-d", "9")
        assert code == 2
        assert "--force" in err

    def test_fixture_suite(self, capsys):
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "fixture")
        assert code == 0
        assert "fixture: PASS" in out

    def test_suite_runs_the_sweep_bound_on_the_module(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "sweep_fixture", lambda: sweeps.SweepResult("fixture", 7))
        monkeypatch.setattr(sweeps, "sweep_jt", lambda max_d=8: sweeps.SweepResult("jt", max_d))
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "fixture", "--max-d", "2")
        assert (code, out) == (0, "fixture: PASS (7 checks)\n")
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "jt")
        assert (code, out) == (0, "jt: PASS (8 checks)\n")
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "jt", "--max-d", "3")
        assert (code, out) == (0, "jt: PASS (3 checks)\n")

    def test_json_report_lists_each_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "sweep_jt", lambda max_d=8: sweeps.SweepResult("jt", max_d))
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "fixture", "--json")
        assert code == 0
        assert json.loads(out) == {
            "suites": [{"name": "fixture", "ok": True, "checks": 4, "failure": None}]
        }
        monkeypatch.setattr(
            sweeps, "sweep_fixture", lambda: sweeps.SweepResult("fixture", 2, "planted")
        )
        code, out, _ = invoke(capsys, "oracle-check", "--max-d", "3", "--json")
        assert code == 3
        suites = json.loads(out)["suites"]
        assert [s["name"] for s in suites] == list(SUITE_NAMES)
        assert suites[2] == {"name": "fixture", "ok": False, "checks": 2, "failure": "planted"}
        assert suites[6] == {"name": "jt", "ok": True, "checks": 3, "failure": None}
        assert all(s["ok"] and s["failure"] is None for i, s in enumerate(suites) if i != 2)
        # Without --json the report stays one line per suite.
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "fixture")
        assert (code, out) == (3, "fixture: FAIL (2 checks) first counterexample: planted\n")

    def test_negative_max_d_is_rejected(self, capsys):
        code, out, err = invoke(capsys, "oracle-check", "--suite", "kron", "--max-d", "-1")
        assert code == 2
        assert "--max-d" in err
        assert out == ""

    @pytest.mark.parametrize("text", ["\u0663", "+0_3", "1_0", "+3", "3.0", "", "3,4"])
    def test_max_d_reads_the_flag_integer_grammar(self, capsys, text):
        # int() would read the first four as 3, 3, 10 and 3.
        for force in ((), ("--force",)):
            code, out, err = invoke(capsys, "oracle-check", "--suite", "jt", "--max-d", text, *force)
            assert (code, out) == (2, "")
            assert "--max-d" in err

    def test_max_d_may_be_padded_with_spaces(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "sweep_jt", lambda max_d=8: sweeps.SweepResult("jt", max_d))
        code, out, _ = invoke(capsys, "oracle-check", "--suite", "jt", "--max-d", " 3 ")
        assert (code, out) == (0, "jt: PASS (3 checks)\n")


class TestDeprecatedCacheFlag:
    def test_cache_flag_only_warns(self, tmp_path, capsys):
        argv = ["kron", "--lambda", "3,2,1", "--mu", "3,2,1", "--json"]
        want = invoke(capsys, *argv)
        assert want[0] == 0 and want[2] == ""
        missing = tmp_path / "memo.json"
        refused = tmp_path / "old.json"  # a file that --cache once refused with exit 2
        refused.write_bytes(b"[1, 2]")
        for path in (missing, refused):
            code, out, err = invoke(capsys, *argv, "--cache", str(path))
            assert (code, out) == want[:2]
            assert err == "warning: --cache has no effect and will be removed\n"
        assert not missing.exists()
        assert refused.read_bytes() == b"[1, 2]"
        assert os.listdir(tmp_path) == ["old.json"]


def _spellings(x):
    """Ways to write the integer x (or -x) in a flag: the flag grammar reads
    only the first three, and int() reads every one of them."""
    return [
        str(x), f" {x} ", f"-{x}", f"+{x}", f"0_{x}",
        chr(0x660 + x),  # Arabic-Indic digit
        chr(0xFF10 + x),  # fullwidth digit
    ]


@st.composite
def _flag_values(draw):
    """Text for a shape flag whose parts sum to at most 8, however int()
    would read them: plain, or in drawn spellings with an optional hook:
    prefix and stray separator."""
    parts = draw(st.lists(st.integers(0, 8), max_size=4).filter(lambda xs: sum(xs) <= 8))
    if draw(st.booleans()):
        return ",".join(map(str, parts))
    text = ",".join(draw(st.sampled_from(_spellings(x))) for x in parts)
    prefix = draw(st.sampled_from(["", "", "hook:"]))
    return prefix + text + draw(st.sampled_from(["", "", ",", "-", "_", " "]))


@st.composite
def _cache_bytes(draw):
    """None for no --cache file, else its bytes: an object in the format the
    retired cache file had, with drawn keys and values, or arbitrary bytes."""
    kind = draw(st.sampled_from(["none", "object", "object", "bytes"]))
    if kind == "none":
        return None
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    values = st.integers(-3, 3)
    data = {
        "version": draw(st.sampled_from([1, 1, 2, True])),
        "lr": draw(st.dictionaries(
            st.tuples(_flag_values(), _flag_values(), _flag_values()).map("|".join),
            values, max_size=2,
        )),
        "characters": draw(st.dictionaries(
            st.tuples(_flag_values(), _flag_values()).map("|".join), values, max_size=2,
        )),
    }
    return json.dumps(data, ensure_ascii=draw(st.booleans())).encode("utf-8")


_SHAPE_FLAGS = {
    "kron": ("--lambda", "--mu"),
    "gamma-tensor": ("--mu", "--lambda"),
    "weyl-gamma": ("--lambda", "--nu"),
    "weyl-wedge": ("--lambda", "--nu"),
    "jacobi-trudi": ("--mu",),
}


@st.composite
def _argvs(draw):
    """argv for any subcommand, at degree 8 or less, with optional --json."""
    command = draw(st.sampled_from(sorted(_SHAPE_FLAGS) + ["exp-tensor", "oracle-check"]))
    argv = [command]
    if command in _SHAPE_FLAGS:
        for flag in _SHAPE_FLAGS[command]:
            argv += [flag, draw(_flag_values())]
        if command == "kron":
            argv += ["--method", draw(st.sampled_from(
                ["auto", "general", "two-row", "one-box", "hook"]))]
    elif command == "exp-tensor":
        for flag in ("--left", "--right"):
            family = draw(st.sampled_from(["gamma", "sym", "wedge", "Wedge", "hook", ""]))
            argv += [flag, f"{family}:{draw(_flag_values())}"]
        argv += ["--char-two", draw(st.sampled_from(["unit", "zero", "other"]))]
    else:
        # Each of these is refused or read as at most 3, except 9, which is
        # refused without --force; so the sweeps stay at d <= 3.
        max_d = draw(st.sampled_from(["-1", "0", "2", " 3 ", "+3", "0_3", "\u0663", "9"]))
        argv += ["--suite", draw(st.sampled_from([*SUITE_NAMES, "all"])), "--max-d", max_d]
        if max_d != "9" and draw(st.booleans()):
            argv.append("--force")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(argv=_argvs(), cache=_cache_bytes())
    @example(argv=["kron", "--lambda", "600", "--mu", "300,300", "--json"], cache=None)
    @example(argv=["kron", "--lambda", "hook:1,599", "--mu", "300,300"], cache=None)
    def test_every_input_exits_0_2_or_3(self, argv, cache):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "memo.json")
            if cache is not None:
                with open(path, "wb") as fh:
                    fh.write(cache)
                argv = argv + ["--cache", path]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            # --cache reads and writes nothing.
            if cache is None:
                assert os.listdir(tmp) == []
            else:
                assert os.listdir(tmp) == ["memo.json"]
                with open(path, "rb") as fh:
                    assert fh.read() == cache
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == ""

    def test_a_reader_that_leaves_early_gets_no_traceback(self):
        # The pipe is closed before the report is written, as `| head -1`
        # closes it after one line: the process keeps its exit code and
        # prints no traceback, and a report that was computed prints nothing
        # on stderr.
        src = os.path.dirname(os.path.dirname(polykron.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        for argv, want in (
            (["kron", "--lambda", "6,5,4,2,1", "--mu", "6,5,4,2,1"], 0),
            (["kron", "--lambda", "2,1", "--mu", "2,1", "--json"], 0),
            (["kron", "--lambda", "2,1", "--mu", "4"], 2),
        ):
            proc = subprocess.Popen([sys.executable, "-m", "polykron.cli", *argv], env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == want, (argv, err)
            assert b"Traceback" not in err and (want or err == b""), (argv, err)
