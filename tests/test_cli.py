import json
import os

import pytest

from polykron import Partition, characters, kronecker_oracle_expansion, lr_coeff, schur, sweeps
from polykron.cli import load_cache, run, save_cache


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
        code, out, _ = invoke(
            capsys, "kron", "--lambda", "2,2,1", "--mu", "hook:3,2", "--json"
        )
        assert code == 0
        assert json.loads(out)["method"] == "hook"

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("general", "two-row", "one-box", "hook"):
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
        code, _, err = invoke(
            capsys, "kron", "--lambda", "2," + ",".join(["1"] * 12),
            "--mu", ",".join(["1"] * 14), "--method", "general",
        )
        assert code == 2
        assert "bound" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "kron", "--lambda", "2,1")
        assert code == 2

    def test_bad_method_shape(self, capsys):
        code, _, err = invoke(
            capsys, "kron", "--lambda", "2,2", "--mu", "2,1,1", "--method", "two-row"
        )
        assert code == 2
        assert "two-row" in err


class TestGammaTensorCommand:
    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "gamma-tensor", "--mu", "1,1", "--lambda", "1,1")
        assert code == 0
        assert out.splitlines() == [
            "d=2 method=gamma-tensor basis=Gamma",
            "  1,0,0,1  1",
            "  0,1,1,0  1",
        ]


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

    def test_negative_max_d_is_rejected(self, capsys):
        code, out, err = invoke(capsys, "oracle-check", "--suite", "kron", "--max-d", "-1")
        assert code == 2
        assert "--max-d" in err
        assert out == ""


class TestCache:
    def test_cache_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "memo.json"
        code, _, _ = invoke(
            capsys, "oracle-check", "--suite", "lr", "--max-d", "3", "--cache", str(path)
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert set(data) == {"version", "lr", "characters"}
        assert data["version"] == 1
        assert all(isinstance(v, int) for v in data["lr"].values())
        assert data["lr"]["2,1|1|1,1"] == 1
        # loading recomputes each entry, which puts it back in the memo table
        schur._LR_CACHE.pop(((2, 1), (1,), (1, 1)), None)
        load_cache(str(path))
        assert schur._LR_CACHE[((2, 1), (1,), (1, 1))] == 1
        assert json.loads(path.read_text()) == data

    def test_save_and_load_known_value(self, tmp_path):
        path = tmp_path / "memo.json"
        schur._LR_CACHE[((4, 2), (2, 1), (2, 1))] = lr_coeff(
            Partition([4, 2]), Partition([2, 1]), Partition([2, 1])
        )
        characters._MN_CACHE[((2, 1), (3,))] = -1
        save_cache(str(path))
        data = json.loads(path.read_text())
        assert data["characters"]["2,1|3"] == -1
        assert "4,2|2,1|2,1" in data["lr"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"lr": {"2,1|1|1,1": 1}, "charac',
            "[1, 2]",
            '{"version": 1, "lr": {"2,1|1": 1}}',
            '{"lr": {}, "characters": {"2,1|3": 5}}',
            '{"version": 2, "lr": {}, "characters": {}}',
            '{"version": true, "lr": {}, "characters": {}}',
            '{"version": 1, "lr": {}, "characters": {"2,1|3": 5}}',
            '{"version": 1, "lr": {}, "characters": {"2,1|1,1,1": 1}}',
            '{"version": 1, "lr": {}, "characters": {"2,1|2": -1}}',
            '{"version": 1, "lr": {}, "characters": {"2,1|2,1": 0.5}}',
            '{"version": 1, "lr": {"2,1|1|1": 1}, "characters": {}}',
            '{"version": 1, "lr": {"2,1|1|1,1": -1}, "characters": {}}',
            '{"version": 1, "lr": {"2,1|3|0": 0}, "characters": {}}',
            '{"version": 1, "lr": {"2,1|1|1,1": "1"}, "characters": {}}',
        ],
        ids=[
            "truncated", "not-an-object", "malformed-key",
            "no-version", "other-version", "boolean-version", "above-dimension",
            "identity-not-dimension", "character-sizes", "character-not-int",
            "lr-sizes", "lr-negative", "lr-not-contained", "lr-not-int",
        ],
    )
    def test_bad_cache_file_is_an_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "memo.json"
        path.write_text(text)
        code, out, err = invoke(
            capsys, "kron", "--lambda", "2,1", "--mu", "2,1", "--cache", str(path)
        )
        assert code == 2
        assert "--cache" in err
        assert out == ""
        assert path.read_text() == text

    def test_plausible_wrong_cache_value_is_an_input_error(self, tmp_path, capsys):
        # chi_(2,1) at a 3-cycle is -1; 1 is within the dimension bound.
        text = '{"version": 1, "lr": {}, "characters": {"2,1|3": 1}}'
        path = tmp_path / "memo.json"
        path.write_text(text)
        code, out, err = invoke(
            capsys, "oracle-check", "--suite", "chars", "--max-d", "3", "--cache", str(path)
        )
        assert code == 2
        assert "--cache" in err and "2,1|3" in err
        assert out == ""
        assert path.read_text() == text
        assert characters.mn_character(Partition([2, 1]), Partition([3])) == -1

    def test_saved_tables_pass_validation(self, tmp_path, capsys):
        path = tmp_path / "memo.json"
        code, _, _ = invoke(
            capsys, "oracle-check", "--suite", "lr", "--max-d", "5", "--cache", str(path)
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["lr"] and data["characters"]
        code, out, _ = invoke(
            capsys, "oracle-check", "--suite", "chars", "--max-d", "5", "--cache", str(path)
        )
        assert code == 0
        assert out == "chars: PASS (54 checks)\n"

    def test_unwritable_cache_path_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "memo.json"
        code, out, err = invoke(
            capsys, "kron", "--lambda", "2,1", "--mu", "2,1", "--cache", str(path)
        )
        assert code == 2
        assert "--cache" in err
        assert out == ""
        assert not path.parent.exists()

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "memo.json"
        save_cache(str(path))
        before = path.read_text()

        def dump_then_fail(data, fh, **kwargs):
            fh.write('{"lr": {')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            save_cache(str(path))
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["memo.json"]
