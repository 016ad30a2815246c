"""CLI contract: subcommands, exit codes, determinism."""

import json
import warnings
from pathlib import Path

import pytest

from ultrapreserve.cli import main
from ultrapreserve.matrix_io import save_space
from ultrapreserve.parser import parse_function_spec as spec
from ultrapreserve.spaces import validate_space
from ultrapreserve.witnesses import verify_certificate, witness_not_ultrametric_preserving

INVERSION = "piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }"
OVERFLOW_AT_ONE = "1 + t * 1e308 * 10"  # f(0) = 1, f(1) = inf


@pytest.fixture
def matrix_122(tmp_path):
    path = tmp_path / "m.json"
    save_space(validate_space([[0, 1, 2], [1, 0, 2], [2, 2, 0]]), path)
    return str(path)


@pytest.fixture
def matrix_123(tmp_path):
    path = tmp_path / "m123.json"
    save_space(validate_space([[0, 1, 2], [1, 0, 3], [2, 3, 0]]), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_identity_exits_zero(self, capsys):
        code, out = run(capsys, "classify", "t", "--budget", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["strongly_preserving"]["status"] == "holds"

    def test_step_function_still_exits_zero(self, capsys):
        code, out = run(capsys, "classify", "step_above(1)", "--budget", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["strongly_preserving"]["status"] == "fails_with_witness"
        assert doc["inf_on_positive"] == {"estimate": 1.0, "exact": True}

    def test_non_member_exits_two(self, capsys):
        code, _ = run(capsys, "classify", INVERSION, "--budget", "256")
        assert code == 2

    def test_parse_error_exits_one(self, capsys):
        code, _ = run(capsys, "classify", "garbage(((")
        assert code == 1

    def test_overflowing_sums_warn_nothing(self, capsys):
        # f(t) overflows to inf above t ~ 0.18, so the sampled image sums do too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["classify", OVERFLOW_AT_ONE])
        assert code == 2 and capsys.readouterr().err == ""

    def test_spec_longer_than_a_file_name(self, capsys):
        text = " + ".join(["t"] * 200)
        code, out = run(capsys, "classify", text, "--budget", "16")
        assert code == 0 and json.loads(out)["function"] == text

    def test_function_file_input(self, capsys, tmp_path):
        path = tmp_path / "funcs.txt"
        path.write_text("# two members\nt\ncantor_hat(t)\n")
        code, out = run(capsys, "classify", str(path), "--budget", "256")
        assert code == 0
        docs = json.loads(out)
        assert [d["function"] for d in docs] == ["t", "cantor_hat(t)"]


class TestWitness:
    def test_inversion_yields_certificate(self, capsys):
        code, out = run(capsys, "witness", INVERSION, "--mode", "pu")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "isosceles_inversion"
        assert doc["parameters"] == {"c1": 1.0, "c2": 2.0}

    def test_agrees_with_classify_when_f_of_one_overflows(self, capsys):
        code, out = run(capsys, "witness", OVERFLOW_AT_ONE, "--mode", "pu")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "nonzero_diagonal"
        assert doc["parameters"] == {}
        assert doc["space_after"]["dist"] == [[spec(OVERFLOW_AT_ONE)(0.0)]]
        assert verify_certificate(witness_not_ultrametric_preserving(spec(OVERFLOW_AT_ONE)))

    def test_member_exits_four(self, capsys):
        code, out = run(capsys, "witness", "t", "--mode", "pu")
        assert code == 4
        assert json.loads(out)["result"] == "no_witness_found"

    def test_covering_divergence_table(self, capsys):
        code, out = run(capsys, "witness", "step_above(1)", "--mode", "pt", "--levels", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["violation"]["covering_before"] == 2
        assert doc["violation"]["covering_after"] == 8

    def test_pt_mode_precondition(self, capsys):
        code, _ = run(capsys, "witness", INVERSION, "--mode", "pt")
        assert code == 1


class TestTransformVerify:
    def test_identity_transform_round_trips(self, capsys, matrix_122):
        code, out = run(capsys, "transform", matrix_122, "t")
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["dist"] == [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
        assert doc["summary"]["was_ultrametric"] and doc["summary"]["is_ultrametric"]

    def test_inversion_transform_flagged(self, capsys, tmp_path):
        path = tmp_path / "iso.json"
        save_space(validate_space([[0, 2, 1], [2, 0, 2], [1, 2, 0]]), path)
        code, out = run(capsys, "transform", str(path), INVERSION)
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["was_ultrametric"] and not doc["summary"]["is_ultrametric"]
        assert doc["summary"]["spectrum_after"] == [3.0, 5.0]

    @pytest.mark.parametrize("argv", [
        ["transform", "M", "pow(t, 0.5)"],
        ["transform", "M", "pow(t, 0.5)", "--format", "csv"],
        ["generate", "random", "--n", "9", "--seed", "2"],
        ["generate", "random", "--n", "9", "--seed", "2", "--format", "csv"],
    ])
    def test_out_file_and_stdout_carry_the_same_bytes(self, capsys, tmp_path, matrix_123, argv):
        argv = [matrix_123 if a == "M" else a for a in argv]
        path = tmp_path / "out.txt"
        assert main(argv) == 0
        printed = capsys.readouterr()
        assert main([*argv, "--out", str(path)]) == 0
        written = capsys.readouterr()
        assert written.out == "" and written.err == printed.err
        assert path.read_bytes() == printed.out.encode()

    def test_not_amenable_exits_one(self, capsys, matrix_122):
        code, _ = run(capsys, "transform", matrix_122, "max(0, t - 1)")
        assert code == 1

    def test_verify_reports_predicates_and_covering(self, capsys, matrix_123):
        code, out = run(capsys, "verify", matrix_123, "--eps", "0.1", "--eps", "10")
        assert code == 0
        doc = json.loads(out)
        assert not doc["ultrametric"]["holds"]
        assert doc["metric"]["holds"]
        assert doc["covering"] == [{"eps": 0.1, "balls": 3}, {"eps": 10.0, "balls": 1}]
        assert doc["min_positive_distance"] == 1.0

    def test_verify_ultrametric_space(self, capsys, matrix_122):
        code, out = run(capsys, "verify", matrix_122)
        assert code == 0
        doc = json.loads(out)
        assert doc["ultrametric"]["holds"] and doc["spectrum"] == [1.0, 2.0]


class TestEmbedGenerate:
    def test_embed_universal(self, capsys, matrix_122):
        code, out = run(capsys, "embed", matrix_122)
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]
        assert doc["isometric"]

    def test_embed_rejects_non_ultrametric(self, capsys, matrix_123):
        code, _ = run(capsys, "embed", matrix_123)
        assert code == 1

    def test_embed_tbu(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        save_space(validate_space([[0, 0.5, 0.5], [0.5, 0, 0.25], [0.5, 0.25, 0]]), path)
        code, out = run(capsys, "embed", str(path), "--family", "tbu")
        assert code == 0
        doc = json.loads(out)
        assert doc["levels"] == [0.5, 0.25, 0.125]

    def test_generate_random_is_seed_deterministic(self, capsys):
        code, first = run(capsys, "generate", "random", "--n", "6", "--seed", "9")
        assert code == 0
        code, second = run(capsys, "generate", "random", "--n", "6", "--seed", "9")
        assert first == second
        doc = json.loads(first)
        assert doc["provenance"]["seed"] == 9 and len(doc["labels"]) == 6

    def test_generate_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRA_SEED", "9")
        code, from_env = run(capsys, "generate", "random", "--n", "6")
        assert code == 0
        assert json.loads(from_env)["provenance"]["seed"] == 9

    def test_generate_tbu_and_isosceles(self, capsys):
        code, out = run(capsys, "generate", "tbu", "--levels", "3")
        assert code == 0
        assert json.loads(out)["provenance"]["parameters"]["level_sequence"] == [0.5, 0.25, 0.125]
        code, out = run(capsys, "generate", "isosceles", "--c1", "1", "--c2", "2")
        assert code == 0
        assert json.loads(out)["dist"][0] == [0.0, 2.0, 1.0]

    def test_generate_csv_format(self, capsys):
        code, out = run(capsys, "generate", "equilateral", "--side", "5", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "x1,x2,x3"

    def test_generate_invalid_parameters(self, capsys):
        code, _ = run(capsys, "generate", "isosceles", "--c1", "3", "--c2", "2")
        assert code == 1

    def test_generate_options_follow_the_kind(self, capsys):
        code, out = run(capsys, "generate", "--seed", "5", "random", "--n", "3")
        assert code == 1 and out == ""
        code, out = run(capsys, "generate", "random", "--n", "3", "--seed", "5")
        assert code == 0
        assert json.loads(out)["provenance"]["seed"] == 5

    def test_generate_out_after_the_kind(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        code, out = run(capsys, "generate", "--out", str(path), "equilateral", "--side", "1")
        assert code == 1 and out == "" and not path.exists()
        code, out = run(capsys, "generate", "equilateral", "--side", "1", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["dist"][0] == [0.0, 1.0, 1.0]


class TestSuiteCommand:
    def test_small_suite_passes_and_persists(self, capsys, tmp_path):
        out_file = tmp_path / "summary.json"
        code, out = run(
            capsys,
            "suite", "--trials", "5", "--budget", "200", "--seed", "3",
            "--out", str(out_file),
        )
        assert code == 0
        assert out.count("[PASS]") == 9
        doc = json.loads(out_file.read_text())
        assert doc["passed"] and len(doc["results"]) == 9

    def test_replay_is_bit_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = run(
                capsys,
                "suite", "--trials", "4", "--budget", "128", "--seed", "77",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error(self, capsys):
        code, _ = run(capsys, "suite", "--trials", "0")
        assert code == 1

    def test_seed_zero_summary_matches_golden(self, capsys, tmp_path):
        """The default `suite --seed 0` summary, byte for byte as captured at
        commit 2b86ab0."""
        path = tmp_path / "summary.json"
        code, _ = run(capsys, "suite", "--seed", "0", "--out", str(path))
        assert code == 0
        golden = Path(__file__).parent / "golden" / "suite_seed0.json"
        assert path.read_bytes() == golden.read_bytes()


class TestUndefinedValues:
    """Specs without a real value somewhere on (0, inf) end in a clean exit 1."""

    @pytest.mark.parametrize("function", [
        "pow(t - 1, 0.5)",
        "t * 1e308 * 1e308 - t * 1e308 * 1e308",
    ])
    @pytest.mark.parametrize("command", ["classify", "witness", "transform"])
    def test_exits_one_with_error(self, capsys, tmp_path, command, function):
        argv = [command, function]
        if command == "transform":
            path = tmp_path / "half.json"
            save_space(validate_space([[0, 0.5, 0.5], [0.5, 0, 0.25], [0.5, 0.25, 0]]), path)
            argv = [command, str(path), function]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestStrictJson:
    """A document with a non-finite number is an error, and nothing is written."""

    @pytest.mark.parametrize("argv", [
        ["classify", "pow(1e308, 3)"],
        ["generate", "dplus", "--values", "1", "inf"],
    ])
    def test_non_finite_output_exits_one(self, capsys, tmp_path, argv):
        path = tmp_path / "out.json"
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert main([*argv, "--out", str(path)]) == 1
        assert not path.exists()


class TestBudget:
    """--budget 0 runs the fixed probes only; a negative budget is a usage error."""

    def test_classify_budget_zero_uses_fixed_probes(self, capsys):
        code, out = run(capsys, "classify", "t", "--budget", "0")
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["triplet_preservation"]["budget_used"] == 3
        assert verdicts["minmax_equation"]["budget_used"] == 0

    def test_suite_budget_zero_runs(self, capsys, tmp_path):
        code, out = run(capsys, "suite", "--trials", "4", "--budget", "0",
                        "--out", str(tmp_path / "s.json"))
        assert code == 0 and out.count("[PASS]") == 9

    @pytest.mark.parametrize("argv", [
        ["classify", "t", "--budget", "-5"],
        ["suite", "--budget", "-1"],
    ])
    def test_negative_budget_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--budget" in captured.err


class TestNonFiniteInput:
    def test_dplus_rejects_infinite_value_in_csv(self, capsys):
        assert main(["generate", "dplus", "--values", "1", "inf", "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: values must be finite and >= 0, got inf\n"

    @pytest.mark.parametrize("argv", [
        ["generate", "equilateral", "--side", "inf"],
        ["generate", "isosceles", "--c1", "1", "--c2", "inf"],
        ["generate", "dplus2", "--points", "0,inf", "1,0"],
    ])
    def test_generators_reject_infinite_parameters_in_csv(self, capsys, argv):
        assert main([*argv, "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_verify_names_the_entry_as_a_plain_float(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"labels": ["a", "b"], "dist": [[0, 1e999], [1e999, 0]]}')
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err == "error: entry (0,1) is not finite: inf\n"


class TestOutOfRangeParameters:
    """Out-of-range parameters end in a clean exit 1, not a traceback."""

    # 1075 levels: 0.5**1075 underflows to 0, which the level check rejects
    # before any matrix is built
    @pytest.mark.parametrize("levels", ["2", "1075"])
    def test_witness_levels(self, capsys, levels):
        assert main(["witness", "step_above(1)", "--mode", "pt", "--levels", levels]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_embed_tbu_ratio(self, capsys, matrix_122):
        assert main(["embed", matrix_122, "--family", "tbu", "--ratio", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    def test_verify_eps_is_a_positive_finite_radius(self, capsys, matrix_122, eps):
        assert main(["verify", matrix_122, "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --eps: expected a positive finite radius, got {eps!r}" in captured.err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "M", "--format", "csv"],
        ["witness", "t", "--seed", "1"],
        ["witness", "t", "--budget", "64"],
        ["transform", "M", "t", "--seed", "1"],
        ["embed", "M", "--budget", "64"],
        ["generate", "dplus", "--values", "1", "--seed", "1"],
    ])
    def test_unread_option_is_a_usage_error(self, capsys, matrix_122, argv):
        assert main([matrix_122 if a == "M" else a for a in argv]) == 1
        assert capsys.readouterr().out == ""

    def test_output_to_file(self, capsys, tmp_path, matrix_122):
        out_file = tmp_path / "report.json"
        code, out = run(capsys, "verify", matrix_122, "--out", str(out_file))
        assert code == 0 and out == ""
        assert json.loads(out_file.read_text())["ultrametric"]["holds"]

    def test_consecutive_calls_share_no_state(self, capsys, monkeypatch, matrix_122):
        # one parser serves every main call; no option may leak into the next
        code, out = run(capsys, "verify", matrix_122, "--eps", "1")
        assert code == 0 and json.loads(out)["covering"] == [{"eps": 1.0, "balls": 2}]
        code, out = run(capsys, "verify", matrix_122)
        assert code == 0 and json.loads(out)["covering"] == []
        monkeypatch.setenv("ULTRA_SEED", "7")
        code, out = run(capsys, "classify", "t", "--seed", "5", "--budget", "16")
        assert code == 0 and json.loads(out)["seed"] == 5
        code, out = run(capsys, "classify", "t", "--budget", "16")
        assert code == 0 and json.loads(out)["seed"] == 7
