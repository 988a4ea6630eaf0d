"""Command-line interface: exit codes, JSON determinism, smoke coverage."""
import json

import pytest

from kolmo.cli import main

DECIDE_BOUNDARY = {
    "family": "mm",
    "r": 2,
    "k": [0, 1, 2],
    "M": [1.0, 2.0, 2.0],
}


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecide:
    def test_boundary_tuple(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(DECIDE_BOUNDARY))
        code, out, err = run(capsys, ["decide", "-i", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "admissible_boundary"
        assert doc["witness"] is not None
        assert doc["trace"]

    def test_not_admissible(self, capsys, monkeypatch):
        doc = dict(DECIDE_BOUNDARY, M=[0.5, 2.0, 2.0])
        code, out, _ = run(capsys, ["decide"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["status"] == "not_admissible"

    def test_reads_stdin_writes_file(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "out.json"
        code, _, _ = run(
            capsys,
            ["decide", "-o", str(out_path)],
            stdin=DECIDE_BOUNDARY,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out_path.read_text())["status"] == "admissible_boundary"


class TestClassify:
    def test_interior(self, capsys, monkeypatch):
        doc = {"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}
        code, out, _ = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["kind"] == "interior"
        assert len(parsed["witness"]["atoms"]) == 2

    def test_exterior_with_oracle(self, capsys, monkeypatch):
        doc = {"k": [0, 1, 2], "c": [1.0, 2.0, 3.0]}
        code, out, _ = run(
            capsys, ["classify", "--oracle"], stdin=doc, monkeypatch=monkeypatch
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["kind"] == "exterior"
        assert parsed["oracle"]["feasible"] is False

    def test_odd_system_without_exponent_zero(self, capsys, monkeypatch):
        doc = {"k": [1, 2, 3], "c": [2, 3, 5]}
        code, out, _ = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["kind"] == "interior"
        assert parsed["witness"]["index"] == 2


class TestRepresent:
    def test_principal(self, capsys, monkeypatch):
        doc = {"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}
        code, out, _ = run(
            capsys, ["represent", "--principal"], stdin=doc, monkeypatch=monkeypatch
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["index"] == 1.5
        assert parsed["atoms"][0]["node"] == 0.0

    def test_canonical_requires_root(self, capsys, monkeypatch):
        doc = {"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}
        code, _, err = run(
            capsys, ["represent", "--canonical"], stdin=doc, monkeypatch=monkeypatch
        )
        assert code == 2
        assert "root" in err

    def test_canonical_worked_example(self, capsys, monkeypatch):
        doc = {"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}
        code, out, _ = run(
            capsys,
            ["represent", "--canonical", "--root", "1.0"],
            stdin=doc,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert atoms[0]["node"] == 1.0
        assert atoms[1]["node"] == pytest.approx(2.0, abs=1e-8)


class TestInvalidInput:
    def test_decreasing_exponents_exit_2(self, capsys, monkeypatch):
        doc = {"k": [2, 1], "c": [1.0, 1.0]}
        code, _, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert "error" in err

    def test_missing_field_exit_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, ["decide"], stdin={"family": "mm"}, monkeypatch=monkeypatch
        )
        assert code == 2

    def test_malformed_json_exit_2(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
        code = main(["classify"])
        capsys.readouterr()
        assert code == 2

    def test_bad_tol_exit_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys,
            ["classify", "--tol", "-1"],
            stdin={"k": [0], "c": [1.0]},
            monkeypatch=monkeypatch,
        )
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_exit_2(self, capsys, monkeypatch, tol):
        code, _, err = run(
            capsys, ["classify", "--tol", tol], stdin={"k": [0], "c": [1.0]},
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "--tol" in err

    def test_non_integer_order_exit_2(self, capsys, monkeypatch):
        doc = {"k": [0, 1, 2], "r": "x", "c": [2.0, 3.0, 5.0]}
        code, _, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert '"r"' in err

    def test_exponent_string_exit_2(self, capsys, monkeypatch):
        # A string is not a list, although its characters parse as digits.
        doc = {"k": "012", "c": [2.0, 3.0, 5.0]}
        code, _, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert '"k"' in err

    def test_fractional_exponent_exit_2(self, capsys, monkeypatch):
        # Truncated, k = (0, 1.5, 2) would be classified as k = (0, 1, 2).
        doc = {"k": [0, 1.5, 2], "c": [2.0, 3.0, 5.0]}
        code, _, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert '"k"' in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_moment_exit_2(self, capsys, monkeypatch, value):
        doc = {"k": [0, 1, 2], "c": [1, value, 1]}
        code, _, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("root", ["nan", "inf"])
    def test_non_finite_root_exit_2(self, capsys, monkeypatch, root):
        doc = {"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}
        code, _, err = run(capsys, ["represent", "--canonical", "--root", root],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert "root" in err

    def test_fractional_order_exit_2(self, capsys, monkeypatch):
        doc = {"family": "mm", "r": 2.7, "k": [0, 1, 2], "M": [1.0, 2.0, 2.0]}
        code, _, err = run(capsys, ["decide"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert "order" in err

    def test_integral_floats_accepted(self, capsys, monkeypatch):
        doc = {"family": "mm", "r": 2.0, "k": [0, 1.0, 2], "M": [1.0, 2.0, 2.0]}
        code, out, _ = run(capsys, ["decide"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["status"] == "admissible_boundary"

    @pytest.mark.parametrize("argv", [
        ["random", "--tol", "123"],
        ["random", "--input", "missing.json"],
        ["spline-norms", "--tol", "1e-8"],
        ["verify", "--suite", "correspondence", "--cases", "1", "--tol", "1e-8"],
        ["verify", "--suite", "correspondence", "--cases", "1", "--input", "missing.json"],
        ["represent", "--principal", "--canonical", "--root", "1.0"],
        ["represent"],
    ], ids=["random-tol", "random-input", "spline-norms-tol", "verify-tol", "verify-input",
            "represent-both", "represent-neither"])
    def test_flag_the_command_does_not_read_exit_2(self, capsys, monkeypatch, argv):
        # Each subcommand takes only the flags it reads, and represent exactly
        # one of --principal and --canonical.
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO('{"k": [0, 1, 2], "c": [2, 3, 5]}'))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "roundtrip", "--cases", "2", "--seed", "-1"],
        ["verify", "--suite", "correspondence", "--cases", "0"],
        ["verify", "--suite", "correspondence", "--cases", "-3"],
        ["random", "--seed", "-1"],
    ], ids=["verify-seed", "verify-zero-cases", "verify-negative-cases", "random-seed"])
    def test_negative_seed_or_no_cases_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_grid_flag_rejected(self, capsys):
        # The oracle grid sizes are the solver's own, not a CLI option.
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--grid", "500"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_output(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(DECIDE_BOUNDARY))
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["decide", "-i", str(path)])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestOtherCommands:
    def test_random_is_seed_deterministic(self, capsys):
        code, out1, _ = run(capsys, ["random", "--seed", "5", "--order", "3"])
        assert code == 0
        code, out2, _ = run(capsys, ["random", "--seed", "5", "--order", "3"])
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["family"] == "mm"
        assert len(doc["knots"]) == 2

    def test_spline_norms(self, capsys, monkeypatch):
        doc = {
            "spline": {
                "family": "mm",
                "r": 2,
                "knots": [1.0],
                "weights": [2.0],
                "constant": 0.0,
            },
            "k": [0, 1, 2],
        }
        code, out, _ = run(
            capsys, ["spline-norms"], stdin=doc, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["M"] == pytest.approx([1.0, 2.0, 2.0])

    def test_sweep_csv(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            [
                "sweep", "--component", "1",
                "--from", "0.5", "--to", "1.5", "--steps", "3",
            ],
            stdin=DECIDE_BOUNDARY,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "M,status"
        statuses = [ln.split(",")[1] for ln in lines[1:]]
        assert statuses == [
            "not_admissible", "admissible_boundary", "admissible_interior",
        ]

    def test_sweep_reports_a_rejected_point_as_error(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["sweep", "--component", "1", "--from", "-1", "--to", "1", "--steps", "2"],
            stdin=DECIDE_BOUNDARY,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.strip().splitlines() == ["M,status", "-1,error", "1,admissible_boundary"]

    def test_sweep_component_out_of_range(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys,
            ["sweep", "--component", "9", "--from", "0", "--to", "1", "--steps", "2"],
            stdin=DECIDE_BOUNDARY,
            monkeypatch=monkeypatch,
        )
        assert code == 2

    def test_verify_small_suite(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "correspondence", "--cases", "5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["passed"] == 5

    def test_verify_counterexamples_exit_1(self, capsys, monkeypatch):
        from kolmo import verify

        def failing(cases, seed):
            report = verify.SuiteReport("failing")
            return report.run(cases, seed, lambda rng: "always wrong")

        monkeypatch.setitem(verify.SUITES, "correspondence", failing)
        code, out, _ = run(capsys, ["verify", "--suite", "correspondence", "--cases", "3"])
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["failed"] == 3
        assert doc["failures"][0] == "case 0: always wrong"
