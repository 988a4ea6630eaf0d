"""Command-line interface: exit codes, JSON determinism, smoke coverage."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kolmo import ExponentVector, NormVector, cli, decide_admissible
from kolmo.cli import _parse_problem, _parse_spline, build_parser, main
from kolmo.splines import norms

DECIDE_BOUNDARY = {
    "family": "mm",
    "r": 2,
    "k": [0, 1, 2],
    "M": [1.0, 2.0, 2.0],
}

# A threshold tuple whose comparison spline has an atom at node 4.1e15 of
# weight 1e-312: its spline weight is finite although node^20 overflows.
DECIDE_OVERFLOW = {
    "family": "mm",
    "r": 20,
    "k": [2, 10, 19, 20],
    "M": [1.8937508646657673e-11, 0.0004193527144419581, 11.049838911572566,
          8.30761380095551],
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

    def test_power_overflow_in_the_witness(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide"], stdin=DECIDE_OVERFLOW,
                           monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "admissible_boundary"
        k = ExponentVector(tuple(DECIDE_OVERFLOW["k"]), 20)
        got = norms(_parse_spline(doc["witness"]), k).values
        assert got == pytest.approx(DECIDE_OVERFLOW["M"], rel=1e-7)

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

    def test_exterior_without_exponent_zero(self, capsys, monkeypatch):
        # Only a zero atom would carry c; without exponent 0 no atom near 0
        # can stand for it, since each feeds the zero moments.
        doc = {"k": [1, 2, 3], "c": [1, 0, 0]}
        code, out, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0, err
        assert json.loads(out)["kind"] == "exterior"

    def test_zero_atom_without_exponent_zero_is_near_0(self, capsys, monkeypatch):
        # The (0..3) moments of delta_0 + delta_1: an atom near 0 carries c_1.
        doc = {"k": [1, 2, 3, 4], "c": [2, 1, 1, 1]}
        code, out, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0, err
        parsed = json.loads(out)
        assert parsed["kind"] == "interior"
        assert parsed["witness"]["index"] == 2
        atoms = parsed["witness"]["atoms"]
        back = [sum(a["weight"] * a["node"] ** k for a in atoms) for k in doc["k"]]
        assert max(abs(b / v - 1.0) for b, v in zip(back, doc["c"])) <= 1e-8

    @pytest.mark.parametrize("argv, kind, atoms", [
        (["classify", "--tol", "1e-6"], "boundary", 1),
        (["classify"], "interior", 2),
    ])
    def test_readme_tol_example(self, capsys, monkeypatch, argv, kind, atoms):
        # A larger tol accepts the lower-index witness within it.
        doc = {"k": [0, 1, 2], "c": [1, 1, 1.0000001]}
        code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
        assert code == 0, err
        parsed = json.loads(out)
        assert parsed["kind"] == kind
        assert len(parsed["witness"]["atoms"]) == atoms

    @pytest.mark.parametrize("c, message", [
        # An atom at 0 and one at 1e290 of weight 1e-590: the solve in log
        # variables reproduces c, but that weight underflows.
        ([2, 1e-300, 1e-10], "the measure reproduces c, but not in floating point"),
        # No node scale 2^m keeps both c_1 = 1e308 (m >= 1) and the subnormal
        # c_2 = 1e-320 (m <= -21) normal.
        ([1, 1e308, 1e-320], "a moment leaves the float range as the nodes are scaled"),
    ], ids=["weight-beyond-floats", "scaled-moment-overflows"])
    def test_numerical_failure_exit_3(self, capsys, monkeypatch, c, message):
        doc = {"k": [0, 1, 2], "c": c}
        code, out, err = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, out, err) == (3, "", f"numerical failure: {message}\n")

    @pytest.mark.parametrize("level", ["info", None])
    def test_kolmo_log_shows_the_traceback(self, level):
        # A fresh process: logging is configured once, from KOLMO_LOG.
        env = {key: v for key, v in os.environ.items() if key != "KOLMO_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
        if level:
            env["KOLMO_LOG"] = level
        proc = subprocess.run([sys.executable, "-m", "kolmo.cli", "classify"], env=env,
                              input=json.dumps({"k": [0, 1, 2], "c": [1, 1e308, 1e-320]}),
                              capture_output=True, text=True)
        assert proc.returncode == 3 and proc.stdout == ""
        message = "numerical failure: a moment leaves the float range as the nodes are scaled\n"
        if level:
            assert "Traceback" in proc.stderr and proc.stderr.endswith(message)
        else:
            assert proc.stderr == message

    def test_scale_off_mid_range(self, capsys, monkeypatch):
        # The mid-range node scale overflows c_1, a scale nearer c_2's keeps
        # all three normal: exterior, as c_1^2 > c_0 c_2.
        doc = {"k": [0, 1, 2], "c": [1e146, 1e147, 1e-198]}
        code, out, _ = run(capsys, ["classify"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["kind"] == "exterior"


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

    @pytest.mark.parametrize("argv, doc, message", [
        # One atom at 2: a boundary vector has no principal representation.
        (["represent", "--principal"], {"k": [0, 1, 2, 3], "c": [1, 2, 4, 8]},
         "error: the moment vector is not interior\n"),
        # 5/3 is a root of the principal representation (0, 0.2), (5/3, 1.8).
        (["represent", "--canonical", "--root", "1.6666666666666667"],
         {"k": [0, 1, 2], "c": [2, 3, 5]},
         "error: prescribed root 1.6666666666666667 coincides with principal root "
         "1.6666666666666667; the pinned structure degenerates\n"),
    ], ids=["principal-of-boundary", "root-on-principal-root"])
    def test_wrong_class_exit_2(self, capsys, monkeypatch, argv, doc, message):
        code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", message)


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

    @pytest.mark.parametrize("argv", [["classify"], ["represent", "--principal"]])
    def test_norm_document_is_not_moments_exit_2(self, capsys, monkeypatch, argv):
        code, _, err = run(capsys, argv, stdin=DECIDE_BOUNDARY, monkeypatch=monkeypatch)
        assert code == 2
        assert '"c"' in err

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

    def test_moment_beyond_float_range_exit_2(self, capsys, monkeypatch):
        # Finite norms whose moments (r - k)! M_k overflow.
        doc = {"family": "mm", "r": 20, "k": [0, 1, 20], "M": [1e300, 1e300, 1e300]}
        code, out, err = run(capsys, ["decide"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "error: moment (r-k)! M_k at k=1 exceeds the float range: 19! * 1e+300\n"

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

    @pytest.mark.parametrize("field, value", [("r", 2.5), ("family", "xx")])
    def test_spline_family_read_as_decide_reads_it(self, capsys, monkeypatch, field, value):
        # Truncated, "r": 2.5 would give the norms of an order-2 spline.
        spline = {"family": "mm", "r": 2, "knots": [1.0], "weights": [2.0], field: value}
        got = run(capsys, ["spline-norms"], stdin={"spline": spline, "k": [0, 1, 2]},
                  monkeypatch=monkeypatch)
        want = run(capsys, ["decide"], stdin={**DECIDE_BOUNDARY, field: value},
                   monkeypatch=monkeypatch)
        assert got == want
        assert got[0] == 2 and got[2].startswith("error: invalid family/order: ")

    @pytest.mark.parametrize("argv, doc, message", [
        (["decide"], {"family": "mm", "r": True, "k": [0, True], "M": [1, 2]},
         "invalid family/order: "),
        (["decide"], {"family": "mm", "r": "2", "k": ["0", "1", 2], "M": [1, 2, 2]},
         "invalid family/order: "),
        (["decide"], {**DECIDE_BOUNDARY, "k": [0, True, 2]}, 'field "k" '),
        (["decide"], {**DECIDE_BOUNDARY, "M": [1, "2", 2]}, 'invalid "M": '),
        (["classify"], {"k": [0, 1, 2], "c": [True, 3, 5]}, 'invalid "c": '),
        (["spline-norms"], {"spline": {"family": "mm", "r": 2, "knots": [1.0],
                                       "weights": [True]}, "k": [0, 1, 2]},
         "malformed spline object: "),
        (["spline-norms"], {"spline": {"family": "mm", "r": 2, "knots": ["1"],
                                       "weights": [2.0], "constant": False},
                            "k": [0, 1, 2]},
         "malformed spline object: "),
    ], ids=["decide-bool-order", "decide-string-order", "decide-bool-exponent",
            "decide-string-norm", "classify-bool-moment", "spline-bool-weight",
            "spline-string-knot"])
    def test_only_json_numbers_are_numbers(self, capsys, monkeypatch, argv, doc, message):
        # Read as numbers, true would be 1 and "2" would be 2.
        code, out, err = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert "JSON number" in err

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


class TestParserReuse:
    """main builds one parser per process, and no call leaves state in it."""

    README_DECIDE = (["decide"], DECIDE_BOUNDARY)
    TOL_DOC = {"k": [0, 1, 2], "c": [1, 1, 1.0000001]}
    MOMENTS = {"k": [0, 1, 2], "c": [2, 3, 5]}
    DEFAULTS = [(["classify", "--tol", "1e-6"], TOL_DOC), (["classify"], TOL_DOC)]
    COMMANDS = [
        (["represent", "--principal"], MOMENTS),
        (["represent", "--canonical", "--root", "1.0"], MOMENTS),
        README_DECIDE,
        (["sweep", "--component", "1", "--from", "0.5", "--to", "1.5", "--steps", "3"],
         DECIDE_BOUNDARY),
        (["random"], None),
        (["verify", "--suite", "correspondence", "--cases", "5"], None),
    ]
    ERRORS = [
        (["sweep", "--component", "1", "--from", "0.5", "--to", "1.5"], DECIDE_BOUNDARY),
        (["classify"], DECIDE_BOUNDARY),
        README_DECIDE,
    ]

    @staticmethod
    def _outcomes(calls, capsys, monkeypatch):
        outcomes = []
        for argv, doc in calls:
            if doc is not None:
                monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            outcomes.append((code, out.out, out.err))
        return outcomes

    def _shared_then_fresh(self, calls, capsys, monkeypatch):
        """The calls' outcomes on one shared parser, with the parsers built
        for them; then each call's outcome on a parser of its own."""
        built = []

        def counting_build():
            built.append(None)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        shared = self._outcomes(calls, capsys, monkeypatch)
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = self._outcomes(calls, capsys, monkeypatch)
        return shared, fresh, len(built)

    def test_defaults_are_not_sticky(self, capsys, monkeypatch):
        shared, fresh, built = self._shared_then_fresh(self.DEFAULTS, capsys, monkeypatch)
        assert [json.loads(out)["kind"] for _, out, _ in shared] == ["boundary", "interior"]
        assert (shared, built) == (fresh, 1)

    def test_no_state_leaks_between_commands(self, capsys, monkeypatch):
        shared, fresh, built = self._shared_then_fresh(self.COMMANDS, capsys, monkeypatch)
        assert [code for code, _, _ in shared] == [0] * len(self.COMMANDS)
        assert (shared, built) == (fresh, 1)

    def test_error_paths_recover(self, capsys, monkeypatch):
        shared, fresh, built = self._shared_then_fresh(self.ERRORS, capsys, monkeypatch)
        (parse_code, _, parse_err), (input_code, _, input_err), last = shared
        assert parse_code == input_code == 2
        assert "--steps" in parse_err and input_err.startswith("error: ")
        assert last[0] == 0 and json.loads(last[1])["status"] == "admissible_boundary"
        assert (shared, built) == (fresh, 1)

    def test_one_parser_for_every_call(self, capsys, monkeypatch):
        calls = self.DEFAULTS + self.COMMANDS + self.ERRORS
        shared, fresh, built = self._shared_then_fresh(calls, capsys, monkeypatch)
        assert (shared, built) == (fresh, 1)
        assert shared[len(self.DEFAULTS) + 2] == shared[-1]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()


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

    def test_spline_norms_beyond_float_range_exit_2(self, capsys, monkeypatch):
        doc = {"spline": {"family": "mm", "r": 20, "knots": [1e20], "weights": [1.0]},
               "k": [0, 20]}
        code, _, err = run(capsys, ["spline-norms"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert "float range" in err

    def test_sweep_over_a_power_overflow(self, capsys, monkeypatch):
        m = str(DECIDE_OVERFLOW["M"][0])
        code, out, _ = run(
            capsys,
            ["sweep", "--component", "1", "--from", m, "--to", m, "--steps", "1"],
            stdin=DECIDE_OVERFLOW,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.strip().splitlines() == ["M,status", f"{m},admissible_boundary"]

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

    @pytest.mark.parametrize("component", [2, 3])
    def test_sweep_matches_decide_at_each_point(self, capsys, monkeypatch, component):
        # Components past the first change the suffixes the recursion compares
        # against, so cached comparison norms must not carry over between points.
        code, out, _ = run(
            capsys,
            ["sweep", "--component", str(component), "--from", "1", "--to", "3",
             "--steps", "5"],
            stdin=DECIDE_BOUNDARY,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        M = _parse_problem(DECIDE_BOUNDARY)
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        want = []
        for value, _ in rows:
            values = list(M.values)
            values[component - 1] = float(value)
            point = NormVector(tuple(values), M.exponents, M.family)
            want.append(decide_admissible(point).status.value)
        assert [status for _, status in rows] == want
        assert len(set(want)) == 3

    @pytest.mark.parametrize("bounds, flag", [
        (["--from", "nan", "--to", "1"], "--from"),
        (["--from", "0.5", "--to", "inf"], "--to"),
        (["--from=-inf", "--to", "1"], "--from"),
        (["--from=-1e308", "--to", "1e308"], "--to minus --from"),
    ])
    def test_sweep_non_finite_bounds_exit_2(self, capsys, monkeypatch, bounds, flag):
        def no_decide(*args, **kwargs):
            raise AssertionError("sweep decided a point before rejecting its bounds")

        monkeypatch.setattr("kolmo.cli.decide_status", no_decide)
        code, out, err = run(
            capsys,
            ["sweep", "--component", "1", *bounds, "--steps", "3"],
            stdin=DECIDE_BOUNDARY,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("bound", ["-1e-3", "-.5e-2", "-1", "-2.5"])
    def test_sweep_negative_bound_as_its_own_argument(self, capsys, monkeypatch, bound):
        rows = []
        for argv in (["--from", bound], ["--fro", bound], [f"--from={bound}"]):
            code, out, err = run(
                capsys,
                ["sweep", "--component", "1", *argv, "--to", "2", "--steps", "3"],
                stdin=DECIDE_BOUNDARY,
                monkeypatch=monkeypatch,
            )
            assert code == 0, err
            rows.append(out.strip().splitlines())
        assert rows[0] == rows[1] == rows[2]
        value, status = rows[0][1].split(",")
        assert float(value) == float(bound) and status == "error"

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--component", "1", "--from", "0", "--to", "-inf", "--steps", "3"],
         "--to"),
        (["sweep", "--component", "1", "--fr", "-inf", "--to", "0", "--steps", "3"],
         "--from"),
        (["classify", "--tol", "-1e-3"], "--tol must be finite and > 0"),
    ])
    def test_negative_float_reaches_validation(self, capsys, monkeypatch, argv, message):
        # Not argparse's "expected one argument": the value is read, then rejected.
        code, out, err = run(capsys, argv, stdin=DECIDE_BOUNDARY, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert message in err
        assert "expected one argument" not in err

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

    def test_verify_unknown_suite_exit_2(self, capsys):
        from kolmo import verify

        code, out, err = run(capsys, ["verify", "--suite", "nope", "--cases", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown suite 'nope'")
        assert all(name in err for name in verify.SUITES)

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


# The console-script checks of the README examples and past regressions, one
# row each: (argv, stdin document or None, exit code, check of stdout or None).
def _rows(out):
    return list(csv.reader(io.StringIO(out)))


def _atoms(atoms):
    return [(x["node"], x["weight"]) for x in atoms]


def _unit_sweep(out):
    h, *rows = _rows(out)
    s = {round(float(x), 9): t for x, t in rows}
    return (h == ["M", "status"] and len(rows) == 11 and s[1.0] == "admissible_boundary"
            and all(t == ("not_admissible" if x < 1 else "admissible_interior")
                    for x, t in s.items() if x != 1.0))


def _w(out):
    return json.loads(out)["witness"]


MM_012 = {"family": "mm", "r": 2, "k": [0, 1, 2]}
CONSOLE_CHECKS = [
    (["decide"], DECIDE_BOUNDARY, 0, lambda out: json.loads(out)["status"] == "admissible_boundary"
     and len(_w(out)["knots"]) == 1 and _w(out)["constant"] == 0),
    (["decide"], dict(MM_012, M=[1.5, 2.0, 2.0]), 0, lambda out: json.loads(out)["status"]
     == "admissible_interior" and len(_w(out)["knots"]) == 1 and all(
         abs(g - v) <= 1e-12 for g, v in zip(_w(out)["knots"] + _w(out)["weights"]
                                             + [_w(out)["constant"]], (1, 2, 0.5)))),
    (["classify"], {"k": [0, 3], "c": [2, 16]}, 0, lambda out: json.loads(out)["kind"]
     == "interior" and len(a := _atoms(_w(out)["atoms"])) == 1
     and all(abs(v / 2 - 1) <= 1e-12 for v in a[0])),
    (["classify", "--oracle"], {"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}, 0,
     lambda out: json.loads(out)["kind"] == "interior" and json.loads(out)["oracle"]["feasible"]),
    (["represent", "--canonical", "--root", "1.0"], {"k": [0, 1, 2], "c": [2, 3, 5]}, 0,
     lambda out: len(a := _atoms(json.loads(out)["atoms"])) == 2 and all(
         abs(n - m) <= 1e-8 and abs(w - 1) <= 1e-8 for (n, w), m in zip(a, (1, 2)))),
    (["represent", "--canonical", "--root", "0.5"], {"k": [0, 1, 2], "c": [2, 3, 5]}, 0,
     lambda out: len(a := _atoms(json.loads(out)["atoms"])) == 2 and all(
         abs(g / v - 1) <= 1e-12 for p, q in zip(a, ((0.5, 0.4), (1.75, 1.6)))
         for g, v in zip(p, q))),
    (["represent", "--principal"], {"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}, 0,
     lambda out: len(a := _atoms(json.loads(out)["atoms"])) == 2 and all(
         abs(n - m) <= 1e-8 and abs(w - v) <= 1e-8
         for (n, w), (m, v) in zip(a, ((0, 0.2), (5 / 3, 1.8))))),
    (["spline-norms"], {"spline": {"family": "mm", "r": 2, "knots": [1.0], "weights": [2.0]},
                        "k": [0, 1, 2]}, 0,
     lambda out: len(m := json.loads(out)["M"]) == 3
     and all(abs(g - w) <= 1e-12 for g, w in zip(m, (1, 2, 2)))),
    (["sweep", "--component", "1", "--from", "0.5", "--to", "1.5", "--steps", "11"],
     DECIDE_BOUNDARY, 0, _unit_sweep),
    (["sweep", "--component", "2", "--from", "1", "--to", "3", "--steps", "5"],
     DECIDE_BOUNDARY, 0, lambda out: [t for _, t in _rows(out)[1:]] == [
         "admissible_interior", "admissible_interior", "admissible_boundary",
         "not_admissible", "not_admissible"]),
    (["verify", "--suite", "correspondence", "--cases", "20"], None, 0,
     lambda out: json.loads(out)["ok"] is True and json.loads(out)["passed"] == 20),
    (["random", "--seed", "7"], None, 0, lambda out: len(json.loads(out)["knots"]) == 2),
    (["random", "--seed", "-1"], None, 2, None),
    (["classify"], {"k": [0, 1, 2, 7, 8], "c": [5.562467355532347, 33.87486849636027,
                                                258.85281275009135, 4791822.853040424,
                                                47017567.068835765]}, 0,
     lambda out: json.loads(out)["kind"] == "exterior"),
    (["classify"], {"k": [0, 1, 2], "c": [1, "nan", 1]}, 2, None),
    (["classify", "--tol", "1e-6"], {"k": [0, 1, 2], "c": [1, 1, 1.0000001]}, 0,
     lambda out: json.loads(out)["kind"] == "boundary" and len(_w(out)["atoms"]) == 1),
    (["classify"], {"k": [0, 1, 2], "c": [1, 1, 1.0000001]}, 0,
     lambda out: json.loads(out)["kind"] == "interior"),
    (["classify"], DECIDE_BOUNDARY, 2, None),
    (["decide"], DECIDE_OVERFLOW, 0, lambda out: json.loads(out)["status"] == "admissible_boundary"),
    (["spline-norms"], {"spline": {"family": "mm", "r": 20, "knots": [1e20], "weights": [1.0]},
                        "k": [0, 20]}, 2, None),
    (["decide", "--tol", "1e-4"], {"family": "am", "r": 20, "k": [2, 3, 4, 8, 9, 20],
                                   "M": [760258255.1602819, 240531355.50004354, 76099579.2575742,
                                         762473.6344877689, 241232.6118614608, 2.228648874737896]},
     0, lambda out: json.loads(out)["status"] == "admissible_boundary"),
    (["represent", "--principal"], {"k": [0, 3], "c": [2, 16]}, 0,
     lambda out: len(a := _atoms(json.loads(out)["atoms"])) == 1
     and all(abs(v / 2 - 1) <= 1e-12 for v in a[0])),
    (["sweep", "--component", "1", "--from", "-1e-3", "--to", "2", "--steps", "3"],
     DECIDE_BOUNDARY, 0, lambda out: _rows(out)[0] == ["M", "status"] and len(_rows(out)) == 4),
    (["classify"], {"k": [0, 1, 2], "c": [2e131, 3e131, 5e131]}, 0,
     lambda out: json.loads(out)["kind"] == "interior"),
    (["classify"], {"k": [0, 1, 2], "c": [1, 1e308, 1e-320]}, 3, None),
    (["spline-norms"], {"spline": {"family": "mm", "r": 2.5, "knots": [1.0], "weights": [2.0]},
                        "k": [0, 1, 2]}, 2, None),
    (["decide"], {"family": "am", "r": 3, "k": [0, 1, 2, 3], "M": [1, 1, 1, 2]}, 0,
     lambda out: json.loads(out)["status"] == "admissible_boundary"
     and len(_w(out)["knots"]) == 2 and _w(out)["knots"][1] < 1e-6
     and all(abs(v - 1) <= 1e-12 for v in [_w(out)["knots"][0]] + _w(out)["weights"])),
    (["decide"], {"family": "mm", "r": True, "k": [0, True], "M": [1, 2]}, 2, None),
    (["decide"], {"family": "mm", "r": "2", "k": ["0", "1", 2], "M": [1, 2, 2]}, 2, None),
    (["classify"], {"k": [0, 1, 2], "c": [True, 3, 5]}, 2, None),
    (["classify"], {"k": [3, 4, 11], "r": 20,
                    "c": [104841767.92320746, 2459873.0450706827, 34241996.7601226]}, 0,
     lambda out: json.loads(out)["kind"] == "interior" and len(_w(out)["atoms"]) == 2),
    (["decide"], {"family": "am", "r": 20, "k": [1, 2, 20], "M": [1e-20, 1e-30, 1.0]}, 3, None),
    (["classify"], {"k": [1, 2, 20], "r": 20, "c": [1e-10, 1e-30, 1.0]}, 0,
     lambda out: json.loads(out)["kind"] == "interior" and len(_w(out)["atoms"]) == 2),
    (["classify"], {"k": [0, 3, 5, 7, 8], "c": [9.730507379958823, 16030.239858993526,
                                                2907708.559949573, 527426254.3427653,
                                                7103414854.325271]}, 0,
     lambda out: json.loads(out)["kind"] == "boundary"),
]


@pytest.mark.parametrize("argv, doc, want, check", CONSOLE_CHECKS,
                         ids=[f"{i:02d}-{c[0][0]}" for i, c in enumerate(CONSOLE_CHECKS)])
def test_console_checks(capsys, monkeypatch, argv, doc, want, check):
    try:
        code, out, _ = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    except SystemExit as exc:
        code, out = exc.code, capsys.readouterr().out
    assert code == want, out
    assert check is None or check(out), out


def test_cold_decide_never_imports_numpy(fresh_python):
    """The README decide and a positive pair's classify run in plain floats,
    and neither loads the verification suites."""
    fresh_python(
        "import contextlib, io, json, sys\n"
        "import kolmo.cli\n"
        "assert 'numpy' not in sys.modules and 'kolmo.verify' not in sys.modules\n"
        f"sys.stdin = io.StringIO({json.dumps(DECIDE_BOUNDARY)!r})\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert kolmo.cli.main(['decide']) == 0\n"
        "assert json.loads(out.getvalue())['status'] == 'admissible_boundary'\n"
        "from kolmo import ClassKind, ExponentVector, MomentVector, classify\n"
        "got = classify(MomentVector((2.0, 3.0), ExponentVector((0, 1), 1)))\n"
        "assert got.kind is ClassKind.INTERIOR and len(got.witness) == 1\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
        "assert 'kolmo.verify' not in sys.modules\n"
    )


FIRST_ARRAY_CALLS = {
    "representations": "classify(MomentVector((2.0, 3.0, 5.0), ExponentVector((0, 1, 2), 2)))",
    "splines": "random_member(FunctionFamily(Family.MM, 3), 2, 0)",
    "oracle": "cone_membership(MomentVector((2.0, 3.0, 5.0), ExponentVector((0, 1, 2), 2)))",
    "verify": "verify.roundtrip_suite(cases=1).passed == 1",
}


@pytest.mark.parametrize("module, call", FIRST_ARRAY_CALLS.items(), ids=FIRST_ARRAY_CALLS)
def test_numpy_is_imported_on_first_use(fresh_python, module, call):
    """A module's first array work imports numpy and binds its np to numpy itself."""
    fresh_python(
        "import sys\n"
        "from kolmo import *\n"
        "from kolmo import oracle, representations, splines, verify\n"
        "assert 'numpy' not in sys.modules\n"
        f"assert {call}\n"
        "import numpy\n"
        f"assert {module}.np is numpy, {module}.np\n"
    )
