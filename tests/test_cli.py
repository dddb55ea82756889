import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncharm import parse
from ncharm.cli import emit_json, run

# Pinned stdout: label -> argv, where "{point}" stands for a point file
# holding PINNED_POINT.  tests/cli_goldens.json holds each case's exit code
# and stdout, captured from the CLI before its imports were made lazy; a
# change to any of them is a change of output.
PINNED_POINT = {
    "X": [[[1.5, -0.25], [-0.25, 2.0]], [[0.0, 1.0], [1.0, -0.5]]],
    "H": [[0.5, 0.125], [0.125, -1.0]],
}
# Members of the degree-4 family strictly inside, outside and on the
# boundary of its region, and 3*(Re gamma^3)^2 from the degree-6 family.
STRICT4 = "x2^4 - x2^2*x1^2 + x2*x1^2*x2 + x1*x2^2*x1 - x1^2*x2^2 + x1^4"
VIOLATED4 = "x2^4 - x2^2*x1^2 + 3*x2*x1*x2*x1 + 3*x1*x2*x1*x2 - x1^2*x2^2 + x1^4"
BOUNDARY4 = "x2^4 - x2^2*x1^2 - x1^2*x2^2 + x1^4"
MEMBER6 = "3*(x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1)*(x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1)"
PINNED_CASES = {
    "derive.text": ["derive", "--var", "1", "x1^2*x2 + x2*x1^2"],
    "derive.json": ["derive", "--json", "--var", "2", "x1^2*x2 + x2*x1^2"],
    "laplacian.text": ["laplacian", "x1^4 - 2*x1*x2^2*x1"],
    "laplacian.json": ["laplacian", "--json", "--vars", "3", "x1*x2*x3 + x3*x2*x1"],
    "collapse-check.text": ["collapse-check", "x1^2*x2^2 + x2^2*x1^2"],
    "collapse-check.json": ["collapse-check", "--json", "x1^3*x2 + 5"],
    "harmonic-basis.text": ["harmonic-basis", "--vars", "2", "--degree", "4"],
    "harmonic-basis.json": ["harmonic-basis", "--json", "--vars", "3", "--degree", "2"],
    "middle-matrix.text": ["middle-matrix", "h*x1*h + h*x2^2*h + x1*h^2*x1"],
    "middle-matrix.json": ["middle-matrix", "--json", "h*x1*h + h*x2^2*h + x1*h^2*x1"],
    "classify.certified": ["classify", "x1^2 + x2^2"],
    "classify.degree2.json": ["classify", "--json", "x1^2 - 3*x2^2"],
    "classify.odd": ["classify", "--seed", "7", "--samples", "20", "x1^3 + x2^3"],
    "classify.degree4": ["classify", "--seed", "7", "--samples", "20", "x1^4 + x2^4"],
    "classify.family.json": ["classify", "--json", "--seed", "7", "--samples", "20",
                             "x1^6 - x2^6"],
    "classify.strict4": ["classify", STRICT4],
    "classify.strict4.json": ["classify", "--json", STRICT4],
    "classify.violated4": ["classify", "--seed", "7", "--samples", "20", VIOLATED4],
    "classify.violated4.json": ["classify", "--json", "--seed", "7", "--samples", "20",
                                VIOLATED4],
    "classify.boundary4": ["classify", BOUNDARY4],
    "classify.boundary4.json": ["classify", "--json", BOUNDARY4],
    "classify.member6": ["classify", MEMBER6],
    "classify.member6.json": ["classify", "--json", MEMBER6],
    "sos.text": ["sos", "x1^4 - x1^2*x2^2 - x2^2*x1^2 + x2^4"],
    "sos.json": ["sos", "--json", "x1^4 - x1^2*x2^2 - x2^2*x1^2 + x2^4"],
    "sos.vars3.text": ["sos", "--vars", "3",
                       "x1*x2^2*x1 + x2*x3^2*x2 - x1*x3*x1*x3 - x3*x1*x3*x1"],
    "sos.vars3.json": ["sos", "--json", "--vars", "3",
                       "x1*x2^2*x1 + x2*x3^2*x2 - x1*x3*x1*x3 - x3*x1*x3*x1"],
    "odd-sandwich.text": ["odd-sandwich", "x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1"],
    "odd-sandwich.json": ["odd-sandwich", "--json", "x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1"],
    "odd-sandwich.vars3": ["odd-sandwich", "--vars", "3",
                           "x1^3 - x3^2*x1 - x3*x1*x3 - x1*x3^2 + 2*x1^2*x2 - 2*x3^2*x2"],
    "eval.x": ["eval", "--point", "{point}", "x1*x2 + x2*x1 + 3*x2^2"],
    "eval.h.json": ["eval", "--json", "--point", "{point}", "h*x1*h + x2 - 1/3"],
    "sample.counterexample": ["sample", "--seed", "3", "--samples", "20", "x1^3 + x2*x1*x2"],
    "sample.clean": ["sample", "--seed", "3", "--samples", "5", "--sizes", "1,2",
                     "x1^2 + x2^2"],
    "sample.with-h": ["sample", "--seed", "5", "--samples", "10", "h*x1*h"],
}
PINNED = json.loads((Path(__file__).with_name("cli_goldens.json")).read_text("utf-8"))


def run_pinned(label: str, tmp_path: Path) -> list:
    point = tmp_path / "point.json"
    point.write_text(json.dumps(PINNED_POINT), encoding="utf-8")
    argv = [str(point) if a == "{point}" else a for a in PINNED_CASES[label]]
    code, out, _ = run(argv)
    return [code, out]


class TestPinnedOutputs:
    def test_every_subcommand_is_pinned(self):
        assert sorted(PINNED) == sorted(PINNED_CASES)
        commands = {argv[0] for argv in PINNED_CASES.values()}
        assert len(commands) == 10

    @pytest.mark.parametrize("label", sorted(PINNED_CASES))
    def test_stdout_and_exit_code(self, label, tmp_path, monkeypatch):
        monkeypatch.delenv("NCHARM_SEED", raising=False)
        assert run_pinned(label, tmp_path) == PINNED[label]


class TestDerive:
    def test_worked_example(self):
        code, out, err = run(["derive", "--vars", "2", "--var", "1", "x1^2*x2"])
        assert (code, out, err) == (0, "h*x1*x2 + x1*h*x2\n", "")

    def test_json_schema(self):
        code, out, _ = run(
            ["derive", "--vars", "2", "--var", "1", "--json", "x1^2*x2"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["g"] == 2
        assert {"coeff": "1/1", "word": [1, 0, 2]} in obj["terms"]


class TestLaplacian:
    def test_text(self):
        code, out, _ = run(["laplacian", "--vars", "2", "x1^2"])
        assert code == 0
        assert out == "2*h^2\n"

    def test_stdin(self):
        code, out, _ = run(["laplacian", "--vars", "2"], stdin_text="x1^3\n")
        assert code == 0
        assert parse(out.strip(), 2) == parse("2*h^2*x1 + 2*h*x1*h + 2*x1*h^2", 2)


class TestCollapseCheck:
    def test_identity_holds(self):
        code, out, _ = run(["collapse-check", "--vars", "2", "x1^2*x2*x1 + 7"])
        assert code == 0
        assert "identity holds: true" in out

    def test_json(self):
        code, out, _ = run(["collapse-check", "--json", "--vars", "2", "x1^2"])
        obj = json.loads(out)
        assert obj["equal"] is True
        assert obj["collapse_of_laplacian"]["terms"] == [
            {"coeff": "2/1", "exponents": [0, 0, 2]}
        ]


class TestHarmonicBasis:
    def test_degree_three(self):
        code, out, _ = run(["harmonic-basis", "--vars", "2", "--degree", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dimension: 2"
        polys = [parse(line, 2) for line in lines[1:]]
        expected = [
            parse("x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1", 2),
            parse("x1^2*x2 + x1*x2*x1 + x2*x1^2 - x2^3", 2),
        ]
        assert polys == expected

    def test_json(self):
        code, out, _ = run(
            ["harmonic-basis", "--vars", "3", "--degree", "2", "--json"]
        )
        obj = json.loads(out)
        assert obj["dimension"] == 8
        assert len(obj["elements"]) == 8

    def test_bad_degree(self):
        code, _, err = run(["harmonic-basis", "--vars", "2", "--degree", "0"])
        assert code == 2
        assert "error:" in err


class TestMiddleMatrix:
    def test_text_golden(self):
        code, out, _ = run(
            [
                "middle-matrix",
                "--vars",
                "2",
                "3*x1*h*x2^2*h*x1 + h*x1*x2*x1*h - h*x1*h*x2^2 - x2^2*h*x1*h"
                " + 5*x1*x2*h*x2*h*x2*x1",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "border: h, h*x1, h*x2*x1, h*x2^2"
        assert "Z[1][1] = x1*x2*x1" in lines
        assert "Z[2][2] = 3*x2^2" in lines
        assert "Z[3][3] = 5*x2" in lines
        assert "Z[1][4] = -x1" in lines
        assert "Z[4][1] = -x1" in lines

    def test_json(self):
        code, out, _ = run(["middle-matrix", "--vars", "2", "--json", "h^2"])
        obj = json.loads(out)
        assert obj["border"] == [[]]
        assert obj["Z"][0][0]["terms"] == [{"coeff": "1/1", "word": []}]

    def test_rejects_wrong_shape(self):
        code, _, err = run(["middle-matrix", "--vars", "2", "x1^2"])
        assert code == 2
        assert "error:" in err


class TestClassify:
    def test_subharmonic_degree_two(self):
        code, out, _ = run(["classify", "--vars", "2", "x1^2 + x2^2"])
        assert code == 0
        assert out.splitlines()[0] == "verdict: PurelySubharmonicCertified"

    def test_not_subharmonic_exit_code(self):
        code, out, _ = run(["classify", "--vars", "2", "x1^2 - 3*x2^2"])
        assert code == 1
        assert out.splitlines()[0] == "verdict: NotSubharmonic"

    def test_membership_json(self):
        from ncharm import gamma_power_parts

        re3 = gamma_power_parts(3)[0]
        im6 = gamma_power_parts(6)[1]
        p = (re3 * re3).scale(2) + im6.scale(5)
        code, out, _ = run(["classify", "--vars", "2", "--json", p.render()])
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "PurelySubharmonicCertified"
        assert obj["membership"] == {"c0": "2/1", "c1": "0/1", "c2": "5/1"}

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("NCHARM_SEED", "77")
        code1, out1, _ = run(["classify", "--vars", "2", "--json", "x1^4"])
        monkeypatch.setenv("NCHARM_SEED", "78")
        code2, out2, _ = run(["classify", "--vars", "2", "--json", "x1^4"])
        assert code1 == code2 == 1
        assert json.loads(out1)["kind"] == "NotSubharmonic"
        # Different seeds draw different witnesses; explicit flag overrides.
        monkeypatch.setenv("NCHARM_SEED", "78")
        code3, out3, _ = run(
            ["classify", "--vars", "2", "--json", "--seed", "77", "x1^4"]
        )
        assert out3 == out1
        assert out2 != out1


class TestSos:
    def test_boundary_square(self):
        code, out, _ = run(["sos", "--vars", "2", "x1*x2^2*x1"])
        assert code == 0
        assert out == "1: x2*x1\n"

    def test_obstruction_is_validation_error(self):
        code, _, err = run(["sos", "--vars", "2", "x1^4"])
        assert code == 2
        assert "error:" in err


class TestOddSandwich:
    def test_re_gamma3(self):
        code, out, _ = run(
            ["odd-sandwich", "--vars", "2", "x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1"]
        )
        assert code == 0
        assert "phi[1][x1][1] = 1" in out

    def test_json_round_trip(self):
        code, out, _ = run(
            [
                "odd-sandwich",
                "--vars",
                "2",
                "--json",
                "x1^2*x2 + x1*x2*x1 + x2*x1^2 - x2^3",
            ]
        )
        obj = json.loads(out)
        assert obj["degree"] == 3
        assert len(obj["phi"]) == 2


class TestEval:
    def test_point_file(self, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(
            json.dumps({"X": [[[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]]})
        )
        code, out, _ = run(
            ["eval", "--vars", "2", "--point", str(point), "3 + x1^2"]
        )
        assert code == 0
        assert json.loads(out) == [[4.0, 0.0], [0.0, 7.0]]

    def test_missing_file(self):
        code, _, err = run(
            ["eval", "--vars", "2", "--point", "/nonexistent.json", "x1"]
        )
        assert code == 2

    @pytest.mark.parametrize("spec, message", [
        ({"X": [1, 2]}, "point entry X[0] is not a square matrix"),
        ({"X": [[1, 2], [3, 4]]}, "point entry X[0] is not a square matrix"),
        ({"X": [[[1.0]], [[1.0, 2.0]]]}, "point entry X[1] is not a square matrix"),
        ({"X": [[[1.0]], [[1.0]]], "H": 3}, "point entry H is not a square matrix"),
        ({"X": [[[1.0]], [[1.0]]], "H": [[1.0], [2.0]]},
         "point entry H is not a square matrix"),
        ({"X": [[["a"]]]}, "point entry X[0] is not a square matrix"),
        ({"X": 5}, "the point file must be a JSON object whose X is a list"),
        ({"Y": []}, "the point file must be a JSON object whose X is a list"),
        ([1, 2], "the point file must be a JSON object whose X is a list"),
    ])
    def test_malformed_point_file(self, tmp_path, spec, message):
        point = tmp_path / "point.json"
        point.write_text(json.dumps(spec))
        code, out, err = run(["eval", "--point", str(point), "x1 + h^2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestSample:
    def test_counterexample_exit(self):
        code, out, _ = run(
            ["sample", "--vars", "2", "--seed", "5", "--sizes", "1,2",
             "--samples", "20", "x1"]
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["kind"] == "Counterexample"
        assert obj["witness"]["n"] == 1

    def test_clean_exit(self):
        code, out, _ = run(
            ["sample", "--vars", "2", "--seed", "5", "--sizes", "1,2",
             "--samples", "20", "x1^2"]
        )
        assert code == 0
        assert json.loads(out)["kind"] == "NoCounterexampleFound"

    def test_byte_determinism(self):
        argv = ["sample", "--vars", "2", "--seed", "123", "--sizes", "1,2,3",
                "--samples", "50", "x1^3 - x1*x2^2 - x2^2*x1 + x2*x1*x2"]
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 1


class TestInputHandling:
    def test_conflicting_sources(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("x1")
        code, _, err = run(
            ["laplacian", "--vars", "2", "--file", str(f), "x1^2"]
        )
        assert code == 2
        assert "exactly one input source" in err

    def test_file_source(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("x1^2\n")
        code, out, _ = run(["laplacian", "--vars", "2", "--file", str(f)])
        assert code == 0
        assert out == "2*h^2\n"

    def test_malformed_polynomial(self):
        code, _, err = run(["laplacian", "--vars", "2", "x1 + * x2"])
        assert code == 2
        assert "position" in err

    def test_unknown_flag(self):
        code, _, err = run(["laplacian", "--bogus", "x1"])
        assert code == 2

    def test_unknown_command(self):
        code, _, err = run(["frobnicate"])
        assert code == 2


class TestInputDomain:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--samples", "0", "x1^3"], "samples_per_size must be at least 1"),
            (["classify", "--samples", "0", "x1^6-x2^6"], "samples_per_size must be at least 1"),
            (["classify", "--tol", "nan", "x1^6-x2^6"], "tol must be a finite number > 0"),
            (["sample", "--tol", "-1", "x1^2"], "tol must be a finite number > 0"),
            (["laplacian", "--vars", "255", "x1^2"], "num_vars must be at most 254"),
            (["laplacian", "--vars", "300", "x256^2"], "num_vars must be at most 254"),
            (["harmonic-basis", "--vars", "300", "--degree", "1"],
             "num_vars must be at most 254"),
            (["laplacian", "*".join(["(x1+x2)"] * 30)],
             "exceeds MAX_PARSE_LETTERS = 65536"),
            (["laplacian", "x1^513"], "exceeds MAX_LAPLACIAN_LETTERS = 67108864"),
            (["harmonic-basis", "--degree", "40"], "exceed MAX_SYSTEM_LETTERS = 262144"),
            (["harmonic-basis", "--vars", "200", "--degree", "2"],
             "exceeds MAX_NULLSPACE_ENTRIES = 16777216"),
            (["sos", "--vars", "200", "x1^4"], "exceeds MAX_NULLSPACE_ENTRIES = 16777216"),
            (["odd-sandwich", "--vars", "200", "x1*x2*x3*x4*x5"],
             "exceeds MAX_NULLSPACE_ENTRIES = 16777216"),
            (["sample", "--sizes", "100000", "x1"],
             "sizes must be at most MAX_SAMPLE_SIZE = 64, got 100000"),
            (["classify", "--sizes", "100000", "x1^6-x2^6"],
             "sizes must be at most MAX_SAMPLE_SIZE = 64, got 100000"),
        ],
    )
    def test_rejected_with_exit_two(self, argv, message):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, table", [
        (["odd-sandwich", "--vars", "65", "x1*x2*x3"], "65 x 65 x 65"),
        (["sos", "--vars", "19", "x1*x2^2*x1"], "531 x 1 x 531"),
    ])
    def test_sandwich_table_past_cap(self, argv, table):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == (f"error: a sandwich table of {table} coefficients exceeds "
                       "MAX_SANDWICH_ENTRIES = 262144\n")

    def test_sandwich_table_refused_before_the_basis(self):
        # The 3,599-element degree-2 basis took 3.7 s to build before the
        # table was refused.
        code, out, err = run(["odd-sandwich", "--vars", "60", "x1*x2*x3*x4*x5"])
        assert (code, out) == (2, "")
        assert err == ("error: a sandwich table of 3599 x 60 x 3599 coefficients "
                       "exceeds MAX_SANDWICH_ENTRIES = 262144\n")

    def test_seed_variable_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("NCHARM_SEED", "abc")
        code, out, err = run(["sample", "x1^2"])
        assert (code, out) == (2, "")
        assert err == "error: NCHARM_SEED must be an integer, got 'abc'\n"

    def test_sandwich_table_at_cap(self):
        code, out, _ = run(["odd-sandwich", "--vars", "64", "x1*x2*x3"])
        assert (code, out) == (0, "phi[1][x2][3] = 1\n")

    def test_oversized_basis_exits_before_allocating(self):
        # A fresh interpreter limited to 512 MB of address space: building
        # the 1.6e9 dense entries would end in a MemoryError traceback.
        def limit():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "ncharm.cli", "harmonic-basis", "--vars", "200",
             "--degree", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=limit,
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: a nullspace of 39999 vectors over 40000 columns exceeds "
            "MAX_NULLSPACE_ENTRIES = 16777216 entries\n"
        )

    def test_deep_nesting_from_file(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("(" * 2000 + "x1" + ")" * 2000)
        code, out, err = run(["laplacian", "--file", str(f)])
        assert (code, out) == (2, "")
        assert err == "error: nesting exceeds MAX_PARSE_DEPTH = 100 at position 100\n"

    def test_largest_variable_count(self):
        assert run(["laplacian", "--vars", "254", "x254^2"]) == (0, "2*h^2\n", "")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_eval_overflow_is_not_printed(self, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"X": [[[1e200]], [[1.0]]]}))
        code, out, err = run(["eval", "--point", str(point), "x1^2"])
        assert (code, out) == (2, "")
        assert "non-finite" in err

    def test_eval_coefficient_beyond_double_range(self, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"X": [[[1.0]]]}))
        big = "1" + "0" * 310
        code, out, err = run(["eval", "--point", str(point), f"{big}*x1"])
        assert (code, out) == (2, "")
        assert err == f"error: coefficient {big} is outside the double range\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_sample_overflow_names_non_finite_value(self):
        c = "1" + "0" * 308
        code, out, err = run(["sample", "--seed", "1", "--samples", "3",
                              f"{c}*x1^2 + {c}*x2^2"])
        assert (code, out) == (2, "")
        assert err == "error: matrix entries must be finite numbers, found inf\n"

    @pytest.mark.parametrize("command, error", [
        ("sample", "matrix entries must be finite numbers, found inf"),
        ("eval", "cannot write the non-finite number inf as JSON"),
        ("classify", "matrix entries must be finite numbers, found -inf"),
    ])
    def test_overflow_prints_only_the_error_line(self, tmp_path, command, error):
        # A fresh interpreter, so numpy's RuntimeWarning lines would show.
        c = "1" + "0" * 308
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"X": [[[1e200]], [[1.0]]]}))
        argv = {
            "sample": ["sample", "--seed", "1", "--samples", "3", f"{c}*x1^2 + {c}*x2^2"],
            "eval": ["eval", "--point", str(point), "x1^2"],
            # The odd-degree witness search evaluates the Laplacian itself.
            "classify": ["classify", "--seed", "1", "--samples", "3", "--sizes", "3",
                         "1" + "0" * 307 + "*x1^5"],
        }[command]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "ncharm.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")

    def test_eval_names_non_finite_input(self, tmp_path):
        point = tmp_path / "point.json"
        point.write_text('{"X": [[[1.0, NaN], [NaN, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]}')
        code, out, err = run(["eval", "--point", str(point), "x1"])
        assert (code, out) == (2, "")
        assert "matrix entries must be finite numbers" in err


class TestEmitJson:
    def test_fraction_and_float_formats(self):
        from fractions import Fraction

        text = emit_json(
            {"a": Fraction(1, 3), "b": 0.1, "c": [1, None, True], "d": "x"}
        )
        assert text == '{"a":"1/3","b":0.10000000000000001,"c":[1,null,true],"d":"x"}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            emit_json({"x": [1.0, bad]})

    def test_refuses_unknown_types(self):
        import numpy as np

        for bad in (object(), np.zeros((2, 2)), {1, 2}):
            with pytest.raises(TypeError, match="cannot serialize"):
                emit_json({"x": bad})

    def test_round_trip_is_valid_json(self):
        obj = json.loads(emit_json({"x": [1.5, -2.0], "y": {"z": 3}}))
        assert obj == {"x": [1.5, -2.0], "y": {"z": 3}}
