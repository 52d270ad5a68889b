"""Command line: exit codes, report envelopes, corpus of function files."""

import json
import pathlib
import shutil
import subprocess
import sys
import warnings

import jsonschema
import pytest

import diskcheck
from diskcheck import InputError, function_from_dict, function_to_dict, load_function
from diskcheck.cli import main, parse_beta

CORPUS = pathlib.Path(__file__).parent / "corpus"

# every corpus file, classified; the directory must match exactly
VALID_FILES = {
    "identity_n1.json",
    "identity_n2.json",
    "identity_n3.json",
    "ex1_n1_a50.json",
    "ex1_n2_a25.json",
    "ex2_n1_a25.json",
    "ex2_n3_a00.json",
    "ex3_n1_a50.json",
    "ex3_n2_a40.json",
    "halfdisk.json",
    "big_quadratic.json",
    "turnfail.json",
    "neg_quadratic.json",
    "rnd1.json",
    "rnd2.json",
    "rnd3.json",
    "rnd4.json",
}
INVALID_FILES = {
    "bad_syntax.json",
    "missing_n.json",
    "zero_n.json",
    "bad_pair.json",
    "nonfinite.json",
    "bool_n.json",
    "wrong_type.json",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_corpus_is_complete():
    names = {p.name for p in CORPUS.glob("*.json")}
    assert names == VALID_FILES | INVALID_FILES
    assert len(names) >= 20


class TestParseBeta:
    def test_accepted_literals(self):
        assert parse_beta("0.5") == 0.5 + 0j
        assert parse_beta("-1") == -1 + 0j
        assert parse_beta("2i") == 2j
        assert parse_beta("1+2i") == 1 + 2j
        assert parse_beta("1.5-0.25i") == 1.5 - 0.25j
        assert parse_beta("-0.5i") == -0.5j
        assert parse_beta("2j") == 2j
        assert parse_beta(" 1 + 2I ") == 1 + 2j

    def test_rejected_literals(self):
        for bad in ("zzz", "", "1+", "1+2i+3", "inf", "nan+1i"):
            with pytest.raises(InputError):
                parse_beta(bad)


class TestFunctionFiles:
    @pytest.mark.parametrize("name", sorted(VALID_FILES))
    def test_valid_files_load(self, name):
        f = load_function(CORPUS / name)
        assert f.n >= 1

    @pytest.mark.parametrize("name", sorted(INVALID_FILES))
    def test_invalid_files_are_diagnosed(self, name):
        with pytest.raises(InputError):
            load_function(CORPUS / name)

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_function(CORPUS / "does_not_exist.json")

    def test_dict_round_trip(self):
        f = load_function(CORPUS / "rnd2.json")
        again = function_from_dict(function_to_dict(f))
        assert again == f

    def test_error_messages_name_the_field(self):
        with pytest.raises(InputError, match="coeffs\\[0\\]"):
            function_from_dict({"n": 1, "coeffs": [[0.1]]})
        with pytest.raises(InputError, match="'n'"):
            function_from_dict({"coeffs": []})
        with pytest.raises(InputError, match="line 1"):
            load_function(CORPUS / "bad_syntax.json")

    @pytest.mark.parametrize("name", sorted(VALID_FILES))
    def test_valid_files_satisfy_schema(self, name, report_schema):
        doc = json.loads((CORPUS / name).read_text())
        jsonschema.validate(doc, report_schema)


class TestExitCodes:
    def test_holds_is_zero(self, capsys):
        code, _ = run_cli(
            capsys, "check", "--theorem", "thm1", "--alpha", "0.5",
            "--input", str(CORPUS / "ex1_n1_a50.json"),
        )
        assert code == 0

    def test_inconclusive_is_two(self, capsys):
        code, _ = run_cli(
            capsys, "check", "--theorem", "thm1",
            "--input", str(CORPUS / "big_quadratic.json"),
        )
        assert code == 2

    def test_fails_is_one(self, capsys):
        code, _ = run_cli(
            capsys, "membership", "--class", "c", "--alpha", "0.6",
            "--input", str(CORPUS / "turnfail.json"),
        )
        assert code == 1

    def test_errors_are_three(self, capsys):
        cases = [
            ["check", "--theorem", "nope", "--input", str(CORPUS / "halfdisk.json")],
            ["check", "--theorem", "thm1", "--input", str(CORPUS / "missing.json")],
            ["check", "--theorem", "thm1", "--input", str(CORPUS / "bad_syntax.json")],
            ["check", "--theorem", "thm1", "--alpha", "2.0", "--input", str(CORPUS / "halfdisk.json")],
            ["check", "--theorem", "thm1", "--beta", "zzz", "--input", str(CORPUS / "halfdisk.json")],
            ["check", "--theorem", "thm1", "--rmax", "1.5", "--input", str(CORPUS / "halfdisk.json")],
            ["check", "--theorem", "lem11", "--input", str(CORPUS / "halfdisk.json")],  # rho missing
            ["example", "--id", "ex9"],
            ["example", "--id", "ex3", "--alpha", "0.0"],
            ["membership", "--class", "star", "--alpha", "1.0", "--input", str(CORPUS / "halfdisk.json")],
            ["unknown-command"],
            [],
        ]
        for argv in cases:
            code = main(argv)
            capsys.readouterr()
            assert code == 3, argv

    @pytest.mark.parametrize("command", [
        ["check", "--theorem", "thm1", "--alpha", "0.25"],
        ["membership", "--class", "c"],
        ["falsify", "--theorem", "thm1", "--n", "2", "--alpha", "0.25", "--beta=-1.7e308"],
    ])
    def test_overflow_is_named_and_exits_three(self, capsys, tmp_path, command):
        # warnings raise here, so a numpy RuntimeWarning would show in the message
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1, "coeffs": [[1e308, 0], [1e308, 0]]}))
        argv = command + (["--input", str(path)] if command[0] != "falsify" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "overflow" in line and "Warning" not in line and "internal error" not in line

    @pytest.mark.parametrize("content, named", [
        (b'{"n": 1, "coeffs": [[1' + b"0" * 400 + b', 0]]}', "coeffs[0][0] overflows the float range"),
        (b'{"n": 1, "coeffs": [[1' + b"0" * 5000 + b', 0]]}', "unreadable function spec"),
        (b'{"n": 1, "coeffs": [[0.1, 0]], "note": "\xff"}', "unreadable function spec"),
    ], ids=["int_past_float_range", "int_past_digit_limit", "not_utf8"])
    def test_unreadable_spec_is_an_input_error(self, capsys, tmp_path, content, named):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        code = main(["check", "--theorem", "thm2", "--alpha", "0.5", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        [line] = captured.err.splitlines()
        assert named in line and "internal error" not in line

    def test_internal_error_is_three(self, capsys, monkeypatch):
        # a crash must never exit 1, which reads as "fails"
        for exc, line in [
            (MemoryError("Unable to allocate 7.28 TiB"), "MemoryError: Unable to allocate 7.28 TiB"),
            (RuntimeError("first\n  second"), "RuntimeError: first second"),
        ]:
            def crash(*args, **kwargs):
                raise exc

            monkeypatch.setattr("diskcheck.cli.check", crash)
            code = main(["check", "--theorem", "thm1", "--input", str(CORPUS / "halfdisk.json")])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.splitlines() == [f"diskcheck: error: internal error: {line}"]


class TestReports:
    def test_check_envelope_shape(self, capsys, report_schema):
        code, out = run_cli(
            capsys, "check", "--theorem", "thm2", "--alpha", "0.25", "--beta", "0.5i",
            "--input", str(CORPUS / "halfdisk.json"),
        )
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        assert doc["tool"] == "diskcheck"
        assert doc["version"] == diskcheck.__version__
        assert doc["schema_version"] == 1
        assert doc["command"] == "check"
        assert doc["parameters"]["beta"] == [0.0, 0.5]
        assert doc["result"]["theorem"] == "thm2"
        assert doc["result"]["verdict"]["state"] in ("holds", "fails", "inconclusive")

    @pytest.mark.parametrize("name", sorted(VALID_FILES))
    def test_membership_reports_validate(self, capsys, report_schema, name):
        code, out = run_cli(
            capsys, "membership", "--class", "c", "--alpha", "0.0",
            "--input", str(CORPUS / name), "--grid-m", "256",
        )
        assert code in (0, 1, 2)
        jsonschema.validate(json.loads(out), report_schema)

    def test_falsify_report(self, capsys, report_schema):
        code, out = run_cli(
            capsys, "falsify", "--theorem", "thm2", "--n", "1", "--alpha", "0.25",
            "--trials", "5", "--seed", "9", "--grid-m", "128",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        assert doc["result"]["fails"] == 0
        assert doc["result"]["holds"] + doc["result"]["inconclusive"] == 5

    def test_radius_report(self, capsys, report_schema):
        code, out = run_cli(
            capsys, "radius", "--theorem", "thm1",
            "--input", str(CORPUS / "big_quadratic.json"),
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        assert doc["result"]["status"] == "bracketed"
        assert abs(doc["result"]["r_star"] - 0.5) < 1e-4

    def test_grid_only_upper_serializes_as_null(self, capsys):
        _, out = run_cli(
            capsys, "check", "--theorem", "thm1", "--alpha", "0.5",
            "--input", str(CORPUS / "ex1_n1_a50.json"),
        )
        doc = json.loads(out)
        assert doc["result"]["hypothesis"]["upper"] is not None
        assert doc["result"]["conclusion"]["upper"] is None
        assert doc["result"]["conclusion"]["kind"] == "grid_only"


class TestExampleCommand:
    @pytest.mark.parametrize("wid,alpha", [("ex1", 0.5), ("ex2", 0.25), ("ex3", 0.5)])
    def test_emits_loadable_function_spec(self, capsys, tmp_path, report_schema, wid, alpha):
        code, out = run_cli(capsys, "example", "--id", wid, "--n", "2", "--alpha", str(alpha))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema)
        path = tmp_path / "w.json"
        path.write_text(out)
        f = load_function(path)
        assert f.n == 2

    def test_round_trip_is_bit_exact(self, capsys, tmp_path):
        # alpha chosen so the coefficient has no short decimal form
        _, out = run_cli(capsys, "example", "--id", "ex1", "--n", "1", "--alpha", "0.1")
        path = tmp_path / "w.json"
        path.write_text(out)
        f = load_function(path)
        assert f.tail[0] == complex(0.9 / 1.9, 0.0)  # exact float equality
        assert json.dumps(function_to_dict(f), indent=2) + "\n" == out

    def test_example_feeds_check(self, capsys, tmp_path):
        _, out = run_cli(capsys, "example", "--id", "ex2", "--n", "1", "--alpha", "0.25")
        path = tmp_path / "w.json"
        path.write_text(out)
        code, out2 = run_cli(
            capsys, "check", "--theorem", "thm2", "--alpha", "0.25", "--input", str(path)
        )
        assert code == 0
        assert json.loads(out2)["result"]["verdict"]["state"] == "holds"


class TestProcessInvocation:
    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "diskcheck", "check", "--theorem", "thm1",
             "--alpha", "0.5", "--input", str(CORPUS / "ex1_n1_a50.json")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"]["verdict"]["state"] == "holds"

    def test_console_script(self, tmp_path):
        # The [project.scripts] entry is run through the wrapper that pip
        # would generate for it, so the test needs no installed package;
        # an installed `diskcheck` on PATH is checked as well.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["diskcheck"]
        module, attr = entry.split(":")
        wrapper = tmp_path / "diskcheck"
        wrapper.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        wrapper.chmod(0o755)
        scripts = [str(wrapper)]
        installed = shutil.which("diskcheck")
        if installed:
            scripts.append(installed)
        for exe in scripts:
            out = subprocess.run([exe, "--help"], capture_output=True, text=True)
            assert out.returncode == 0, f"{exe}: {out.stderr}"
            # whole words: the program name "diskcheck" contains "check"
            assert {"check", "falsify"} <= set(out.stdout.split()), exe

    def test_bad_flag_exits_three_in_subprocess(self):
        out = subprocess.run(
            [sys.executable, "-m", "diskcheck", "check", "--bogus"],
            capture_output=True, text=True,
        )
        assert out.returncode == 3
