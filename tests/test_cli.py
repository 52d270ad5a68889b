"""Command line: exit codes, report envelopes, corpus of function files."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import jsonschema
import pytest

import diskcheck
from diskcheck import InputError, Witness, function_from_dict, function_to_dict, load_function, make_witness
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


# runs that must fail on their input before any numeric module loads: each
# malformed file through each command that reads one, a bad flag, and a bad
# --beta, also beside a valid function file, which is read after --beta
NUMPY_FREE_ERRORS = [
    [command, *flags, "--input", f"tests/corpus/{name}"]
    for name in sorted(INVALID_FILES)
    for command, flags in (("check", ["--theorem", "thm1"]), ("membership", ["--class", "star"]),
                           ("radius", ["--theorem", "thm1"]))
] + [["check", "--bogus"], ["falsify", "--theorem", "thm1", "--beta", "zz"],
      ["check", "--theorem", "thm1", "--beta", "zz", "--input", "tests/corpus/halfdisk.json"],
      ["radius", "--theorem", "thm1", "--beta", "zz", "--input", "tests/corpus/halfdisk.json"],
      ["example", "--id", "ex3", "--alpha", "0.0"], ["example", "--id", "ex1", "--n", "65536"]]


def _child(code, *argv):
    """Run python code with argv in a fresh interpreter at the repo root,
    importing the package from src/."""
    root = CORPUS.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)


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
        assert parse_beta("i") == 1j
        assert parse_beta("(1+2i)") == 1 + 2j
        assert parse_beta("( 0.5 - i )") == 0.5 - 1j

    def test_rejected_literals(self):
        for bad in ("zzz", "", "1+", "1+2i+3", "inf", "nan+1i"):
            with pytest.raises(InputError):
                parse_beta(bad)

    @pytest.mark.parametrize("literal, message", [
        ("zz", "cannot parse beta literal 'zz'"),
        ("1i+2", "cannot parse beta literal '1i+2'"),
        ("", "empty beta literal"),
        # only a final i is the imaginary unit, so these read as infinite
        ("inf", "beta must be finite, got 'inf'"),
        ("-inf", "beta must be finite, got '-inf'"),
        ("infinity", "beta must be finite, got 'infinity'"),
        ("1+infi", "beta must be finite, got '1+infi'"),
        ("nan", "beta must be finite, got 'nan'"),
        ("1e400", "beta must be finite, got '1e400'"),
    ])
    def test_rejection_messages(self, literal, message):
        with pytest.raises(InputError) as info:
            parse_beta(literal)
        assert str(info.value) == message


def test_parser_choices_are_the_enum_values():
    # cli spells these out so that parsing loads no numeric module
    cli = diskcheck.cli
    assert cli._THEOREM_CHOICES == [t.value for t in diskcheck.Theorem]
    assert cli._CLASS_CHOICES == [c.value for c in diskcheck.FunctionClass]
    assert cli._WITNESS_CHOICES == [w.value for w in diskcheck.Witness]


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

    @pytest.mark.parametrize("argv, message", [
        (["--theorem", "lem11", "--rho", "5e-324", "--beta", "1.5"], "lem11 threshold underflows to 0 at rho = 5e-324"),
        (["--theorem", "thm3", "--alpha", "5e-324"], "thm3 needs 1/(2 alpha) within the float range, got alpha = 5e-324"),
        (["--theorem", "thm3", "--alpha", "1e-309"], "thm3 needs 1/(2 alpha) within the float range, got alpha = 1e-309"),
    ])
    def test_parameters_past_the_float_range_are_named(self, capsys, argv, message):
        code = main(["check", *argv, "--input", str(CORPUS / "halfdisk.json")])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"diskcheck: error: {message}\n")

    @pytest.mark.parametrize("command", ["check", "radius"])
    def test_bad_beta_is_reported_before_a_bad_file(self, capsys, command):
        # --beta is parsed before the function file is read
        code = main([command, "--theorem", "thm1", "--beta", "zz", "--input", str(CORPUS / "missing.json")])
        assert code == 3
        assert capsys.readouterr().err == "diskcheck: error: cannot parse beta literal 'zz'\n"

    @pytest.mark.parametrize("command", [
        ["check", "--theorem", "thm1", "--alpha", "0.25"],
        ["membership", "--class", "c"],
        ["falsify", "--theorem", "thm1", "--n", "2", "--alpha", "0.25", "--beta=-1.7e308"],
        ["radius", "--theorem", "thm1", "--alpha", "0.25"],
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

    @pytest.mark.parametrize("argv, named", [
        (["check", "--theorem", "thm2", "--grid-m", "1048577"], "grid needs at most 1048576 angular samples"),
        (["membership", "--class", "star", "--grid-m", "1048577"], "grid needs at most 1048576 angular samples"),
        (["falsify", "--theorem", "thm2", "--grid-m", "1048577"], "grid needs at most 1048576 angular samples"),
        (["example", "--id", "ex1", "--n", "65536"], "series degree must be at most 65536, got 65537"),
        (["falsify", "--theorem", "thm2", "--n", "65536"], "series degree must be at most 65536, got 65542"),
        (["falsify", "--theorem", "thm2", "--tail-len", "65537"], "tail_len must be at most 65536"),
        (["falsify", "--theorem", "thm2", "--trials", "1000001"], "trials must be at most 1000000"),
    ], ids=["check_grid", "membership_grid", "falsify_grid", "example_degree", "falsify_degree",
            "falsify_tail_len", "falsify_trials"])
    def test_resource_caps_exit_three_before_allocating(self, capsys, argv, named):
        # each value is one past its cap; the parent allocated (or ran) it
        if argv[0] in ("check", "membership"):
            argv = argv + ["--input", str(CORPUS / "halfdisk.json")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert named in line and "internal error" not in line
        assert peak < 2**20  # one 2^16-point complex row takes 1 MB

    def test_caps_admit_their_bound(self, capsys):
        code, out = run_cli(capsys, "example", "--id", "ex1", "--n", "65535")
        assert code == 0
        assert json.loads(out)["n"] == 65535
        assert diskcheck.GridSpec(m=2**20).m == 2**20
        assert diskcheck.FalsifyConfig(trials=10**6, tail_len=2**16).trials == 10**6

    def test_internal_error_is_three(self, capsys, monkeypatch):
        # a crash must never exit 1, which reads as "fails"
        for exc, line in [
            (MemoryError("Unable to allocate 7.28 TiB"), "MemoryError: Unable to allocate 7.28 TiB"),
            (RuntimeError("first\n  second"), "RuntimeError: first second"),
        ]:
            def crash(*args, **kwargs):
                raise exc

            monkeypatch.setattr("diskcheck.checks.check", crash)
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

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["check", "--theorem", "thm2", "--beta", "0.5-2i", "--input", str(CORPUS / "halfdisk.json")],
             ["theorem", "alpha", "beta", "rho", "input", "rmax", "grid_m"]),
            (["membership", "--class", "star", "--input", str(CORPUS / "halfdisk.json")],
             ["class", "alpha", "input", "rmax", "grid_m"]),
            (["falsify", "--theorem", "thm2", "--beta", "0.5-2i", "--trials", "2", "--grid-m", "64"],
             ["theorem", "n", "alpha", "beta", "rho", "trials", "seed", "margin", "tail_len", "rmax",
              "grid_m"]),
            (["radius", "--theorem", "thm2", "--beta", "0.5-2i", "--input", str(CORPUS / "halfdisk.json")],
             ["theorem", "alpha", "beta", "rho", "input"]),
        ],
    )
    def test_parameters_echo_every_option_in_parser_order(self, capsys, argv, keys):
        _, out = run_cli(capsys, *argv)
        parameters = json.loads(out)["parameters"]
        assert list(parameters) == keys
        if "beta" in keys:
            assert parameters["beta"] == [0.5, -2.0]


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

    @pytest.mark.parametrize("argv", NUMPY_FREE_ERRORS, ids=" ".join)
    def test_input_errors_exit_before_numpy_loads(self, argv):
        out = _child(
            "import sys\n"
            "from diskcheck.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n",
            *argv,
        )
        assert out.returncode == 3, out.stderr
        assert out.stdout == ""
        *diagnostics, numpy_loaded = out.stderr.splitlines()
        assert ": error: " in diagnostics[-1]
        assert numpy_loaded == "False"

    @pytest.mark.parametrize("wid, n, alpha", [("ex1", 1, 0.0), ("ex2", 3, 0.7), ("ex3", 65535, 0.1)])
    def test_example_runs_without_numpy(self, wid, n, alpha):
        # the witness file comes from the one coefficient formula and the
        # one serializer that make_witness and function_to_dict use
        out = _child(
            "import sys\n"
            "from diskcheck.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n",
            "example", "--id", wid, "--n", str(n), "--alpha", str(alpha),
        )
        assert (out.returncode, out.stderr) == (0, "False\n")
        assert json.loads(out.stdout) == function_to_dict(make_witness(Witness(wid), n, alpha))

    def test_package_import_is_numpy_free_until_an_export_is_used(self):
        out = _child(
            "import sys\n"
            "import diskcheck\n"
            "assert 'numpy' not in sys.modules\n"
            "from diskcheck import *\n"
            "assert 'numpy' in sys.modules and '__getattr__' not in vars(diskcheck)\n"
            "missing = [n for n in diskcheck.__all__ if globals().get(n) is not getattr(diskcheck, n)]\n"
            "assert not missing and len(diskcheck.__all__) == 37, missing\n"
            "del diskcheck.check\n"
            "assert not hasattr(diskcheck, 'check') and getattr(diskcheck, 'coeff_bound', None) is None\n"
        )
        assert out.returncode == 0, out.stderr

    def test_bad_flag_exits_three_in_subprocess(self):
        out = subprocess.run(
            [sys.executable, "-m", "diskcheck", "check", "--bogus"],
            capture_output=True, text=True,
        )
        assert out.returncode == 3
