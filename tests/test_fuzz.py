"""Fuzzed inputs for the command-line contract: exit codes 0-3 only, and
stdout either empty or a strict JSON document valid against the report schema.

Not fuzzed: --grid-m and --trials stay at their defaults, because their
caps are still open (ROADMAP item 7) and a generated value could allocate
without bound. For the same reason the class index n and the tail length
stay small: the degree of a function has no cap yet either.
"""

import contextlib
import io
import json
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcheck import InputError, SeriesA, function_from_dict
from diskcheck.cli import main, parse_beta

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

floats = st.floats(allow_nan=True, allow_infinity=True)
junk = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), floats, st.text(max_size=4))
small_n = st.one_of(st.integers(-2, 4), junk.filter(lambda v: not isinstance(v, int) or isinstance(v, bool)))
numeric_pairs = st.one_of(
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(list),
    st.tuples(st.floats(1e300, 1.7e308), st.just(0.0)).map(list),  # derived values overflow
)
pairs = st.one_of(numeric_pairs, st.tuples(floats, floats).map(list), st.lists(junk, max_size=3), junk)
specs = st.one_of(
    st.fixed_dictionaries({"n": st.integers(1, 3), "coeffs": st.lists(numeric_pairs, max_size=5)}),
    st.fixed_dictionaries(
        {},
        optional={"n": small_n, "coeffs": st.one_of(st.lists(pairs, max_size=5), junk), "extra": junk},
    ),
)
numbers = st.one_of(st.floats(-0.5, 1.5).map(repr), floats.map(repr), st.text(max_size=6))
betas = st.one_of(
    st.builds(lambda re, im: f"{re!r}{'+' if math.copysign(1.0, im) > 0 else '-'}{abs(im)!r}i", floats, floats),
    st.floats(-3.0, 3.0).map(repr),
    st.text(max_size=6),
)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the output")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def assert_contract(code, out, schema):
    assert code in (0, 1, 2, 3)
    if out:
        jsonschema.validate(json.loads(out, parse_constant=_reject_constant), schema)


@FUZZ
@given(obj=st.one_of(specs, junk))
def test_function_from_dict_returns_a_series_or_input_error(obj):
    try:
        f = function_from_dict(obj)
    except InputError:
        return
    assert isinstance(f, SeriesA)


@FUZZ
@given(text=st.one_of(betas, st.text()))
def test_parse_beta_returns_a_finite_complex_or_input_error(text):
    try:
        beta = parse_beta(text)
    except InputError:
        return
    assert isinstance(beta, complex) and math.isfinite(beta.real) and math.isfinite(beta.imag)


@FUZZ
@given(
    obj=specs,
    command=st.sampled_from(["check", "radius"]),
    theorem=st.sampled_from(["lem11", "lem12", "thm1", "cor1", "thm2", "lem3", "thm3", "thm9"]),
    alpha=numbers,
    beta=betas,
    rho=st.one_of(st.none(), numbers),
    rmax=st.one_of(st.none(), numbers),
)
def test_check_and_radius_keep_the_exit_contract(spec_file, report_schema, obj, command, theorem, alpha, beta,
                                                 rho, rmax):
    spec_file.write_text(json.dumps(obj))
    argv = [command, f"--input={spec_file}", f"--theorem={theorem}", f"--alpha={alpha}", f"--beta={beta}"]
    argv += [] if rho is None else [f"--rho={rho}"]
    argv += [] if rmax is None or command == "radius" else [f"--rmax={rmax}"]
    assert_contract(*run(argv), report_schema)


@FUZZ
@given(obj=specs, cls=st.sampled_from(["star", "c", "k", "q"]), alpha=numbers, rmax=st.one_of(st.none(), numbers))
def test_membership_keeps_the_exit_contract(spec_file, report_schema, obj, cls, alpha, rmax):
    spec_file.write_text(json.dumps(obj))
    argv = ["membership", f"--input={spec_file}", f"--class={cls}", f"--alpha={alpha}"]
    argv += [] if rmax is None else [f"--rmax={rmax}"]
    assert_contract(*run(argv), report_schema)


@FUZZ
@given(wid=st.sampled_from(["ex1", "ex2", "ex3", "ex4"]), n=st.one_of(st.integers(-2, 6).map(str), numbers),
       alpha=numbers)
def test_example_keeps_the_exit_contract(report_schema, wid, n, alpha):
    assert_contract(*run(["example", f"--id={wid}", f"--n={n}", f"--alpha={alpha}"]), report_schema)
