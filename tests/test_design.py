"""Design ceilings: the settable options, public names and source lines of
the package; and the mutation gate's snippets, which must stay current.

A change that adds a knob or an export, or grows src/diskcheck, raises the
ceiling here and says why in CHANGES.md.
"""

import importlib.util
import pathlib

import diskcheck

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "option_count.py"

MAX_OPTIONS = 23
MAX_EXPORTS = 37
MAX_LINES = 2103


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _design_numbers():
    return _load(TOOL).design_numbers()


def test_option_and_export_ceilings():
    options, _, exports = _design_numbers()
    assert sum(options.values()) <= MAX_OPTIONS
    assert exports == len(diskcheck.__all__) <= MAX_EXPORTS


def test_source_line_ceiling():
    _, lines, _ = _design_numbers()
    assert lines <= MAX_LINES


def test_every_mutant_snippet_occurs_once():
    # a refactor that moves a site the mutation gate edits must update the
    # gate, or its mutant would be reported STALE only when the gate runs
    for name, path, snippet, _, _ in _load(ROOT / "tools" / "mutation_gate.py").MUTANTS:
        assert (ROOT / path).read_text().count(snippet) == 1, name
