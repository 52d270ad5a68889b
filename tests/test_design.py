"""Design ceilings: the settable options, public names and source lines of
the package.

A change that adds a knob or an export, or grows src/diskcheck, raises the
ceiling here and says why in CHANGES.md.
"""

import importlib.util
import pathlib

import diskcheck

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "option_count.py"

MAX_OPTIONS = 23
MAX_EXPORTS = 37
MAX_LINES = 2073


def _design_numbers():
    spec = importlib.util.spec_from_file_location("option_count", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.design_numbers()


def test_option_and_export_ceilings():
    options, _, exports = _design_numbers()
    assert sum(options.values()) <= MAX_OPTIONS
    assert exports == len(diskcheck.__all__) <= MAX_EXPORTS


def test_source_line_ceiling():
    _, lines, _ = _design_numbers()
    assert lines <= MAX_LINES
