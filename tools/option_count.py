"""Count the settable option values of src/diskcheck: every function (or
lambda) parameter with a default, plus every dataclass field with a default.
Prints one line per module and the total, then the line total of
src/diskcheck/*.py and the number of names in the package's `__all__`;
run as `python3 tools/option_count.py`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diskcheck"


def is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def option_count(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def export_count(tree):
    """Names in the module's literal `__all__` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def design_numbers():
    """Per-module option counts, the source line total and the export count."""
    options, lines = {}, 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        options[path.name] = option_count(ast.parse(text))
        lines += len(text.splitlines())
    return options, lines, export_count(ast.parse((SRC / "__init__.py").read_text()))


if __name__ == "__main__":
    options, lines, exports = design_numbers()
    for name, n in options.items():
        print(f"{name} {n}")
    print(f"total {sum(options.values())}")
    print(f"lines {lines}")
    print(f"exports {exports}")
