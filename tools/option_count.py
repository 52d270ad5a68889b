"""Count the settable option values of src/diskcheck: every function (or
lambda) parameter with a default, plus every dataclass field with a default.
Prints one line per module and the total; run as `python3 tools/option_count.py`.
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


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = option_count(ast.parse(path.read_text()))
        total += n
        print(f"{path.name} {n}")
    print(f"total {total}")
