"""fishsched runs on the standard library alone: pyproject.toml declares
``dependencies = []``, and every absolute import in the package must keep
that true.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fishsched"


def test_every_import_is_the_standard_library_or_fishsched():
    allowed = sys.stdlib_module_names | {"fishsched"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in allowed]
    assert outside == []
