"""Which package modules a module may import, read from its source.

The independent oracle (value iteration, enumeration, the certificate)
shares no code with the homotopy, nor does Hoffman–Karp strategy
iteration, which judges gains with the oracle's payoffs; and the
homotopy map knows nothing of the game's block layout, which
``vlcp_builder`` owns.  The builder and the tracer reach neither the
oracle nor the command line layer.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arat_homotopy"


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports anywhere
    in its source, function bodies included, relative or absolute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # "from .x import y" imports x; "from . import y" imports y
            names = ([f"arat_homotopy.{node.module}"] if node.module else
                     [f"arat_homotopy.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "arat_homotopy":
                names = [f"arat_homotopy.{alias.name}"
                         for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("arat_homotopy."))
    return found


@pytest.mark.parametrize("module", ["oracle", "homotopy_core"])
def test_imports_only_errors_and_game_model(module):
    imports = package_imports(PACKAGE / f"{module}.py")
    assert "game_model" in imports  # the reader sees relative imports
    assert imports <= {"errors", "game_model"}, imports


def test_strategy_iteration_imports_only_the_oracle_and_game_model():
    imports = package_imports(PACKAGE / "strategy_iteration.py")
    assert {"game_model", "oracle"} <= imports
    assert imports <= {"errors", "game_model", "oracle"}, imports


@pytest.mark.parametrize("module, allowed", [
    ("vlcp_builder", {"errors", "game_model"}),
    ("path_tracer", {"errors", "game_model", "homotopy_core",
                     "vlcp_builder"}),
])
def test_homotopy_side_imports_only_the_layers_below(module, allowed):
    imports = package_imports(PACKAGE / f"{module}.py")
    assert "game_model" in imports
    assert imports <= allowed, imports


def test_reader_sees_every_import_form(tmp_path):
    source = ("from . import cli\n"
              "from .path_tracer import trace\n"
              "import arat_homotopy.oracle\n"
              "from arat_homotopy import vlcp_builder\n"
              "def f():\n"
              "    from .homotopy_core import eval_H\n"
              "import numpy\n")
    probe = tmp_path / "probe.py"
    probe.write_text(source, encoding="utf-8")
    assert package_imports(probe) == {
        "cli", "path_tracer", "oracle", "vlcp_builder", "homotopy_core"}
