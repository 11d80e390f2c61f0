"""The public names: each module's __all__, the package's re-exports, and the
README's library example."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import siegelrep

ROOT = Path(__file__).resolve().parents[1]
MODULES = [info.name for info in pkgutil.iter_modules(siegelrep.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"siegelrep.{name}")
    assert mod.__all__
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse((ROOT / "src" / "siegelrep" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"siegelrep.{node.module}")
        stale = [alias.name for alias in node.names if alias.name not in mod.__all__]
        assert stale == [], f"siegelrep.{node.module}"
        assert all(getattr(siegelrep, alias.name) is getattr(mod, alias.name)
                   for alias in node.names)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["a"] == 128
