"""Package-level checks: public names resolve and README's code runs."""

import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import pytest

import fair_engine

README = Path(__file__).parent.parent / "README.md"

MODULES = [
    module
    for module in (
        importlib.import_module(f"fair_engine.{info.name}")
        for info in pkgutil.iter_modules(fair_engine.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_is_defined(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_names_come_from_some_module_all():
    exported = {name for module in MODULES for name in module.__all__}
    public = {
        name
        for name, value in vars(fair_engine).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public - exported == set()


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
