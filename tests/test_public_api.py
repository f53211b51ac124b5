"""The top-level API is exactly what the README, the demos and perfbench use.

Every name those callers take from ``rcpq`` (``from rcpq import X`` or
``rcpq.X``) must resolve, and ``rcpq.__all__`` must list no other name.
Submodules such as ``rcpq.cli`` and dunders such as ``rcpq.__file__`` are
not API names.
"""

import ast
import pkgutil
import re
from pathlib import Path

import rcpq

ROOT = Path(__file__).resolve().parent.parent


def _caller_sources() -> list[tuple[str, str]]:
    files = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    sources = [(str(f.relative_to(ROOT)), f.read_text()) for f in files]
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    return sources + [(f"README.md python block {i}", b) for i, b in enumerate(blocks)]


def _names_taken_from_rcpq(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "rcpq" and node.level == 0:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "rcpq":
            names.add(node.attr)
    return names


def _used_names() -> dict[str, list[str]]:
    """Each API name taken from ``rcpq``, with the callers that take it."""
    submodules = {m.name for m in pkgutil.iter_modules(rcpq.__path__)}
    used: dict[str, list[str]] = {}
    for where, source in _caller_sources():
        for name in _names_taken_from_rcpq(source):
            if name not in submodules and not name.startswith("__"):
                used.setdefault(name, []).append(where)
    return used


def test_callers_are_found():
    sources = _caller_sources()
    assert any(where.startswith("perfbench/") for where, _ in sources)
    assert any(where.startswith("demos/") for where, _ in sources)
    assert any(where.startswith("README.md") for where, _ in sources)


def test_every_used_name_resolves():
    missing = {name: where for name, where in _used_names().items() if not hasattr(rcpq, name)}
    assert not missing, f"used but not exported by rcpq: {missing}"


def test_all_is_exactly_the_used_names():
    used = set(_used_names())
    exported = set(rcpq.__all__)
    assert len(rcpq.__all__) == len(exported), "rcpq.__all__ lists a name twice"
    assert exported == used, (
        f"exported but unused: {sorted(exported - used)}; used but not in __all__: {sorted(used - exported)}"
    )
