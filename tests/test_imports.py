"""Every name a module imports at top level is used in that module.

An import with no use keeps a dead dependency alive and hides the fact
that its last caller has gone.  The one allowed exception is listed in
UNUSED_ALLOWED with its reason, and must really be unused, so the list
cannot outlive it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "djunta"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# oracle_bf imports gather_bits only so that bench/tracing.py can wrap it
# there; dropping that tracer site drops this import too.
UNUSED_ALLOWED = {"oracle_bf.gather_bits"}


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {f"{path.stem}.{name}" for name in bound - used}


def test_modules_found():
    assert len(MODULES) >= 10
    assert {name.split(".")[0] for name in UNUSED_ALLOWED} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = _unused_imports(path)
    allowed = {name for name in UNUSED_ALLOWED if name.startswith(f"{path.stem}.")}
    assert unused == allowed
