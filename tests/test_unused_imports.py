"""Every module-level import in the package is used: read somewhere in
its module, or re-exported through the module's ``__all__``. A deletion
that leaves an import behind fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import iotpki

PACKAGE = Path(iotpki.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each module-level import that the module
    never reads. A name counts as read where it is loaded, where a string
    annotation names it, and where ``__all__`` lists it."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        unused += [f"{module}:{line} {name}" for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


SAMPLE = """
from __future__ import annotations

import math, os.path
from itertools import chain, product
from typing import Sequence as Seq
from .errors import IotPkiError

__all__ = ["IotPkiError"]


def f(xs: "Seq[float]") -> float:
    return math.fsum(chain(xs, []))
"""


def test_scan_sees_unused_imports():
    assert unused_imports(SAMPLE) == [(4, "os"), (5, "product")]
