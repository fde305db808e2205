"""Every public top-level function and class of ``krtool`` is reached from
the command line (``cli.main``) or the acceptance suites
(``verify.SUITES``); what neither reaches is dead library.

The walk follows name references through the source with ``ast``.  A name
used anywhere in a reached top-level statement reaches the top-level
definition it resolves to: in the same module, through
``from .x import y [as z]``, or as ``alias.y`` after
``from . import x as alias``.  A class is reached with all its methods.
"""

import ast
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src" / "krtool"
ROOTS = (("cli", "main"), ("verify", "SUITES"))

Key = tuple[str, str]        # (module, top-level name)


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def unreached(src: Path = SRC) -> list[str]:
    """``module.name`` of each public top-level function or class that no
    chain of references from the roots reaches, sorted."""
    defs: dict[Key, ast.stmt] = {}
    # per module: local name -> (module, name), or (module, None) for a module
    imports: dict[str, dict[str, tuple[str, Optional[str]]]] = {}
    for path in sorted(src.glob("*.py")):
        mod = path.stem
        local = imports.setdefault(mod, {})
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local[alias.asname or alias.name] = (
                        (alias.name, None) if stmt.module is None
                        else (stmt.module, alias.name))
            for name in _bound_names(stmt):
                defs[(mod, name)] = stmt

    def resolve(mod: str, name: str) -> Optional[Key]:
        if (mod, name) in defs:
            return (mod, name)
        target = imports[mod].get(name)
        if target is None or target[1] is None:
            return None
        return resolve(target[0], target[1])

    def references(key: Key) -> set[Key]:
        mod = key[0]
        out: set[Optional[Key]] = set()
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                out.add(resolve(mod, node.id))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name):
                target = imports[mod].get(node.value.id)
                if target is not None and target[1] is None:
                    out.add(resolve(target[0], node.attr))
        return out - {None}

    seen: set[Key] = set()
    todo = list(ROOTS)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(references(key))
    return sorted(f"{mod}.{name}" for (mod, name), stmt in defs.items()
                  if (mod, name) not in seen and not name.startswith("_")
                  and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef)))


def test_every_public_definition_is_reached():
    dead = unreached()
    assert not dead, ("reached from neither cli.main nor verify.SUITES: "
                      + ", ".join(dead))


def test_the_walk_finds_an_unreached_function(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "gf2.py", "a") as fh:
        fh.write("\n\ndef orphan():\n    return rank\n")
    assert unreached(tmp_path) == ["gf2.orphan"]
