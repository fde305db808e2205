"""Every public top-level function and class of ``krtool`` is reached from
the command line (``cli.main``) or the acceptance suites
(``verify.SUITES``), and so is every public method of a reached class;
what neither reaches is dead library.

The walk follows name references through the source with ``ast``.  A name
used anywhere in reached code reaches the top-level definition it resolves
to: in the same module, through ``from .x import y [as z]``, or as
``alias.y`` after ``from . import x as alias``.  Reaching a class reaches
its class body and its private and special methods.  A public method is
reached when its name is read as an attribute anywhere in reached code, on
any object: the walk infers no types, so a method whose name some other
attribute shares passes, but a method that is called is never reported.
"""

import ast
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src" / "krtool"
ROOTS = (("cli", "main"), ("verify", "SUITES"))
# methods that only the benchmark harness in ``perfbench`` calls
BENCHMARK_ONLY = ("coeff.CoeffMonomial.parse",
                  "kr.KRReport.layer_periodicity_ok", "kr.KRReport.doubling_ok")

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


def _is_public_method(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_"))


def unreached(src: Path = SRC) -> list[str]:
    """``module.name`` of each public top-level function or class, and
    ``module.Class.method`` of each public method of a reached class, that
    no chain of references from the roots reaches, sorted."""
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

    # each unit of code is (module, qualified name, its statement)
    Unit = tuple[str, str, ast.stmt]

    def unit(key: Key) -> Unit:
        return (key[0], f"{key[0]}.{key[1]}", defs[key])

    def method(qual: str) -> Unit:
        mod, cls, name = qual.split(".")
        body = defs[(mod, cls)].body
        return (mod, qual,
                next(s for s in body if getattr(s, "name", "") == name))

    seen: set[str] = set()
    attrs: set[str] = set()                   # attribute names read so far
    waiting: dict[str, list[Unit]] = {}       # method name -> public methods
    todo = [unit(key) for key in ROOTS] + [method(q) for q in BENCHMARK_ONLY]
    while todo:
        mod, qual, stmt = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        walked: list[ast.AST] = [stmt]
        if isinstance(stmt, ast.ClassDef):
            walked = stmt.decorator_list + stmt.bases + stmt.keywords
            for sub in stmt.body:
                if not _is_public_method(sub):
                    walked.append(sub)
                elif sub.name in attrs:
                    todo.append((mod, f"{qual}.{sub.name}", sub))
                else:
                    waiting.setdefault(sub.name, []).append(
                        (mod, f"{qual}.{sub.name}", sub))
        for node in (n for top in walked for n in ast.walk(top)):
            key = None
            if isinstance(node, ast.Name):
                key = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    attrs.add(node.attr)
                    todo.extend(waiting.pop(node.attr, ()))
                if isinstance(node.value, ast.Name):
                    target = imports[mod].get(node.value.id)
                    if target is not None and target[1] is None:
                        key = resolve(target[0], node.attr)
            if key is not None:
                todo.append(unit(key))
    dead = [f"{mod}.{name}" for (mod, name), stmt in defs.items()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not name.startswith("_") and f"{mod}.{name}" not in seen]
    dead += [qual for units in waiting.values() for _, qual, _ in units
             if qual not in seen]
    return sorted(dead)


def test_every_public_definition_is_reached():
    dead = unreached()
    assert not dead, ("reached from neither cli.main nor verify.SUITES: "
                      + ", ".join(dead))


def _copy(tmp_path) -> Path:
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    return tmp_path


def test_the_walk_finds_an_unreached_function(tmp_path):
    src = _copy(tmp_path)
    with open(src / "gf2.py", "a") as fh:
        fh.write("\n\ndef orphan():\n    return rank\n")
    assert unreached(src) == ["gf2.orphan"]


def test_the_walk_finds_an_unreached_method_of_a_reached_class(tmp_path):
    src = _copy(tmp_path)
    anchor = "    def add(self, v: int) -> bool:\n"
    text = (src / "gf2.py").read_text()
    assert text.count(anchor) == 1
    # only the unreached method reads ``never_read``, which must not count
    (src / "gf2.py").write_text(text.replace(anchor, (
        "    def orphan_method(self):\n"
        "        return self.never_read\n\n"
        "    def never_read(self):\n"
        "        return 0\n\n") + anchor))
    assert unreached(src) == ["gf2.Echelon.never_read",
                              "gf2.Echelon.orphan_method"]
