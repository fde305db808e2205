"""Every public top-level function and class of ``krtool`` is reached from
the command line (``cli.main``) or the acceptance suites
(``verify.SUITES``), and so is every public method of a reached class;
what neither reaches is dead library.

The walk follows name references through the source with ``ast``.  A name
used anywhere in reached code reaches the top-level definition it resolves
to: in the same module, through ``from .x import y [as z]``, or as
``alias.y`` after ``from . import x as alias``.  Reaching a class reaches
its class body and its private and special methods.

A public method is reached when reached code reads its name as an
attribute.  Where the class of the receiver is known, only that class's
method is reached: ``self`` in a method is its class, a call of a class
(``X(...)``) is that class, and a parameter annotated with a class
(``X``, ``"X"``, ``Optional[X]`` or ``X | None``) is that class, in a
function that never assigns the name.  Any other receiver matches by
name: the method of that name of every class passes.
So a method that is called is never reported, and a method whose name
another class shares is reported unless some read of the name has an
unknown receiver.  The package's classes derive from none of its others
but the bases in ``record``, which have no public method, so a method is
looked up on its own class only.

Private top-level functions and classes are checked apart: each must be
named by other code in the package, so a helper whose callers went is
found.
"""

import ast
from pathlib import Path
from typing import Callable, Optional

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


def _annotated_class(ann: Optional[ast.expr]) -> Optional[str]:
    """The name of the class an annotation names, or None."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if (isinstance(ann, ast.Subscript) and isinstance(ann.value, ast.Name)
            and ann.value.id == "Optional"):
        ann = ann.slice
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        sides = [s for s in (ann.left, ann.right)
                 if not (isinstance(s, ast.Constant) and s.value is None)]
        ann = sides[0] if len(sides) == 1 else None
    return ann.id if isinstance(ann, ast.Name) else None


def _typed_reads(top: ast.AST, self_class: Optional[str],
                 classify: Callable[[Optional[str]], Optional[str]]
                 ) -> dict[int, str]:
    """``id`` of each attribute node under ``top`` whose receiver's class
    is known, and that class.  ``self_class`` is the class whose body holds
    ``top``, or None; ``classify`` turns an annotated name into a class."""
    out: dict[int, str] = {}

    def visit(node: ast.AST, scope: dict[str, str],
              owner: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            assigned = {n.id for b in body for n in ast.walk(b)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Store)}
            inner = {k: v for k, v in scope.items() if k not in assigned}
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in getattr(node, "decorator_list", ()))
            for i, arg in enumerate(params):
                cls = (owner if i == 0 and owner and not static
                       else classify(_annotated_class(arg.annotation)))
                if cls and arg.arg not in assigned:
                    inner[arg.arg] = cls
                else:
                    inner.pop(arg.arg, None)
            inside = {id(b) for b in body}
            for child in ast.iter_child_nodes(node):
                visit(child, inner if id(child) in inside else scope, None)
            return
        if isinstance(node, ast.Attribute):
            recv = node.value
            if isinstance(recv, ast.Name) and recv.id in scope:
                out[id(node)] = scope[recv.id]
            elif isinstance(recv, ast.Call) and isinstance(recv.func, ast.Name):
                cls = classify(recv.func.id)
                if cls:
                    out[id(node)] = cls
        for child in ast.iter_child_nodes(node):
            visit(child, scope, None)

    visit(top, {}, self_class)
    return out


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

    def class_named(mod: str, name: Optional[str]) -> Optional[str]:
        """``module.Class`` of the class ``name`` resolves to, or None."""
        key = name and resolve(mod, name)
        if key and isinstance(defs[key], ast.ClassDef):
            return f"{key[0]}.{key[1]}"
        return None

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
    attrs: set[str] = set()    # attribute names read on unknown receivers
    typed: set[str] = set()    # ``module.Class.name`` read on known receivers
    waiting: dict[str, list[Unit]] = {}       # method name -> public methods

    def reach_typed(qual: str) -> None:
        typed.add(qual)
        todo.extend(u for u in waiting.get(qual.rsplit(".", 1)[1], ())
                    if u[1] == qual)

    todo = [unit(key) for key in ROOTS] + [method(q) for q in BENCHMARK_ONLY]
    while todo:
        mod, qual, stmt = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        # the class whose body holds the walked code, if any
        owner = qual.rsplit(".", 1)[0] if qual.count(".") == 2 else None
        walked: list[ast.AST] = [stmt]
        if isinstance(stmt, ast.ClassDef):
            owner = qual
            walked = stmt.decorator_list + stmt.bases + stmt.keywords
            for sub in stmt.body:
                if not _is_public_method(sub):
                    walked.append(sub)
                elif sub.name in attrs or f"{qual}.{sub.name}" in typed:
                    todo.append((mod, f"{qual}.{sub.name}", sub))
                else:
                    waiting.setdefault(sub.name, []).append(
                        (mod, f"{qual}.{sub.name}", sub))
        known = {k: v for top in walked for k, v in _typed_reads(
            top, owner, lambda name: class_named(mod, name)).items()}
        for node in (n for top in walked for n in ast.walk(top)):
            key = None
            if isinstance(node, ast.Name):
                key = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load) and id(node) in known:
                    reach_typed(f"{known[id(node)]}.{node.attr}")
                elif isinstance(node.ctx, ast.Load):
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


def unreferenced_private(src: Path = SRC) -> list[str]:
    """``module.name`` of each private top-level function or class that no
    other code names, sorted.  Code names it as ``name`` in its module
    outside its own definition, by ``from .module import name``, or as
    ``alias.name`` after ``from . import module as alias``."""
    private: set[Key] = set()
    named: set[Key] = set()
    for path in sorted(src.glob("*.py")):
        mod = path.stem
        body = ast.parse(path.read_text()).body
        aliases = {a.asname or a.name: a.name for stmt in body
                   if isinstance(stmt, ast.ImportFrom) and stmt.level == 1
                   and stmt.module is None for a in stmt.names}
        for stmt in body:
            refs: set[Key] = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add((mod, node.id))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    refs.add((aliases[node.value.id], node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    refs.update((node.module, a.name) for a in node.names)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and stmt.name.startswith("_")):
                private.add((mod, stmt.name))
                refs.discard((mod, stmt.name))
            named |= refs
    return sorted(f"{mod}.{name}" for mod, name in private - named)


def test_every_private_definition_is_named_elsewhere():
    dead = unreferenced_private()
    assert not dead, "named by no other code: " + ", ".join(dead)


def test_the_private_check_finds_a_helper_whose_callers_went(tmp_path):
    src = _copy(tmp_path)
    with open(src / "gf2.py", "a") as fh:
        fh.write("\n\ndef _orphan(n):\n    return _orphan(n - 1) if n else rank\n")
    assert unreferenced_private(src) == ["gf2._orphan"]


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


def test_the_walk_reports_a_method_another_class_shares_the_name_of(tmp_path):
    src = _copy(tmp_path)
    anchor = "    def is_zero(self) -> bool:\n        return not self.blocks\n"
    text = (src / "graded.py").read_text()
    assert text.count(anchor) == 1
    # ``a1.A1Map.commute_failure`` is read, but only as
    # ``f.commute_failure()`` with ``f: A1Map`` and on ``A1Map(...)``, so a
    # name match alone would keep the planted method
    (src / "graded.py").write_text(text.replace(anchor, anchor + (
        "\n    def commute_failure(self) -> None:\n"
        "        return None\n")))
    assert unreached(src) == ["graded.GradedMap.commute_failure"]


def test_the_walk_resolves_self_to_the_enclosing_class(tmp_path):
    src = _copy(tmp_path)
    text = (src / "gf2.py").read_text()
    count = "        return len(self._rows)\n"
    anchor = "    def is_zero(self) -> bool:\n"
    assert text.count(count) == 1 and text.count(anchor) == 1
    # ``Echelon.rank`` reads ``self.stored``, which reaches Echelon's method
    # and not the one of the same name planted on ``F2Matrix``
    text = text.replace(count, "        return self.stored()\n\n"
                               "    def stored(self) -> int:\n" + count)
    text = text.replace(anchor, "    def stored(self) -> int:\n"
                                "        return self.nrows\n\n" + anchor)
    (src / "gf2.py").write_text(text)
    assert unreached(src) == ["gf2.F2Matrix.stored"]
