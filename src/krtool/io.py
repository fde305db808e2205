"""Line-based text formats for A(1)-modules and e modules.

The grammar is deliberately small: a ``kind`` header, a ``window`` line,
``gen`` lines declaring named classes with their degree, and action lines
``op name = name [+ name]...`` (omitted lines mean zero; the targets add
over GF(2), through ``a1.from_table`` or ``graded.pair_map``), so no
generator is named ``0`` or holds ``+`` or ``=``.  Printing is
canonical: generators sorted by degree then name, action lines sorted the
same way with sorted right-hand sides, so parse-print round-trips are
byte exact.  The readers list each degree's generators in name order,
whatever the order of the ``gen`` lines, so the first witness of a broken
relation does not depend on how a file is laid out.

An ``e`` file may declare its optional structure on one ``ops`` line:
``a`` and ``s`` when those actions are present (even if zero), and
``cartan`` when ``s`` obeys the relations twisted by ``a``.  The printer
always writes it.  Without the line, an action is present when some line
gives it and ``s`` commutes with both differentials.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping, Optional, Sequence

from .a1 import A1Module, from_table, validate as validate_a1
from .emod import EModule, validate as validate_e
from .gf2 import F2Matrix
from .graded import GradedMap, GradedSpace, Window, add_deg, pair_map
from .record import Record

A1_ACTIONS = {"sq1": 1, "sq2": 2}
E_ACTIONS = {"q0": (1, 0), "q1": (2, 1), "a": (0, 1), "s": (-1, 1)}
E_OPTIONAL = {"a", "s", "cartan"}     # words of an e file's ``ops`` line


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ModuleFile(Record):
    # actions: (op, name) -> targets; ops: the ``ops`` line of an e file
    __slots__ = ("kind", "window", "gens", "actions", "gen_lines", "ops")

    def __init__(self, kind: str, window: Window,
                 gens: dict[str, tuple[int, int]],
                 actions: dict[tuple[str, str], tuple[str, ...]],
                 gen_lines: dict[str, int],
                 ops: Optional[frozenset[str]]) -> None:
        self.kind, self.window, self.gens = kind, window, gens
        self.actions, self.gen_lines, self.ops = actions, gen_lines, ops


def parse_module_file(text: str) -> ModuleFile:
    kind = ""
    window: Optional[Window] = None
    gens: dict[str, tuple[int, int]] = {}
    gen_lines: dict[str, int] = {}
    actions: dict[tuple[str, str], tuple[str, ...]] = {}
    action_lines: dict[tuple[str, str], int] = {}
    bad: list[tuple[int, str]] = []     # (line, fault), the first raised
    declared: Optional[frozenset[str]] = None
    declared_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "kind":
            if len(parts) != 2 or parts[1] not in ("a1", "e"):
                raise ParseError(line_no, f"unknown kind "
                                          f"{' '.join(parts[1:])!r}: a module "
                                          f"file is of kind a1 or e")
            kind = parts[1]
        elif head == "window":
            if len(parts) != 5:
                raise ParseError(line_no, "window needs four integers")
            try:
                window = Window(*[int(x) for x in parts[1:]])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
        elif head == "gen":
            if len(parts) not in (3, 4):
                raise ParseError(line_no, "gen needs a name and 1 or 2 degrees")
            name = parts[1]
            if name in gens:
                raise ParseError(line_no, f"duplicate generator {name}")
            if name == "0" or "+" in name or "=" in name:
                raise ParseError(line_no, f"generator name {name!r} is 0 or "
                                          f"holds + or =, which action lines "
                                          f"cannot read")
            try:
                deg = [int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError(line_no, f"gen needs integers, got "
                                          f"{' '.join(parts[2:])!r}") from None
            gens[name] = (deg[0], deg[1] if len(deg) == 2 else 0)
            gen_lines[name] = line_no
        elif head in A1_ACTIONS or head in E_ACTIONS:
            body = " ".join(parts[1:])
            if "=" not in body:
                raise ParseError(line_no, "action line needs '='")
            lhs, rhs = (x.strip() for x in body.split("=", 1))
            targets = tuple(x.strip() for x in rhs.split("+")) \
                if rhs != "0" else ()
            if lhs not in gens:
                raise ParseError(line_no, f"unknown source {lhs}")
            for tname in targets:
                if tname not in gens:
                    raise ParseError(line_no, f"unknown target {tname}")
            shift = ((A1_ACTIONS[head], 0) if head in A1_ACTIONS
                     else E_ACTIONS[head])
            src = gens[lhs]
            for tname in targets:
                td = gens[tname]
                if (src[0] + shift[0], src[1] + shift[1]) != td:
                    raise ParseError(
                        line_no, f"degree mismatch: {head} moves {src} to "
                                 f"{(src[0] + shift[0], src[1] + shift[1])}, "
                                 f"target {tname} sits at {td}")
            first = action_lines.setdefault((head, lhs), line_no)
            if first != line_no:
                bad.append((line_no, f"second {head} line for {lhs}, first "
                                     f"at line {first}"))
            actions[(head, lhs)] = targets
        elif head == "ops":
            words = parts[1:]
            if declared is not None:
                raise ParseError(line_no, f"second ops line, first at line "
                                          f"{declared_line}")
            if not set(words) <= E_OPTIONAL or len(set(words)) != len(words):
                raise ParseError(line_no, "ops takes a, s and cartan, each at "
                                          "most once")
            declared, declared_line = frozenset(words), line_no
        else:
            raise ParseError(line_no, f"unknown directive {head}")
    if not kind:
        raise ParseError(0, "missing kind header")
    if window is None:
        raise ParseError(0, "missing window header")
    ops = A1_ACTIONS if kind == "a1" else E_ACTIONS
    held = window if kind == "e" else Window(window.m_lo, window.m_hi, 0, 0)
    bad += [(gen_lines[n], f"generator {n} at {d} lies outside {held}")
            for n, d in gens.items() if not held.contains(d)]
    bad += [(line, f"{op} is not an operation of {kind} modules")
            for (op, _), line in action_lines.items() if op not in ops]
    if kind == "a1" and declared is not None:
        bad.append((declared_line, "ops lines belong to e files"))
    if kind == "e" and declared is not None:
        bad += [(line, f"{op} is not declared on the ops line")
                for (op, _), line in action_lines.items()
                if op in E_OPTIONAL and op not in declared]
    if bad:
        raise ParseError(*min(bad))
    return ModuleFile(kind, window, gens, actions, gen_lines, declared)


def _reject_broken_relations(mf: ModuleFile, violations: list) -> None:
    """Raise on the first violated relation, at the line declaring the
    element it fails on."""
    if violations:
        v = violations[0]
        raise ParseError(mf.gen_lines.get(v.element, 0),
                         f"module breaks a relation: {v}")


def module_file_to_a1(mf: ModuleFile) -> A1Module:
    if mf.kind != "a1":
        raise ValueError("not an a1 module file")
    basis: dict[int, list[str]] = {}
    for name, (m, _) in sorted(mf.gens.items()):
        basis.setdefault(m, []).append(name)
    images = {op: {(mf.gens[n][0], n): targets
                   for (o, n), targets in mf.actions.items() if o == op}
              for op in A1_ACTIONS}
    w = mf.window
    m = from_table(basis, images["sq1"], images["sq2"],
                   w.m_lo, w.m_hi, w.m_lo, w.m_hi)
    _reject_broken_relations(mf, validate_a1(m))
    return m


def a1_to_module_file_text(m: A1Module) -> str:
    if m.lo > m.hi:
        raise ValueError(f"module has the empty window {m.lo}..{m.hi}, "
                         f"which no module file can state")
    return _module_text(["kind a1", f"window {m.lo} {m.hi} 0 0"], m.basis,
                        [("sq1", 1, m.sq1), ("sq2", 2, m.sq2)], operator.add,
                        str)


def module_file_to_e(mf: ModuleFile) -> EModule:
    if mf.kind != "e":
        raise ValueError("not an e module file")
    w = mf.window
    basis: dict[tuple[int, int], list[str]] = {}
    for name, d in sorted(mf.gens.items()):
        basis.setdefault(d, []).append(name)
    space = GradedSpace(w, basis)

    def build(op: str) -> GradedMap:
        return pair_map(space, E_ACTIONS[op],
                        ((mf.gens[n], n, targets)
                         for (o, n), targets in mf.actions.items() if o == op))

    ops = mf.ops if mf.ops is not None else {op for op, _ in mf.actions}
    m = EModule(space, build("q0"), build("q1"), w,
                act_a=build("a") if "a" in ops else None,
                act_s=build("s") if "s" in ops else None,
                s_compat_cartan="cartan" in ops)
    _reject_broken_relations(mf, validate_e(m))
    return m


def e_to_module_file_text(m: EModule) -> str:
    maps = [(op, mp) for op, mp in (("q0", m.q0), ("q1", m.q1),
                                    ("a", m.act_a), ("s", m.act_s))
            if mp is not None]
    declared = [op for op, _ in maps[2:]] + ["cartan"] * m.s_compat_cartan
    w = m.space.window
    return _module_text(
        ["kind e", f"window {w.m_lo} {w.m_hi} {w.k_lo} {w.k_hi}",
         " ".join(["ops"] + declared)], m.space.basis,
        [(op, mp.shift, mp.blocks) for op, mp in maps], add_deg,
        lambda d: f"{d[0]} {d[1]}")


def _module_text(head: list[str], basis: Mapping[Any, Sequence[str]],
                 ops: list[tuple[str, Any, Mapping[Any, F2Matrix]]],
                 add: Callable[[Any, Any], Any],
                 degree: Callable[[Any], str]) -> str:
    """A module file: the ``head`` lines, a ``gen`` line per basis name
    with its degree written by ``degree``, and an action line per nonzero
    row of each operation's blocks, ``ops`` giving its name, its shift
    (added to a degree by ``add``) and its blocks; both kinds of line are
    sorted."""
    entries = sorted((d, n) for d, names in basis.items() for n in names)
    actions = []
    for op, shift, blocks in ops:
        for d, blk in blocks.items():
            into = basis.get(add(d, shift), ())
            for name, row in zip(basis.get(d, ()), blk.rows):
                hit = sorted(n for j, n in enumerate(into) if (row >> j) & 1)
                if hit:
                    actions.append(f"{op} {name} = {' + '.join(hit)}")
    lines = head + [f"gen {n} {degree(d)}" for d, n in entries] + sorted(actions)
    return "\n".join(lines) + "\n"
