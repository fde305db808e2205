"""Command line front end: verification driver, computations, charts.

    krtool verify [SUITE ...] [--json]    run acceptance suites (default all)
    krtool compute TASK [options]         run one computation, emit a table

Common options: ``--window M_LO M_HI K_LO K_HI``, ``--out PATH``,
``--format tsv|txt|svg``, ``--builtin NAME``, ``--in FILE``, ``--bv N``,
``--layers J``, ``--seed S``, ``--which q0|q1``, ``--n N``.
Builtin module names: A1, F, P, P0..P3, BV<n>, RP<n>, HP.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter
from typing import Optional, Union

from . import closedform as cfm
from .a1 import (
    A1Module,
    margolis,
    reduce,
    socle_dims,
    std_a1,
    std_bv,
    std_f,
    std_p,
    std_pn,
)
from .emod import EModule, h01, rel_ext
from .graded import Window
from .io import (
    ParseError,
    a1_to_module_file_text,
    e_to_module_file_text,
    module_file_to_a1,
    module_file_to_e,
    parse_module_file,
)
from .kr import assemble_kr
from .rfun import apply_r, required_top
from .towers import build_x_tower, detect, random_x_tower_spec, validate_tower
from .verify import SUITES, run_all


class UsageError(Exception):
    """Bad command-line input: reported on one line, exit status 2."""


def _window(args) -> Window:
    try:
        return Window(*args.window)
    except ValueError:
        raise UsageError("empty window --window "
                         + " ".join(map(str, args.window))) from None


def _at_least(args, flag: str, lo: int) -> int:
    """The value of the option ``flag``, which the task needs; below ``lo``
    it is rejected."""
    value = getattr(args, flag.lstrip("-"))
    if value is None:
        raise UsageError(f"compute {args.task} needs {flag} N")
    if value < lo:
        raise UsageError(f"{flag} {value} must be at least {lo}")
    return value


def _builtin_a1(name: str, w: Window) -> Optional[A1Module]:
    top = required_top(w)
    if name == "A1":
        return std_a1()
    if name == "F":
        return std_f()
    if name == "P":
        return std_p(w.m_lo, top)
    if name.startswith("P") and name[1:].isdigit():
        return std_pn(int(name[1:]), w.m_lo - 1, top)
    if name.startswith("BV") and name[2:].isdigit() and int(name[2:]) >= 1:
        return std_bv(int(name[2:]), 1, top)
    return None


def _load(args, w: Window) -> Union[A1Module, EModule]:
    """The module ``--builtin`` or ``--in`` names: an e module for ``RP<n>``
    (the extension of ``P<n>``) and for a file of kind e, an A(1)-module
    otherwise."""
    name = args.builtin
    if name:
        rp = name.startswith("RP") and name[2:].isdigit()
        try:
            m = _builtin_a1(name[1:] if rp else name, w)
        except ValueError as exc:   # no generator lies in the window
            raise UsageError(f"builtin {name}: {exc}") from None
        if m is None:
            raise UsageError(f"unknown builtin module {name!r}")
        return apply_r(m, w).emod if rp else m
    if args.infile:
        with open(args.infile) as fh:
            mf = parse_module_file(fh.read())
        return module_file_to_e(mf) if mf.kind == "e" else module_file_to_a1(mf)
    raise UsageError("need --builtin or --in")


def _load_a1(args, w: Window) -> A1Module:
    m = _load(args, w)
    if not isinstance(m, A1Module):
        raise UsageError(f"compute {args.task} needs an a1 module, and "
                         f"{args.builtin or args.infile} is an e module")
    return m


def _load_e(args, w: Window) -> EModule:
    m = _load(args, w)
    if isinstance(m, EModule):
        return m
    try:
        return apply_r(m, w).emod
    except ValueError as exc:   # the module is not exact where w reaches
        raise UsageError(f"{args.builtin or args.infile}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_txt(dims: dict, w: Window) -> str:
    lines = []
    header = "k\\m " + " ".join(f"{m:3d}" for m in range(w.m_lo, w.m_hi + 1))
    lines.append(header)
    for k in range(w.k_hi, w.k_lo - 1, -1):
        cells = []
        for m in range(w.m_lo, w.m_hi + 1):
            v = dims.get((m, k), 0)
            cells.append("  ." if v == 0 else f"{min(v, 99):3d}")
        lines.append(f"{k:3d} " + " ".join(cells))
    return "\n".join(lines) + "\n"


def _grid_tsv(dims: dict, w: Window) -> str:
    lines = ["m\tk\tdim\ttag"]
    for (m, k) in sorted(d for d in dims if w.contains(d)):
        lines.append(f"{m}\t{k}\t{dims[(m, k)]}\tdim")
    return "\n".join(lines) + "\n"


def _grid_svg(dims: dict, w: Window) -> str:
    cell = 18
    width = (w.m_hi - w.m_lo + 1) * cell + 40
    height = (w.k_hi - w.k_lo + 1) * cell + 40
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">']
    for (m, k), v in sorted(dims.items()):
        if not w.contains((m, k)) or v == 0:
            continue
        x = 20 + (m - w.m_lo) * cell
        y = 20 + (w.k_hi - k) * cell
        parts.append(f'<rect x="{x}" y="{y}" width="{cell - 2}" '
                     f'height="{cell - 2}" fill="#ccd" />')
        parts.append(f'<text x="{x + 4}" y="{y + cell - 6}" '
                     f'font-size="10">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit_dims(dims: dict, w: Window, args) -> None:
    grid = {"txt": _grid_txt, "svg": _grid_svg, "tsv": _grid_tsv}[args.format]
    _emit(grid(dims, w), args.out)


def cmd_verify(args) -> int:
    names = args.suites or list(SUITES)
    if names == ["all"]:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suite name(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(SUITES)}", file=sys.stderr)
        return 2
    results = run_all(names)
    rows = ["suite\tstatus\tseconds\tdetail"]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        if not args.json:
            print(f"{status} {r.name} ({r.seconds:.2f}s): {r.detail}")
        rows.append(f"{r.name}\t{status}\t{r.seconds:.2f}\t{r.detail}")
    if args.json:
        json.dump([{"name": r.name, "ok": r.ok, "detail": r.detail,
                    "seconds": r.seconds} for r in results], sys.stdout, indent=1)
        print()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return int(not all(r.ok for r in results))


def cmd_compute(args) -> int:
    w = _window(args)
    task = args.task
    if task == "margolis":
        m = _load_a1(args, w)
        dims = margolis(m, args.which)
        _emit_dims({(d, 0): v for d, v in dims.items()}, w, args)
    elif task == "socle":
        m = _load_a1(args, w)
        _emit_dims({(d, 0): v for d, v in socle_dims(m).items()}, w, args)
    elif task == "reduce":
        m = _load_a1(args, w)
        try:
            red = reduce(m)
        except ValueError as exc:   # not a module, or too narrow to certify
            raise UsageError(f"{args.builtin or args.infile}: {exc}") from None
        lines = ["degree\tfree_generators"]
        for g, count in sorted(Counter(red.free_gens).items()):
            lines.append(f"{g}\t{count}")
        lines.append(f"# reduced dims: {red.module.dims()}")
        lines.append("# certified in every degree" if red.certified_hi == math.inf
                     else f"# certified through degree {red.certified_hi}")
        _emit("\n".join(lines) + "\n", args.out)
    elif task == "h01":
        em = _load_e(args, w)
        _emit_dims(h01(em).dims(), w, args)
    elif task == "relext":
        n = _at_least(args, "--n", 0)
        _emit_dims(rel_ext(_load_e(args, w), n), w, args)
    elif task == "tower-detect":
        rng = random.Random(args.seed)
        spec = random_x_tower_spec(rng)
        t = build_x_tower(spec, -2, 4)
        bad = validate_tower(t)
        lines = [f"# seed {args.seed}: {spec}"]
        lines.append(f"valid\t{not bad}")
        for h in (1, 2, 3):
            holds = all(detect(t, h, n).holds for n in (0, 1))
            lines.append(f"height{h}\t{'holds' if holds else 'fails'}")
        _emit("\n".join(lines) + "\n", args.out)
    elif task == "kr-table":
        n = _at_least(args, "--bv", 1)
        try:
            rep = assemble_kr(n, w, max_layer=_at_least(args, "--layers", 0))
        except ValueError as exc:   # no generator lies in the window
            window = " ".join(map(str, args.window))
            raise UsageError(f"--bv {n} --window {window}: {exc}") from None
        _emit(rep.to_tsv(), args.out)
    elif task == "chart":
        if args.builtin == "HP":
            dims = {d: cfm.hp_dim(d) for d in w.degrees() if cfm.hp_dim(d)}
        elif args.builtin and args.builtin.startswith("RP"):
            em = _load_e(args, w)
            dims = h01(em).dims()
        elif args.bv is not None:
            dims = cfm.hv_closed_dims(_at_least(args, "--bv", 1), w)
        else:
            em = _load_e(args, w)
            dims = em.space.dims()
        _emit_dims(dims, w, args)
    elif task == "print":
        m = _load(args, w)
        _emit(a1_to_module_file_text(m) if isinstance(m, A1Module)
              else e_to_module_file_text(m), args.out)
    else:
        raise SystemExit(f"unknown task {task!r}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="krtool",
        description="windowed GF(2) homological algebra and the assembled "
                    "charts of real connective K-theory of elementary "
                    "abelian 2-groups")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suites", nargs="*", metavar="SUITE",
                    help=f"suites to run (default all): {', '.join(SUITES)}")
    pv.add_argument("--out", help="write a TSV summary")
    pv.add_argument("--json", action="store_true",
                    help="print a JSON list with one object per suite: "
                         "name, ok, detail, seconds")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("compute", help="run one computation")
    pc.add_argument("task", choices=["margolis", "socle", "reduce", "h01",
                                     "relext", "tower-detect", "kr-table",
                                     "chart", "print"])
    pc.add_argument("--window", nargs=4, type=int,
                    default=[-12, 12, -6, 6],
                    metavar=("M_LO", "M_HI", "K_LO", "K_HI"))
    pc.add_argument("--builtin", help="builtin module name")
    pc.add_argument("--in", dest="infile", help="module file")
    pc.add_argument("--out", help="output path (default stdout)")
    pc.add_argument("--format", choices=["tsv", "txt", "svg"], default="tsv")
    pc.add_argument("--bv", type=int, help="group rank")
    pc.add_argument("--layers", type=int, default=3)
    pc.add_argument("--seed", type=int, default=1)
    pc.add_argument("--which", choices=["q0", "q1"], default="q0")
    pc.add_argument("--n", type=int, default=1, help="extension slot")
    pc.set_defaults(func=cmd_compute)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
