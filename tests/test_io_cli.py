"""File formats and the command line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool.a1 import (
    direct_sum_a1,
    dual_a1,
    std_a1,
    std_f,
    std_p,
    std_pn,
    suspend,
    tensor_a1,
    validate,
)
from krtool.io import (
    ParseError,
    a1_to_module_file_text,
    e_to_module_file_text,
    module_file_to_a1,
    module_file_to_e,
    parse_module_file,
)
from krtool.graded import Window
from krtool.rfun import apply_r, required_top

from conftest import by_name, image_names


def test_a1_round_trip_byte_exact():
    m = std_pn(2, 0, 14)
    text = a1_to_module_file_text(m)
    back = module_file_to_a1(parse_module_file(text))
    assert a1_to_module_file_text(back) == text
    assert back.dims() == m.dims()
    assert validate(back) == []


def test_parse_rejects_unknown_target():
    text = "kind a1\nwindow 0 4 0 0\ngen a 0\nsq1 a = b\n"
    with pytest.raises(ParseError) as err:
        parse_module_file(text)
    assert "line 4" in str(err.value)


def test_parse_rejects_degree_mismatch():
    text = "kind a1\nwindow 0 4 0 0\ngen a 0\ngen b 3\nsq1 a = b\n"
    with pytest.raises(ParseError) as err:
        parse_module_file(text)
    assert "degree mismatch" in str(err.value)


@pytest.mark.parametrize("line", [
    "gen x1 one",
    "gen x1 0 k",
    "xdeg",
    "xdeg two",
    "levels 1",
    "levels 1 x",
    "summand cyclic 1",
    "summand free",
    "summand free z",
    "summand",
])
def test_parse_rejects_bad_integer_fields(line):
    # the directives of the former tower files (xdeg, levels, summand) are
    # unknown to every kind, and are refused at their line too
    text = f"kind a1\nwindow 0 4 0 0\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_module_file(text)
    assert err.value.line_no == 3


@pytest.mark.parametrize("text, line_no, message", [
    ("kind e\nwindow 0 2 0 2\ngen x 5 0\n", 3,
     "generator x at (5, 0) lies outside"),
    ("kind e\nwindow 0 2 0 2\ngen x 1 3\n", 3,
     "generator x at (1, 3) lies outside"),
    ("kind a1\nwindow 0 4 0 0\ngen x 0\ngen y 7\n", 4,
     "generator y at (7, 0) lies outside"),
    ("kind a1\nwindow 0 4 0 0\ngen x 1 2\n", 3,
     "generator x at (1, 2) lies outside Window(m_lo=0, m_hi=4, k_lo=0, k_hi=0)"),
    ("kind a1\nwindow 0 4 0 0\ngen x 0\ngen y 1\nq0 x = y\n", 5,
     "q0 is not an operation of a1 modules"),
    ("kind e\nwindow 0 4 0 2\ngen x 0 0\ngen y 1 0\nsq1 x = y\n", 5,
     "sq1 is not an operation of e modules"),
    ("kind a1\nwindow 0 4 0 0\ngen x 0\ngen y 1\nsq1 x = y\nsq1 x = 0\n", 6,
     "second sq1 line for x, first at line 5"),
    ("kind e\nwindow 0 4 0 2\ngen x 0 0\ngen y 1 0\nq0 x = y\nq0 x = y\n", 6,
     "second q0 line for x, first at line 5"),
    ("kind e\nwindow 0 4 0 2\nops s\ngen x 0 0\ngen y 0 1\na x = y\n", 6,
     "a is not declared on the ops line"),
    ("kind e\nwindow 0 4 0 2\nops a\nops a\n", 4,
     "second ops line, first at line 3"),
    ("kind e\nwindow 0 4 0 2\nops a q0\n", 3,
     "ops takes a, s and cartan"),
    ("kind a1\nwindow 0 4 0 0\nops\n", 3, "ops lines belong to e files"),
    # no action line can name these generators
    ("kind a1\nwindow 0 4 0 0\ngen s 0\ngen a+b 1\nsq1 s = a+b\n", 4,
     "generator name 'a+b'"),
    ("kind a1\nwindow 0 4 0 0\ngen x=y 0\ngen t 1\nsq1 x=y = t\n", 3,
     "generator name 'x=y'"),
    ("kind a1\nwindow 0 4 0 0\ngen s 0\ngen 0 1\nsq1 s = 0\n", 4,
     "generator name '0'"),
])
def test_parse_rejects_what_the_kind_cannot_hold(text, line_no, message):
    with pytest.raises(ParseError) as err:
        mf = parse_module_file(text)
        (module_file_to_a1 if mf.kind == "a1" else module_file_to_e)(mf)
    assert err.value.line_no == line_no
    assert message in str(err.value)


def test_a1_file_breaking_a_relation_is_rejected():
    text = ("kind a1\nwindow 0 4 0 0\ngen x1 0\ngen x2 1\ngen x3 2\n"
            "sq1 x1 = x2\nsq1 x2 = x3\n")
    with pytest.raises(ParseError) as err:
        module_file_to_a1(parse_module_file(text))
    assert err.value.line_no == 3
    assert "Sq1 Sq1 = 0 fails at degree 0 on x1" in str(err.value)


def test_e_file_breaking_a_relation_is_rejected():
    text = ("kind e\nwindow 0 4 0 2\ngen u 0 0\ngen v 1 0\ngen w 2 0\n"
            "q0 u = v\nq0 v = w\n")
    with pytest.raises(ParseError) as err:
        module_file_to_e(parse_module_file(text))
    assert err.value.line_no == 3
    assert "q0 q0 = 0 fails at (0, 0) on u" in str(err.value)


def test_cli_rejects_module_file_breaking_a_relation(tmp_path):
    src = tmp_path / "bad.a1"
    src.write_text("kind a1\nwindow 0 4 0 0\ngen x1 0\ngen x2 1\n"
                   "gen x3 2\nsq1 x1 = x2\nsq1 x2 = x3\n")
    out = run_cli("compute", "socle", "--in", str(src),
                  "--window", "0", "4", "0", "0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "line 3: module breaks a relation: Sq1 Sq1 = 0" in out.stderr


def test_cli_rejects_e_generator_outside_the_window(tmp_path):
    src = tmp_path / "outside.e"
    src.write_text("kind e\nwindow 0 2 0 2\ngen x 5 0\n")
    out = run_cli("compute", "h01", "--in", str(src))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "line 3: generator x at (5, 0) lies outside" in out.stderr


def test_parse_comments_and_zero_lines():
    text = ("# a tiny module\nkind a1\nwindow 0 4 0 0\n"
            "gen a 0\ngen b 1\nsq1 a = b\nsq2 a = 0\n")
    mf = parse_module_file(text)
    m = module_file_to_a1(mf)
    assert m.dims() == {0: 1, 1: 1}


def test_repeated_targets_cancel():
    """Targets add over GF(2) in both readers: ``x = y + y`` is zero and
    ``x = y + z + y`` is ``z``."""
    a = module_file_to_a1(parse_module_file(
        "kind a1\nwindow 0 2 0 0\ngen x 0\ngen y 1\ngen z 1\ngen u 2\n"
        "sq1 x = y + y\nsq2 x = u + u + u\nsq1 y = 0\n"))
    assert a.apply_sq1(0, 1) == 0
    assert a.vector_name(2, a.apply_sq2(0, 1)) == "u"
    e = module_file_to_e(parse_module_file(
        "kind e\nwindow 0 2 0 1\ngen x 0 0\ngen y 1 0\ngen z 1 0\n"
        "gen v 2 1\nq0 x = y + y\nq1 x = v + v\n"))
    assert e.q0.is_zero() and e.q1.is_zero()
    e = module_file_to_e(parse_module_file(
        "kind e\nwindow 0 2 0 1\ngen x 0 0\ngen y 1 0\ngen z 1 0\n"
        "q0 x = y + z + y\n"))
    assert image_names(e.space.names((1, 0)), e.q0.apply((0, 0), 1)) == {"z"}


def test_e_module_round_trip():
    from krtool.rfun import apply_r
    from krtool.a1 import std_f
    w = Window(-3, 3, -3, 3)
    em = apply_r(std_f(), w).emod
    text = e_to_module_file_text(em)
    back = module_file_to_e(parse_module_file(text))
    assert e_to_module_file_text(back) == text
    assert back.space.dims() == em.space.dims()


@st.composite
def a1_modules(draw):
    """Sums, tensors, suspensions and duals of the standard modules."""
    hi = draw(st.integers(4, 10))

    def leaf():
        which = draw(st.sampled_from(["f", "a1", "p", "pn"]))
        if which == "f":
            return std_f(draw(st.integers(-3, 3)))
        if which == "a1":
            return std_a1(draw(st.integers(-4, 2)))
        if which == "p":
            return std_p(1, hi)
        return std_pn(draw(st.integers(-1, 3)), -4, hi)

    m = leaf()
    for _ in range(draw(st.integers(0, 2))):
        shape = draw(st.sampled_from(["suspend", "sum", "tensor"]))
        if shape == "suspend":
            m = suspend(m, draw(st.integers(-3, 3)))
        elif shape == "sum":
            m = direct_sum_a1([m, leaf()], ["u.", "v."])
        elif m.bottom() is not None:    # tensor_a1 rejects the zero module
            m = tensor_a1(m, leaf(), hi=hi)
    # last, since a dual is no longer complete at the bottom for tensors
    return dual_a1(m) if draw(st.booleans()) else m


@st.composite
def e_modules(draw):
    """Coefficient extensions of standard modules on small windows."""
    m_lo, k_lo = draw(st.integers(-4, 0)), draw(st.integers(-2, 0))
    w = Window(m_lo, m_lo + draw(st.integers(0, 5)),
               k_lo, k_lo + draw(st.integers(0, 2)))
    which = draw(st.sampled_from(["f", "a1", "pn"]))
    if which == "f":
        base = std_f(draw(st.integers(-2, 2)))
    elif which == "a1":
        base = std_a1(draw(st.integers(-4, 2)))
    else:
        base = std_pn(draw(st.integers(0, 3)), w.m_lo - 1, required_top(w) + 8)
    return apply_r(base, w).emod


@settings(max_examples=60, deadline=None)
@given(a1_modules(), e_modules())
def test_module_files_round_trip_names_and_blocks(a, e):
    if a.lo > a.hi:             # a tensor cut off below its bottom is empty
        with pytest.raises(ValueError, match="empty window"):
            a1_to_module_file_text(a)
    else:
        back = module_file_to_a1(parse_module_file(a1_to_module_file_text(a)))
        assert by_name(back) == by_name(a)
    back = module_file_to_e(parse_module_file(e_to_module_file_text(e)))
    assert back.space.window == e.space.window
    assert by_name(back.space) == by_name(e.space)
    assert by_name(back.q0) == by_name(e.q0)
    assert by_name(back.q1) == by_name(e.q1)
    assert back.s_compat_cartan == e.s_compat_cartan
    # the ops line keeps a zero action present
    for got, want in ((back.act_a, e.act_a), (back.act_s, e.act_s)):
        assert (got is None) == (want is None)
        if got is not None:
            assert by_name(got) == by_name(want)


def test_a1_file_text_rejects_an_empty_window():
    m = tensor_a1(std_f(2), std_f(3), hi=4)
    assert (m.lo, m.hi) == (5, 4)
    with pytest.raises(ValueError, match="empty window 5..4"):
        a1_to_module_file_text(m)


def test_e_file_keeps_zero_actions_and_the_cartan_flag():
    em = apply_r(std_f(0), Window(0, 0, 0, 0)).emod
    text = e_to_module_file_text(em)
    assert text.splitlines()[2] == "ops a s cartan"
    back = module_file_to_e(parse_module_file(text))
    assert back.act_a is not None and back.act_s is not None
    assert back.s_compat_cartan
    em = apply_r(std_a1(0), Window(-2, 4, -1, 1)).emod
    back = module_file_to_e(parse_module_file(e_to_module_file_text(em)))
    assert em.s_compat_cartan and back.s_compat_cartan


def test_e_file_without_ops_line_reads_actions_from_their_lines():
    text = ("kind e\nwindow 0 2 0 2\ngen x 1 0\ngen y 0 1\ns x = y\n")
    m = module_file_to_e(parse_module_file(text))
    assert m.act_a is None and m.act_s is not None
    assert not m.s_compat_cartan


def test_e_file_s_relations_are_checked():
    # q0 x = y and s y = z, but s x = 0: s fails to commute with q0 at x
    body = ("window -1 2 0 2\ngen x 0 0\ngen y 1 0\ngen z 0 1\n"
            "q0 x = y\ns y = z\n")
    for ops in ("ops s\n", "ops a s\n", "ops s cartan\n"):
        with pytest.raises(ParseError, match="q0 s = s q0 fails"):
            module_file_to_e(parse_module_file("kind e\n" + ops + body))
    # the Cartan relation q0 s = s q0 + a holds once a x = z
    module_file_to_e(parse_module_file(
        "kind e\nops a s cartan\n" + body + "a x = z\n"))


@st.composite
def module_texts(draw):
    """Module files of every kind with small degrees, a few names and every
    operation: mostly well formed, now and then with a malformed line."""
    name = st.sampled_from(["x", "y", "z", "0"])
    degree = st.integers(-2, 5).map(str)
    lo = st.integers(-1, 2)
    span = st.integers(0, 2)
    m_lo, k_lo = draw(lo), draw(lo)
    lines = [f"kind {draw(st.sampled_from(['a1', 'e']))}",
             f"window {m_lo} {m_lo + draw(span)} {k_lo} {k_lo + draw(span)}"]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(" ".join(["gen", draw(name)]
                              + draw(st.lists(degree, min_size=1, max_size=2))))
    for _ in range(draw(st.integers(0, 4))):
        targets = " + ".join(draw(st.lists(name, max_size=2))) or "0"
        op = draw(st.sampled_from(["sq1", "sq2", "q0", "q1", "a", "s"]))
        lines.append(f"{op} {draw(name)} = {targets}")
    junk = st.sampled_from(["gen x one", "window 0 1", "window 2 0 0 0",
                            "kind b", "xdeg", "levels 1 x", "summand free 0",
                            "sq1 x y", "!"])
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(module_texts())
def test_malformed_module_files_fail_only_with_parse_error(text):
    try:
        mf = parse_module_file(text)
        if mf.kind == "a1":
            module_file_to_a1(mf)
        elif mf.kind == "e":
            module_file_to_e(mf)
    except ParseError:
        pass


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*argv):
    """Run a fresh interpreter with this checkout's ``src`` on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def run_cli(*argv):
    """Run the command line of this checkout in a fresh interpreter."""
    return run_python("-m", "krtool.cli", *argv)


def test_starting_krtool_loads_neither_dataclasses_nor_inspect():
    # ``-S``: no site hooks, whose imports are not krtool's
    out = run_python(
        "-S", "-c", "import sys, krtool.cli, krtool.kr, krtool.verify; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_cli_verify_single_suite():
    out = run_cli("verify", "a1-structure")
    assert out.returncode == 0
    assert "PASS a1-structure" in out.stdout


def test_cli_verify_json_lists_each_suite():
    out = run_cli("verify", "a1-structure", "h01-a1", "--json")
    assert out.returncode == 0
    got = json.loads(out.stdout)
    assert [r["name"] for r in got] == ["a1-structure", "h01-a1"]
    for r in got:
        assert list(r) == ["name", "ok", "detail", "seconds"]
        assert r["ok"] is True and r["seconds"] >= 0 and r["detail"]


def test_cli_verify_json_keeps_the_failing_exit_status(monkeypatch, capsys):
    from krtool import cli
    from krtool.verify import VerifyResult
    monkeypatch.setattr(cli, "run_all", lambda names: [
        VerifyResult("a1-structure", False, "broken at 3", 0.5)])
    assert cli.main(["verify", "a1-structure", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"name": "a1-structure", "ok": False, "seconds": 0.5,
         "detail": "broken at 3"}]


def test_verify_times_suites_on_a_monotonic_clock(monkeypatch):
    from krtool import verify
    # the wall clock is set back by a day while the suite runs
    readings = iter([86400.0, 0.0])
    monkeypatch.setattr(verify.time, "time", lambda: next(readings, 0.0))
    got = verify.run_suite("a1-structure")
    assert got.ok and 0 <= got.seconds < 3600


def test_cli_verify_unknown_suite():
    out = run_cli("verify", "bogus")
    assert out.returncode == 2
    assert "unknown suite" in out.stderr


def test_cli_compute_h01_builtin():
    out = run_cli("compute", "h01", "--builtin", "RP1",
                  "--window", "-8", "8", "-4", "4")
    assert out.returncode == 0
    lines = [l for l in out.stdout.splitlines() if l and not l.startswith("m\t")]
    got = {}
    for l in lines:
        m, k, dim, _ = l.split("\t")
        got[(int(m), int(k))] = int(dim)
    from krtool.closedform import h01_pn_dim
    for d, v in got.items():
        assert v == h01_pn_dim(1, d), d


def test_cli_compute_chart_txt():
    out = run_cli("compute", "chart", "--builtin", "HP",
                  "--window", "-6", "9", "-4", "4", "--format", "txt")
    assert out.returncode == 0
    assert "k\\m" in out.stdout


def test_cli_compute_chart_svg(tmp_path):
    dest = tmp_path / "chart.svg"
    out = run_cli("compute", "chart", "--builtin", "HP",
                  "--window", "-6", "9", "-4", "4", "--format", "svg",
                  "--out", str(dest))
    assert out.returncode == 0
    assert dest.read_text().startswith("<svg")


def test_cli_compute_socle():
    out = run_cli("compute", "socle", "--builtin", "P0",
                  "--window", "-2", "12", "0", "0")
    assert out.returncode == 0
    assert "0\t0\t1" in out.stdout


def test_cli_reduce_module_exact_in_every_degree():
    out = run_cli("compute", "reduce", "--builtin", "F")
    assert out.returncode == 0
    assert "999994" not in out.stdout
    assert "# certified in every degree" in out.stdout
    out = run_cli("compute", "reduce", "--builtin", "P",
                  "--window", "-4", "8", "0", "0")
    assert "# certified through degree 2" in out.stdout


def test_cli_reduce_counts_the_free_generators_of_each_degree():
    out = run_cli("compute", "reduce", "--builtin", "BV3",
                  "--window", "1", "14", "0", "0")
    assert out.returncode == 0
    assert out.stdout == (
        "degree\tfree_generators\n4\t8\n5\t3\n6\t6\n7\t3\n8\t15\n"
        "# reduced dims: {1: 3, 2: 6, 3: 10, 4: 7, 5: 10, 6: 11, 7: 8, 8: 7, "
        "9: 14, 10: 28, 11: 36, 12: 67, 13: 87, 14: 105}\n"
        "# certified through degree 8\n")


def test_cli_kr_table():
    out = run_cli("compute", "kr-table", "--bv", "1",
                  "--window", "-8", "8", "-4", "4", "--layers", "2")
    assert out.returncode == 0
    assert out.stdout.startswith("m\tk\tdim\tpart")
    assert "layer0" in out.stdout


def test_cli_tower_detect():
    out = run_cli("compute", "tower-detect", "--seed", "5")
    assert out.returncode == 0
    assert out.stdout == (
        "# seed 5: XTowerSpec(xdeg=2, summands=("
        "Summand(kind='cyclic', shift=4, order=3), "
        "Summand(kind='free', shift=3, order=0), "
        "Summand(kind='cyclic', shift=2, order=1)))\n"
        "valid\tTrue\n"
        "height1\tfails\n"
        "height2\tfails\n"
        "height3\tholds\n")


def test_cli_prints_e_modules_canonically(tmp_path):
    """``compute print`` writes an e module, from ``RP<n>`` or an e file,
    in the canonical form, and printing the printed file is byte exact."""
    w = Window(-4, 4, -2, 2)
    window = ["--window", "-4", "4", "-2", "2"]
    out = run_cli("compute", "print", "--builtin", "RP1", *window)
    assert out.returncode == 0, out.stderr
    m = std_pn(1, w.m_lo - 1, required_top(w))
    assert out.stdout == e_to_module_file_text(apply_r(m, w).emod)
    src = tmp_path / "rp1.e"
    src.write_text(out.stdout)
    again = run_cli("compute", "print", "--in", str(src))
    assert again.returncode == 0 and again.stdout == out.stdout


@pytest.mark.parametrize("argv, named", [
    (("compute", "h01", "--in", "/nonexistent/module.txt"),
     "/nonexistent/module.txt"),
    (("compute", "kr-table", "--bv", "0"), "--bv 0"),
    (("compute", "kr-table", "--builtin", "BV0"), "needs --bv N"),
    (("compute", "chart", "--builtin", "BV0"), "'BV0'"),
    (("compute", "socle", "--window", "4", "-4", "0", "0"),
     "--window 4 -4 0 0"),
    (("compute", "socle"), "--builtin or --in"),
    (("compute", "socle", "--builtin", "P0", "--out", "/nonexistent/x.tsv"),
     "/nonexistent/x.tsv"),
    (("compute", "chart", "--bv", "-1"), "--bv -1"),
    (("compute", "chart", "--bv", "0"), "--bv 0"),
    (("compute", "print", "--in", "{tower}"), "'tower'"),
    (("compute", "reduce", "--in", "{tower}"), "'tower'"),
    (("compute", "h01", "--in", "{tower}"), "'tower'"),
    (("compute", "reduce", "--in", "{e}"), "is an e module"),
    (("compute", "socle", "--builtin", "RP1"), "RP1 is an e module"),
    # P2 printed for this window is exact on m -7..9, but its extension
    # reads m -9..9
    *[(("compute", task, "--in", "{p2}", "--window", "-6", "6", "-3", "3"),
       "exact on [-7,9] but the window requires [-9,9]")
      for task in ("h01", "relext", "chart")],
    # no generator of these builtins lies in the window
    *[(("compute", task, "--builtin", name, "--window", *window), name)
      for task, name, window in (
          ("margolis", "P9", ("-4", "4", "0", "0")),
          ("socle", "P", ("-30", "-20", "0", "0")),
          ("h01", "RP9", ("-4", "4", "0", "0")),
          ("socle", "BV2", ("-30", "-20", "0", "0")))],
    (("compute", "kr-table"), "compute kr-table needs --bv N"),
    (("compute", "kr-table", "--bv", "1", "--layers", "-1"), "--layers -1"),
    (("compute", "relext", "--builtin", "RP1", "--n", "-1"), "--n -1"),
    (("compute", "reduce", "--in", "{narrow}"),
     "narrow: window too narrow to certify reduction"),
    (("compute", "kr-table", "--bv", "2", "--window", "-14", "0", "-7", "0"),
     "--bv 2 --window -14 0 -7 0: window too small to contain any generator"),
])
def test_cli_rejects_bad_input_on_one_line(argv, named, tmp_path):
    files = {"{tower}": "kind tower\nwindow 0 4 0 0\nxdeg 1\n",
             "{e}": "kind e\nwindow 0 2 0 1\ngen x 0 0\ngen y 1 0\nq0 x = y\n",
             "{p2}": a1_to_module_file_text(std_pn(2, -7, 9)),
             "{narrow}": "kind a1\nwindow 0 4 0 0\ngen g 0\ngen h 1\n"
                         "sq1 g = h\n"}
    for key, text in files.items():
        (tmp_path / key.strip("{}")).write_text(text)
    out = run_cli(*(str(tmp_path / a.strip("{}")) if a in files else a
                    for a in argv))
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert named in lines[0]
