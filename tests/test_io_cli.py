"""File formats and the command line surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from krtool.a1 import std_pn, validate
from krtool.io import (
    ParseError,
    a1_to_module_file_text,
    e_to_module_file_text,
    module_file_to_a1,
    module_file_to_e,
    parse_module_file,
    tower_to_module_file_text,
)
from krtool.graded import Window
from krtool.towers import Summand, XTowerSpec


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
    text = f"kind tower\nwindow 0 4 0 0\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_module_file(text)
    assert err.value.line_no == 3


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


def test_parse_comments_and_zero_lines():
    text = ("# a tiny module\nkind a1\nwindow 0 4 0 0\n"
            "gen a 0\ngen b 1\nsq1 a = b\nsq2 a = 0\n")
    mf = parse_module_file(text)
    m = module_file_to_a1(mf)
    assert m.dims() == {0: 1, 1: 1}


def test_e_module_round_trip():
    from krtool.rfun import apply_r
    from krtool.a1 import std_f
    w = Window(-3, 3, -3, 3)
    em = apply_r(std_f(), w).emod
    text = e_to_module_file_text(em)
    back = module_file_to_e(parse_module_file(text))
    assert e_to_module_file_text(back) == text
    assert back.space.dims() == em.space.dims()


def test_tower_file_round_trip():
    spec = XTowerSpec(2, (Summand("cyclic", 1, 2), Summand("free", 0)))
    text = tower_to_module_file_text(spec, Window(-4, 10, 0, 0), (-1, 3))
    mf = parse_module_file(text)
    assert mf.tower == spec
    assert mf.tower_levels == (-1, 3)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv):
    """Run the command line of this checkout in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "krtool.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def test_cli_verify_single_suite():
    out = run_cli("verify", "a1-structure")
    assert out.returncode == 0
    assert "PASS a1-structure" in out.stdout


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


def test_cli_kr_table():
    out = run_cli("compute", "kr-table", "--bv", "1",
                  "--window", "-8", "8", "-4", "4", "--layers", "2")
    assert out.returncode == 0
    assert out.stdout.startswith("m\tk\tdim\tpart")
    assert "layer0" in out.stdout


def test_cli_tower_detect():
    out = run_cli("compute", "tower-detect", "--seed", "5")
    assert out.returncode == 0
    assert "height1" in out.stdout and "valid\tTrue" in out.stdout
