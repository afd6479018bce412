import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import plabicflow
from plabicflow import charts, cli, cones, plabic, seeds, superpot
from plabicflow.combinat import ksubsets
from plabicflow.laurent import lp_add
from plabicflow.plabic import save_model, shark_model
from model_transforms import insert_degree_two_pair


def run(*argv):
    return cli.main(list(argv))


def run_out(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_flow_pretty(capsys):
    rc, out, _ = run_out(capsys, "flow", "shark", "25")
    assert rc == 0
    assert out == "y34*(1+y24)\n"


def test_flow_json(capsys):
    rc, out, _ = run_out(capsys, "flow", "shark", "25", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "lattice": ["14", "15", "23", "24", "34"],
        "terms": [
            {"coeff": 1, "exp": {"34": 1}},
            {"coeff": 1, "exp": {"24": 1, "34": 1}},
        ],
    }


def test_flow_csv(capsys):
    rc, out, _ = run_out(capsys, "flow", "shark", "25", "--format", "csv")
    assert rc == 0
    assert out == "14,15,23,24,34,coeff\n0,0,0,0,1,1\n0,0,0,1,1,1\n"


@pytest.mark.parametrize("argv", [
    ("flow", "rect:2,10", "1,10"),
    ("kappa", "rect:2,10", "1,10"),
    ("matchings", "rect:2,10"),
    ("mutate", "rect:2,10"),
    ("no-body", "rect:2,10"),
])
def test_csv_quotes_comma_labels(capsys, argv):
    # at n >= 10 a face name is a comma list; as a field it must stay one
    rc, out, _ = run_out(capsys, *argv, "--format", "csv")
    assert rc == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows
    assert all(len(row) == len(header) for row in rows)
    if argv[0] == "flow":
        assert header[:2] == ["1,3", "1,4"] and len(header) == 17


def test_flow_order_override(capsys):
    rc, out, _ = run_out(
        capsys, "flow", "shark", "25", "--order", "34,24,23,15,14",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["lattice"] == ["34", "24", "23", "15", "14"]


def test_order_must_be_permutation(capsys):
    rc, _out, err = run_out(capsys, "flow", "shark", "25", "--order", "34,24")
    assert rc == 2
    assert "permutation" in err


def test_partition_single_matching(capsys):
    rc, out, _ = run_out(capsys, "partition", "shark", "35")
    assert rc == 0
    assert out == "B1B5*E2*E3*E5\n"


def test_partition_empty_value(capsys):
    rc, out, _ = run_out(capsys, "partition", "shark", "45")
    assert rc == 0
    assert out == "0\n"


def test_matchings_count(capsys):
    rc, out, _ = run_out(capsys, "matchings", "shark")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    assert lines[0] == "12: B1B2 B3B4 E1"


def test_valuation(capsys):
    rc, out, _ = run_out(capsys, "valuation", "shark", "25")
    assert rc == 0
    assert out == "14=0 15=0 23=0 24=0 34=1\n"


def test_kappa_long_instance(capsys):
    rc, out, _ = run_out(capsys, "kappa", "rect:4,9", "1,4,5,7")
    assert rc == 0
    assert out == (
        "1234=0 1235=0 1236=0 1237=0 1238=1 1239=1 1245=0 1256=0 1267=1 "
        "1278=1 1289=2 1345=0 1456=0 1567=1 1678=2 1789=2 2345=1 3456=1 "
        "4567=1 5678=2 6789=3\n"
    )


def test_kappa_csv(capsys):
    rc, out, _ = run_out(capsys, "kappa", "rect:2,4", "13", "--format", "csv")
    assert rc == 0
    assert out == "label,value\n12,0\n13,0\n14,1\n23,1\n34,1\n"


def test_mutate_reports_seed(capsys):
    rc, out, _ = run_out(capsys, "mutate", "rect:2,4", "--mutations", "13")
    assert rc == 0
    assert "12: 12 (frozen) (star)" in out
    assert "24: 24" in out
    # arrows equal the dual quiver of the square-moved model
    arrows = [l for l in out.strip().split("\n") if " -> " in l]
    assert arrows == [
        "12 -> 24", "14 -> 12", "14 -> 34", "23 -> 12",
        "23 -> 34", "24 -> 14", "24 -> 23", "34 -> 24",
    ]


def test_mutate_roundtrip_restores_labels(capsys):
    rc, out, _ = run_out(capsys, "mutate", "rect:2,4", "--mutations", "13,24")
    assert rc == 0
    assert "13: 13" in out


def test_mutate_frozen_is_usage_error(capsys):
    rc, _out, err = run_out(capsys, "mutate", "rect:2,4", "--mutations", "12")
    assert rc == 2
    assert err == "error: not mutable: vertex 12 is frozen\n"


def test_xcheck(capsys):
    rc, out, _ = run_out(capsys, "xcheck", "rect:2,4")
    assert rc == 0
    assert out == "PASS xcheck 13 (6 boundary values)\n"


def test_xcheck_chain(capsys):
    rc, out, _ = run_out(capsys, "xcheck", "rect:2,5", "--mutations", "13,14")
    assert rc == 0
    assert out == (
        "PASS xcheck 13 (10 boundary values)\n"
        "PASS xcheck 14 (10 boundary values)\n"
    )


def moved_shark_file(tmp_path) -> str:
    """The shark square-moved at 24, a move that contracts a node, saved."""
    path = tmp_path / "shark24.plabic"
    path.write_text(save_model(plabic.square_move(shark_model(), (2, 4))))
    return str(path)


def test_xcheck_passes_on_a_saved_moved_shark(tmp_path, capsys):
    rc, out, _ = run_out(capsys, "xcheck", moved_shark_file(tmp_path), "--mutations", "13")
    assert (rc, out) == (0, "PASS xcheck 13 (9 boundary values)\n")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "seed mutation misses a frozen-frozen arrow after a move that contracts a "
    "node: mutate exits 3 with 'corner-structure: no arrow 12 -> 14 at a "
    "corner of 13' on a model that save_model wrote (ROADMAP item 3)"))
def test_mutate_answers_a_saved_moved_shark(tmp_path, capsys):
    rc, _out, err = run_out(capsys, "mutate", moved_shark_file(tmp_path), "--mutations", "13")
    assert (rc, err) == (0, "")


RECT36_INTERNAL_EDGES = sorted(
    e for e, (a, b) in plabic.build_rectangles_model(3, 6).edges.items()
    if a[0] == b[0] == "n")


@pytest.mark.parametrize("edge", RECT36_INTERNAL_EDGES)
def test_a_degree_two_pair_on_an_internal_edge_changes_no_answer(
        tmp_path, capsys, edge):
    # the edge's three pieces give its two faces the arrows +1, -1, +1, and
    # the seed carries their net arrow
    rect = plabic.build_rectangles_model(3, 6)
    path = tmp_path / "pair.plabic"
    path.write_text(save_model(insert_degree_two_pair(rect, edge)))
    for argv in (["kappa", "M", "246"], ["mutate", "M", "--mutations", "124,145"],
                 ["no-body", "M"], ["flow", "M", "246"]):
        got = run_out(capsys, *[str(path) if a == "M" else a for a in argv])
        assert got == run_out(capsys, *["rect:3,6" if a == "M" else a for a in argv])
        assert got[0] == 0
    # xcheck moves at 124, whose face has six sides when the pair is on one
    rc, out, err = run_out(capsys, "xcheck", str(path))
    an = plabic.analyze(rect)
    if edge in an.faces[an.label_to_face[(1, 2, 4)]].edge_ids:
        assert (rc, out) == (2, "")
        assert err == "error: not mutable: face 124 has 6 sides, need 4\n"
    else:
        assert (rc, out, err) == (0, "PASS xcheck 124 (20 boundary values)\n", "")


def test_xcheck_hexagonal_is_usage_error(capsys):
    # the face is named as a face name, with commas past n = 9
    for kn, face in [("3,6", "145"), ("3,10", "1,4,5")]:
        rc, out, err = run_out(capsys, "xcheck", f"rect:{kn}", "--mutations", face)
        assert (rc, out) == (2, "")
        assert err == f"error: not mutable: face {face} has 6 sides, need 4\n"


def double_every_image(monkeypatch):
    """Every coefficient of every X-mutated image doubled."""
    real = cli.charts.x_mutate
    monkeypatch.setattr(cli.charts, "x_mutate", lambda step, counts: {
        w: 2 * c for w, c in real(step, counts).items()})


def test_xcheck_mismatch_is_verification_failure(monkeypatch, capsys):
    double_every_image(monkeypatch)
    rc, out, _ = run_out(capsys, "xcheck", "rect:2,4")
    assert rc == 1
    assert out == "FAIL xcheck 13: mutation at 13 disagrees with flows at I=12\n"


@pytest.mark.parametrize("argv,line", [
    (("xcheck", "rect:2,5"), "FAIL xcheck 13: the move at 13 changes the positroid at I=12"),
    (("verify", "xflow", "--kn", "2,5"),
     "FAIL xflow: rect:2,5: the move at 13 changes the positroid at I=12"),
], ids=["xcheck", "xflow"])
def test_a_move_that_changes_the_positroid_fails_xcheck(monkeypatch, capsys, argv, line):
    # the square move compares gap labels only; the enumerated positroids
    # are compared where the flows are, and the first boundary value in
    # just one of them is the witness
    base = plabic.build_rectangles_model(2, 5)
    real = plabic.positroid
    monkeypatch.setattr(plabic, "build_rectangles_model", lambda k, n: base)
    monkeypatch.setattr(plabic, "positroid",
                        lambda model: real(model) if model is base else real(model)[1:])
    rc, out, err = run_out(capsys, *argv)
    assert (rc, out, err) == (1, line + "\n", "")


@pytest.mark.parametrize("face", ["999", "12"])
def test_xcheck_unknown_face_is_usage_error(capsys, face):
    rc, out, err = run_out(capsys, "xcheck", "rect:3,6", "--mutations", face)
    assert rc == 2
    assert out == ""
    assert err == f"error: no face named '{face}'\n"


@pytest.mark.parametrize("argv,face", [
    (("mutate", "rect:2,4", "--mutations", "99"), "99"),
    (("superpotential", "--kn", "2,4", "--mutations", "99"), "99"),
    # the first move renames 24, so the second finds no face of that name
    (("mutate", "shark", "--mutations", "24,24,24"), "24"),
], ids=["mutate", "superpotential", "mutate-renamed"])
def test_unknown_face_is_usage_error_as_in_xcheck(capsys, argv, face):
    rc, out, err = run_out(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: no face named '{face}'\n"


@pytest.mark.parametrize("argv,option,text", [
    # once exit 0 after the default move 124, the unmutated seed and the
    # unmutated potential; 124,,145 ran as 124,145 and 1,,2,3 as 123
    (("xcheck", "rect:3,6", "--mutations", ","), "--mutations", ","),
    (("mutate", "rect:3,6", "--mutations", ","), "--mutations", ","),
    (("superpotential", "--kn", "3,6", "--mutations", ","), "--mutations", ","),
    (("xcheck", "rect:3,6", "--mutations", "124,,145"), "--mutations", "124,,145"),
    (("mutate", "rect:3,6", "--mutations", "124,,145"), "--mutations", "124,,145"),
    (("xcheck", "rect:3,6", "--mutations", ""), "--mutations", ""),
    # past n = 9 a face name is a comma list of its own
    (("mutate", "rect:2,10", "--mutations", "1,2,,3"), "--mutations", "1,2,,3"),
    (("wx", "--kn", "2,4", "--order", "q,"), "--order", "q,"),
    (("flow", "rect:3,6", "1,,2,3"), "k-subset", "1,,2,3"),
], ids=["xcheck", "mutate", "superpotential", "xcheck-inner", "mutate-inner",
        "xcheck-blank", "mutate-n10", "order", "flow-subset"])
def test_an_empty_name_is_refused(capsys, argv, option, text):
    rc, out, err = run_out(capsys, *argv)
    assert (rc, out) == (2, "")
    what = "element" if option == "k-subset" else "name"
    assert err == f"error: empty {what} in {option} '{text}'\n"


def test_an_absent_mutation_path_keeps_its_default(capsys):
    rc, out, _ = run_out(capsys, "xcheck", "rect:3,6")
    assert (rc, out) == (0, "PASS xcheck 124 (20 boundary values)\n")


def test_gt_cone_json(capsys):
    rc, out, _ = run_out(capsys, "gt-cone", "--kn", "2,4", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "ambient": ["r", "13", "14", "23", "34"],
        "ineqs": [
            {"13": -1, "14": -1, "34": 1},
            {"13": -1, "23": -1, "34": 1},
            {"13": -1, "23": 1},
            {"13": -1, "14": 1},
            {"13": 1},
            {"13": 1, "34": -1, "r": 1},
        ],
    }


def test_gt_cone_pretty(capsys):
    rc, out, _ = run_out(capsys, "gt-cone", "--kn", "2,4")
    assert rc == 0
    assert out == (
        "-13 -14 +34 >= 0\n-13 -23 +34 >= 0\n-13 +23 >= 0\n"
        "-13 +14 >= 0\n+13 >= 0\n+r +13 -34 >= 0\n"
    )


def test_gt_cone_points_csv(capsys):
    rc, out, _ = run_out(
        capsys, "gt-cone", "--kn", "2,4", "--level", "1", "--format", "csv"
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,13,14,23,34"
    assert len(lines) == 7  # six level-1 points


@pytest.mark.parametrize("argv", [
    ("gt-cone", "--kn", "2,4", "--level", "-1"),
    ("verify", "weyl-count", "--kn", "2,4", "--level", "-1"),
])
def test_negative_level_is_usage_error(capsys, argv):
    rc, out, err = run_out(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "--level must be >= 0" in err


@pytest.mark.parametrize("argv,text", [
    (("verify", "all", "--kn", "2"), "expected k,n — got '2'"),
    (("verify", "all", "--kn", "a,5"), "expected integers k,n — got 'a,5'"),
    (("verify", "all", "--kn", "3,3"), "need 1 <= k <= n-1, got k=3, n=3"),
    (("flow", "{absent}", "25"), "cannot read model '{absent}': "),
    (("kappa", "rect:2,5", "1"), "'1' is not a 2-subset"),
    (("xcheck", "rect:2,3"), "model has no mutable faces"),
])
def test_a_bad_request_is_one_error_line(tmp_path, capsys, argv, text):
    # each refusal is one line on stderr, exit 2, nothing on stdout
    absent = str(tmp_path / "absent.plabic")
    rc, out, err = run_out(capsys, *(a.format(absent=absent) for a in argv))
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + text.format(absent=absent))
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv,needs", [
    (("gt-cone", "--kn", "2,4", "--level", "1000"), "84,001,919,001 lattice points by level 1000"),
    # levels 0..29 of (2,4) already pass the budget; nothing is printed
    (("verify", "weyl-count", "--kn", "2,4", "--level", "1000"), "515,592 lattice points by level 29"),
    (("verify", "all", "--kn", "2,5", "--level", "100"), "596,904 lattice points by level 15"),
    # one level-1 point per k-subset: C(44, 22) of them
    (("verify", "trop-a", "--kn", "22,44"), "2,104,098,963,720 lattice points by level 1"),
    (("no-body", "rect:22,44"), "2,104,098,963,720 lattice points by level 1"),
], ids=["gt-cone", "weyl-count", "verify-all", "trop-a", "no-body"])
def test_point_budget_refuses_large_slices(capsys, argv, needs):
    rc, out, err = run_out(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert needs in err
    assert "past the point budget of 500,000" in err


def test_level1_budget_is_inclusive(monkeypatch, capsys):
    # (2,5) has C(5, 2) = 10 level-1 points, (2,6) has 15
    monkeypatch.setattr(cli, "POINT_BUDGET", 10)
    assert run_out(capsys, "verify", "trop-a", "--kn", "2,5")[0] == 0
    assert run_out(capsys, "no-body", "rect:2,5")[0] == 0
    # every instance is weighed before any suite runs
    rc, out, err = run_out(capsys, "verify", "trop-a", "--kn", "2,5", "--kn", "2,6")
    assert (rc, out) == (2, "")
    assert err == ("error: verify trop-a at (2,6) needs 15 lattice points by "
                   "level 1, past the point budget of 10\n")
    assert run_out(capsys, "no-body", "rect:2,6")[0] == 2


def test_point_budget_is_inclusive(monkeypatch, capsys):
    # (2,5) has 50 points at level 2, and 1 + 10 + 50 up to it
    monkeypatch.setattr(cli, "POINT_BUDGET", 50)
    assert run_out(capsys, "gt-cone", "--kn", "2,5", "--level", "2")[0] == 0
    assert run_out(capsys, "verify", "weyl-count", "--kn", "2,5")[0] == 2
    monkeypatch.setattr(cli, "POINT_BUDGET", 61)
    assert run_out(capsys, "verify", "weyl-count", "--kn", "2,5")[0] == 0
    monkeypatch.setattr(cli, "POINT_BUDGET", 49)
    assert run_out(capsys, "gt-cone", "--kn", "2,5", "--level", "2")[0] == 2


@pytest.mark.parametrize("argv,count,at", [
    (("matchings", "rect:4,8"), 424, ""),
    (("flow", "rect:4,8", "1357"), 24, " with boundary value 1357"),
    (("verify", "plucker", "--kn", "4,8"), 424, ""),
], ids=["matchings", "flow", "verify"])
def test_matching_budget_refuses_one_past_the_count(monkeypatch, capsys, argv, count, at):
    # rect:4,8 has 424 perfect matchings, 24 of them with boundary value
    # 1357; a flow lists only the matchings of its boundary value, so the
    # budget applies to those
    monkeypatch.setattr(plabic, "MATCHING_BUDGET", count - 1)
    rc, out, err = run_out(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == (f"error: rect:4,8 has {count} perfect matchings{at}, past the "
                   f"matching budget of {count - 1}\n")
    if at:
        monkeypatch.setattr(plabic, "MATCHING_BUDGET", count)
        assert run_out(capsys, *argv)[0] == 0


def test_matching_budget_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(plabic, "MATCHING_BUDGET", 424)
    rc, out, _ = run_out(capsys, "matchings", "rect:4,8", "--format", "csv")
    assert rc == 0
    assert len(out.splitlines()) == 1 + 424


def test_a_deep_matching_search_is_refused_with_one_line(capsys):
    # rect:20,40 lists the matchings of one boundary value by a recursion
    # that runs past Python's recursion limit: exit 2, one error line
    # naming the model, no traceback
    odd = ",".join(map(str, range(1, 40, 2)))
    rc, out, err = run_out(capsys, "flow", "rect:20,40", odd)
    assert rc == 2
    assert out == ""
    assert err == (f"error: rect:20,40 has a matching search with boundary value "
                   f"{odd} past the recursion limit of {sys.getrecursionlimit():,}\n")


def test_the_base_value_is_no_search(capsys):
    # the base value is read off the gap labels: a one-shot flow at rect:12,24
    # lists only the matchings of its own value, and the one term comes out
    I = ",".join(map(str, range(1, 13)))
    rc, out, err = run_out(capsys, "flow", "rect:12,24", I)
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 1


def test_a_search_past_the_state_budget_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(plabic, "STATE_BUDGET", 10)
    for argv, at in [(("flow", "rect:4,8", "1357"), " with boundary value 1357"),
                     (("matchings", "rect:4,8"), ""),
                     (("verify", "plucker", "--kn", "4,8"), "")]:
        rc, out, err = run_out(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == (f"error: rect:4,8 has a matching search{at} past the state "
                       "budget of 10\n")


def test_matching_budget_refuses_rect_6_13(capsys):
    rc, out, err = run_out(capsys, "matchings", "rect:6,13")
    assert rc == 2
    assert out == ""
    assert err == ("error: rect:6,13 has 1,205,690 perfect matchings, past the "
                   "matching budget of 1,000,000\n")


def test_no_body_csv(capsys):
    rc, out, _ = run_out(capsys, "no-body", "rect:2,4", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "13,14,23,34"
    assert len(lines) == 7
    assert "0,0,0,0" in lines


def test_no_body_lists_the_positroid_of_the_model(capsys):
    # the shark's positroid holds 9 of the 10 2-subsets of [5], not 45,
    # whose point (0,0,0,0,0) was listed again beside 35's
    rc, out, _ = run_out(capsys, "no-body", "shark", "--format", "csv")
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == len(set(rows)) == 9
    rc, out, _ = run_out(capsys, "no-body", "shark")
    assert rc == 0 and out.endswith("# 9 points\n")


def test_superpotential_pretty(capsys):
    rc, out, _ = run_out(capsys, "superpotential", "--kn", "2,4")
    assert rc == 0
    assert out == (
        "p12^-1*p13^-1*p14^-1*p23^-1*p34^-1*"
        "(p13^2*p14*p23*p34+p12*p14*p23^2*p34+p12*p14^2*p23*p34"
        "+p12^2*p23*p34^2+p12^2*p14*p34^2+q*p12*p13^2*p14*p23)\n"
    )


def test_superpotential_mutated(capsys):
    rc, out, _ = run_out(
        capsys, "superpotential", "--kn", "2,4", "--mutations", "13"
    )
    assert rc == 0
    assert "p24" in out and "p13" not in out


def test_wx_pretty(capsys):
    rc, out, _ = run_out(capsys, "wx", "--kn", "2,4")
    assert rc == 0
    assert out == "x34+x23+x14+x13*x23+x13*x14+x12\n"


def test_verify_single_suite(capsys):
    rc, out, _ = run_out(capsys, "verify", "wformula", "--kn", "2,5")
    assert rc == 0
    assert out == "PASS wformula: rect:2,5 boundary-module expansion equals the potential\n"


def test_verify_all(capsys):
    rc, out, _ = run_out(capsys, "verify", "all")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    assert all(l.startswith("PASS ") for l in lines)


def test_verify_repeated_kn_concatenates_runs(capsys):
    singles = [run_out(capsys, "verify", "all", "--kn", kn) for kn in ("2,4", "2,5")]
    rc, out, _ = run_out(capsys, "verify", "all", "--kn", "2,4", "--kn", "2,5")
    assert [r for r, _o, _e in singles] == [0, 0]
    assert rc == 0
    assert out == singles[0][1] + singles[1][1]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        rc_all, _out, _ = run_out(capsys, "verify", "all", "--kn", "2,5")
        rc, out, _ = run_out(capsys, "verify", "plucker")
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert (rc_all, rc) == (0, 0)
    # the earlier --kn list does not carry over into the default instance
    assert out == "PASS plucker: rect:2,4 all three-term relations, both charts\n"


def test_verify_repeated_kn_fails_if_any_instance_fails(monkeypatch, capsys):
    real = cli.SUITES["plucker"]
    monkeypatch.setitem(
        cli.SUITES, "plucker",
        lambda model, tag, level: (
            (False, "forced failure") if model.n == 5 else real(model, tag, level)
        ),
    )
    rc, out, _ = run_out(capsys, "verify", "plucker", "--kn", "2,4", "--kn", "2,5")
    assert rc == 1
    assert out.splitlines() == [
        "PASS plucker: rect:2,4 all three-term relations, both charts",
        "FAIL plucker: forced failure",
    ]


def test_verify_exact_seq_fail_line_names_its_witness(monkeypatch, capsys):
    # labels 124 and 125 swapped, on the seed and then on a mutated seed:
    # the first column of wt.beta that is not -e_v, its first differing row
    # and that row's entry
    s = seeds.rectangles_seed(3, 6)
    labels = dict(s.labels)
    labels["124"], labels["125"] = labels["125"], labels["124"]
    swapped = seeds.Seed(s.k, s.n, s.quiver, labels)
    with monkeypatch.context() as m:
        m.setattr(seeds, "seed_of_model", lambda model: swapped)
        rc, out, _ = run_out(capsys, "verify", "exact-seq", "--kn", "3,6")
    assert (rc, out) == (1, "FAIL exact-seq: rect:3,6 on the seed: "
                            "wt.beta column 124, row 124 is 1, not -1\n")
    with monkeypatch.context() as m:
        m.setattr(seeds, "seed_mutations", lambda s: iter([("134", swapped)]))
        rc, out, _ = run_out(capsys, "verify", "exact-seq", "--kn", "3,6")
    assert (rc, out) == (1, "FAIL exact-seq: rect:3,6 after mutation at 134: "
                            "wt.beta column 124, row 124 is 1, not -1\n")
    # the arrow 15 -> 45 of the (2,5) seed mutated at 14 moved to 23 -> 45:
    # every row of beta balances, column 15 sums to 1 and column 23 to -1
    s = seeds.mutate_labels(seeds.rectangles_seed(2, 5), "14")
    q = s.quiver
    counts = {(u, v): mult for u, v, mult in q.arrows}
    counts["23", "45"] = counts.pop(("15", "45"))
    moved = seeds.Seed(s.k, s.n, seeds.make_quiver(q.vertices, q.frozen, q.star, counts),
                       s.labels)
    with monkeypatch.context() as m:
        m.setattr(seeds, "seed_of_model", lambda model: moved)
        rc, out, _ = run_out(capsys, "verify", "exact-seq", "--kn", "2,5")
    assert (rc, out) == (1, "FAIL exact-seq: rect:2,5 on the seed: "
                            "beta column 15 sums to 1, not 0\n")


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(
        cli.SUITES, "plucker", lambda model, tag, level: (False, "forced failure")
    )
    rc, out, _ = run_out(capsys, "verify", "plucker")
    assert rc == 1
    assert out == "FAIL plucker: forced failure\n"


def test_a_failed_move_suite_leaves_the_other_checking_every_move(
        monkeypatch, capsys):
    # valuation-kappa fails at the second square move and checks no third;
    # xflow still checks every move and lists them all in its PASS line
    real = cli._val_kappa_mismatch
    moved = []

    def fail_at_second_move(model, tag):
        if " after move " in tag:
            moved.append(tag)
            if len(moved) == 2:
                return f"{tag}: forced failure"
        return real(model, tag)

    monkeypatch.setattr(cli, "_val_kappa_mismatch", fail_at_second_move)
    rc, out, _ = run_out(capsys, "verify", "all", "--kn", "3,6")
    assert rc == 1
    assert out == (
        "PASS plucker: rect:3,6 all three-term relations, both charts\n"
        "FAIL valuation-kappa: rect:3,6 after move 125: forced failure\n"
        "PASS xflow: rect:3,6 flow/mutation agree at [124,125,134]\n"
        "PASS trop-a: rect:3,6 kappa-compatibility and involution\n"
        "PASS exact-seq: rect:3,6 wt.beta = -id on the seed and after "
        "mutations [124,125,134]\n"
        "PASS gt-trop: rect:3,6 tropicalized potential equals the pattern cone\n"
        "PASS wformula: rect:3,6 boundary-module expansion equals the potential\n"
        "PASS weyl-count: rect:3,6 point counts match dimensions for levels 0..2\n"
    )
    assert moved == ["rect:3,6 after move 124", "rect:3,6 after move 125"]


def test_verify_unknown_suite(capsys):
    rc, _out, err = run_out(capsys, "verify", "nonsense")
    assert rc == 2
    assert "unknown suite" in err


def test_bad_subset_is_usage_error(capsys):
    rc, _out, err = run_out(capsys, "flow", "shark", "99")
    assert rc == 2


def test_model_file_loads(tmp_path, capsys):
    path = tmp_path / "shark.plabic"
    path.write_text(save_model(shark_model()))
    rc, out, _ = run_out(capsys, "flow", str(path), "25")
    assert rc == 0
    assert out == "y34*(1+y24)\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.plabic"
    path.write_text("plabic v1\nkn 2 4\nnode A chartreuse\n")
    rc, _out, err = run_out(capsys, "matchings", str(path))
    assert rc == 2
    assert "error:" in err


STAR_COMMANDS = [("matchings",), ("partition", "25"), ("flow", "25"), ("valuation", "25"),
                 ("kappa", "25"), ("mutate", "--mutations", "24"),
                 ("xcheck", "--mutations", "24"), ("no-body",)]


@pytest.mark.parametrize("name, star", [("star_23", "B4B5,E1,E2"),
                                        ("star_24", "B1B3,B1B5,B3B4,B4B5")])
@pytest.mark.parametrize("command", STAR_COMMANDS, ids=lambda c: c[0])
def test_a_star_line_off_the_face_between_n_and_1_exits_3(capsys, name, star, command):
    # the shark with its star line moved to the gap face 23 or the internal
    # face 24: every command refuses it alike, where each once gave its own
    # answer or violation
    path = Path(__file__).parent / "models" / f"{name}.plabic"
    rc, _out, err = run_out(capsys, command[0], str(path), *command[1:])
    assert rc == 3
    assert err == ("invariant violation: star-mismatch: star "
                   f"{star}, the face between stubs 5 and 1 is B1B2,B1B5,E1,E5\n")


def test_a_model_that_is_not_reduced_keeps_its_table_but_has_no_base(capsys):
    # rect (3,6) with a chord: every 3-subset is a boundary value, so the
    # table's lex-max is 456, but gap 3 carries 145 and the gap labels give
    # the base value 356; matchings and partition answer from the table as
    # before, the flow commands find no unique base matching, and the seed
    # refuses the labels
    path = str(Path(__file__).parent / "models" / "chord_36.plabic")
    for argv, digest in [(("matchings", path), "f4658b5fb2"),
                         (("partition", path, "123"), "3329eb23bd")]:
        rc, out, err = run_out(capsys, *argv)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:10] == digest
    for command in ("flow", "valuation"):
        rc, out, err = run_out(capsys, command, path, "123")
        assert (rc, out) == (3, "")
        assert err == ("invariant violation: base-matching-not-unique: "
                       "2 matchings reach 356\n")
    rc, out, err = run_out(capsys, "kappa", path, "123")
    assert (rc, out) == (3, "")
    assert err.startswith("invariant violation: labels-not-weakly-separated: ")


def test_invariant_violation_exit_code(tmp_path, capsys):
    # parses fine but is not bipartite
    bad = (
        "plabic v1\nkn 2 4\nnode A black\nnode B black\n"
        "edge E1 n:A b:1\nedge E2 n:A b:2\nedge E3 n:B b:3\nedge E4 n:B b:4\n"
        "edge M n:A n:B\nrot A E1 E2 M\nrot B E3 E4 M\n"
        "label E1,E2 12\nstar E1,E2\n"
    )
    path = tmp_path / "bad.plabic"
    path.write_text(bad)
    rc, _out, err = run_out(capsys, "matchings", str(path))
    assert rc == 3
    assert "invariant violation" in err


def test_missing_subcommand_is_usage_error(capsys):
    rc = run()
    capsys.readouterr()
    assert rc == 2


def test_byte_determinism_subprocess():
    cmd = [sys.executable, "-m", "plabicflow.cli", "verify", "gt-trop",
           "--kn", "2,5"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout


def test_trop_a_computes_the_base_kappa_table_once(monkeypatch, capsys):
    # the table's columns are read off one kappa column per subset
    base = seeds.rectangles_seed(3, 6).labels
    calls = []
    real = seeds._kappa_column

    def counted(s, I):
        if s.labels == base:
            calls.append(tuple(I))
        return real(s, I)

    monkeypatch.setattr(seeds, "_kappa_column", counted)
    rc, out, _ = run_out(capsys, "verify", "trop-a", "--kn", "3,6")
    assert rc == 0 and out.startswith("PASS trop-a")
    assert sorted(calls) == list(ksubsets(6, 3))


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(plabicflow.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "plabicflow", "verify", "plucker", "--kn", "2,5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS plucker") and proc.stdout.count("\n") == 1


@pytest.mark.parametrize("argv", [["verify", "all", "--kn", "2,5"], ["flow", "shark", "25"]])
def test_closed_stdout_exits_141_without_traceback(argv):
    # the reader end is closed before the command writes a byte, as when
    # `| head -1` exits before the output is flushed
    env = dict(os.environ, PYTHONPATH=str(Path(plabicflow.__file__).parents[1]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "plabicflow", *argv],
                              stdout=w, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(w)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_closed_stdout_exits_141_in_process(monkeypatch, capsys):
    # stdout is a pipe whose reader is gone: the first write raises
    # BrokenPipeError, main points stdout at devnull and returns 141
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert cli.main(["flow", "shark", "25"]) == cli.EXIT_BROKEN_PIPE
        monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def test_an_unbounded_slice_exits_2(monkeypatch, capsys):
    # a cone with no inequalities leaves its first coordinate unbounded
    real = cones.gt_inequalities
    monkeypatch.setattr(cones, "gt_inequalities",
                        lambda k, n: cones.make_cone(real(k, n).ambient, []))
    rc, out, err = run_out(capsys, "gt-cone", "--kn", "2,4", "--level", "1")
    assert (rc, out) == (2, "")
    assert err == "error: unbounded enumeration: coordinate 13 unbounded at level 1\n"


# ------------------------------------------------- exit codes of bad requests


def test_valuation_outside_the_positroid_is_usage_error(capsys):
    rc, out, err = run_out(capsys, "valuation", "shark", "45")
    assert (rc, out) == (2, "")
    assert err == ("error: 45 is outside the model's positroid: its flow "
                   "polynomial is 0, which has no valuation\n")


def test_non_utf8_model_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.plabic"
    path.write_bytes(save_model(shark_model()).encode() + b"# caf\xe9\n")
    rc, out, err = run_out(capsys, "flow", str(path), "25")
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: model '{path}' is not UTF-8 text: ")


@pytest.mark.parametrize("old,new", [("B1", "B,1"), ("B1B2", "B1,B2")])
def test_comma_in_an_id_is_a_parse_error(tmp_path, old, new):
    # a label or star line would read the edge id B1,B2 as two ids
    path = tmp_path / "comma.plabic"
    path.write_text(re.sub(rf"\b{old}\b", new, plabic.SHARK_TEXT))
    env = dict(os.environ, PYTHONPATH=str(Path(plabicflow.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "plabicflow", "flow", str(path), "25"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: line ") and "contains ','" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_repeated_kn_line_is_a_parse_error(tmp_path, capsys):
    # a conflicting kn line after the labels is refused where it stands,
    # not later as a bad label
    path = tmp_path / "kn.plabic"
    path.write_text(plabic.SHARK_TEXT + "kn 3 5\n")
    line = len(plabic.SHARK_TEXT.splitlines()) + 1
    assert run_out(capsys, "flow", str(path), "25") == (
        2, "", f"error: line {line}: duplicate kn line\n")


def test_kappa_has_no_order_option(capsys):
    # both print a vector in face order; valuation has no tie to break,
    # since a flow polynomial's minimal exponent is unique
    for command in ("kappa", "valuation"):
        rc, out, err = run_out(capsys, command, "shark", "35", "--order", "zz")
        assert (rc, out) == (2, "")
        assert "unrecognized arguments: --order zz" in err


def test_value_error_inside_the_package_is_an_internal_fault(monkeypatch, capsys):
    # an X-mutation that refuses its input is a fault of the package, not
    # of the request
    def refuse(step, counts):
        raise ValueError("no image of these counts")

    monkeypatch.setattr(cli.charts, "x_mutate", refuse)
    rc, out, err = run_out(capsys, "xcheck", "rect:2,4")
    assert (rc, out, err) == (3, "", "internal error: no image of these counts\n")
    # inside verify it is the FAIL line of the suite that met it
    rc, out, err = run_out(capsys, "verify", "xflow", "--kn", "2,4")
    assert (rc, err) == (1, "")
    assert out == "FAIL xflow: rect:2,4 after move 13: internal error: no image of these counts\n"


def test_plucker_at_k_1_has_no_relations_to_fail(capsys):
    rc, out, _ = run_out(capsys, "verify", "plucker", "--kn", "1,4")
    assert rc == 0
    assert out == "PASS plucker: rect:1,4 all three-term relations, both charts\n"


@pytest.mark.parametrize("kn,failing,line", [
    ("3,6", (2,), "relation (1,3,4,5;S=2) fails on rect:3,6"),
    ("2,4", (), "relation (1,2,3,4) fails on rect:2,4"),
    ("4,10", (1, 2), "relation (3,4,5,6;S=1,2) fails on rect:4,10"),
], ids=["3,6", "2,4", "4,10"])
def test_plucker_fail_line_names_s_as_a_subset(monkeypatch, capsys, kn, failing, line):
    # the relations with S = failing fail; S is named as the command line
    # names a subset, and left out when empty
    monkeypatch.setattr(charts, "plucker_verify", lambda model, rel: rel[4] != failing)
    rc, out, err = run_out(capsys, "verify", "plucker", "--kn", kn)
    assert (rc, out, err) == (1, f"FAIL plucker: {line}\n", "")


def last_face_plus_one(monkeypatch):
    """Every matching weighs one more at the last face on the flow route."""
    real = cli.plabic.FaceGraph.flow_route
    monkeypatch.setattr(cli.plabic.FaceGraph, "flow_route",
                        lambda graph, mask: real(graph, mask) + graph.unit[-1])


@pytest.mark.parametrize("suite,where", [
    ("xflow", "rect:2,5 after move 13"),
    ("valuation-kappa", "rect:2,5"),
], ids=["xflow", "valuation-kappa"])
def test_invariant_violation_inside_a_suite_is_its_fail_line(
        monkeypatch, capsys, suite, where):
    # xflow meets the violation on the first moved model, valuation-kappa
    # on the base model; either names where, prints nothing on stderr and
    # exits 1
    last_face_plus_one(monkeypatch)
    rc, out, err = run_out(capsys, "verify", suite, "--kn", "2,5")
    assert (rc, err) == (1, "")
    assert out.count("\n") == 1
    assert out.startswith(
        f"FAIL {suite}: {where}: invariant violation: flow-weight-mismatch: at I=12, ")


def test_invariant_violation_in_xcheck_exits_3(monkeypatch, capsys):
    last_face_plus_one(monkeypatch)
    rc, out, err = run_out(capsys, "xcheck", "rect:2,5")
    assert (rc, out) == (3, "")
    assert err.startswith("invariant violation: flow-weight-mismatch: ")


def test_a_face_weight_violation_names_its_boundary_value_and_matching(
        monkeypatch, capsys):
    # the last matching of I = 24 weighs one more on the flow route: the
    # error names I and that matching's edges after the violation's name
    model = plabic.build_rectangles_model(2, 5)
    last = plabic.masks_at(model, (2, 4))[-1]
    edges = ",".join(plabic.edge_names(model, last))
    real = plabic.FaceGraph.flow_route

    def off_on_last(graph, mask):
        return real(graph, mask) + (graph.unit[-1] if mask == last else 0)

    monkeypatch.setattr(plabic.FaceGraph, "flow_route", off_on_last)
    rc, out, err = run_out(capsys, "flow", "rect:2,5", "24")
    assert (rc, out) == (3, "")
    assert err.startswith(
        f"invariant violation: flow-weight-mismatch: at I=24, matching {edges}: flow {{")
    # a mask that is no matching fails the flow decomposition first
    monkeypatch.undo()
    bad = last ^ 1
    monkeypatch.setattr(charts, "masks_at", lambda model, I: (bad,))
    rc, out, err = run_out(capsys, "flow", "rect:2,5", "24")
    assert (rc, out) == (3, "")
    edges = ",".join(plabic.edge_names(model, bad))
    assert err.startswith(
        f"invariant violation: flow-degree: at I=24, matching {edges}: ")


def test_xflow_mismatch_is_verification_failure(monkeypatch, capsys):
    double_every_image(monkeypatch)
    rc, out, err = run_out(capsys, "verify", "xflow", "--kn", "2,5")
    assert (rc, err) == (1, "")
    assert out == "FAIL xflow: rect:2,5: mutation at 13 disagrees with flows at I=12\n"


MUTATION_COMMANDS = [
    ["verify", "xflow", "--kn", "3,6"],
    ["xcheck", "rect:3,6", "--mutations", "124,145"],
]


@pytest.mark.parametrize("argv", MUTATION_COMMANDS)
def test_one_x_mutation_step_per_quiver_and_vertex(monkeypatch, capsys, argv):
    # every boundary value of one move shares one built step
    real = charts.XStep
    builds = []

    def counted(model, j, moved):
        builds.append((model, j))
        return real(model, j, moved)

    monkeypatch.setattr(charts, "XStep", counted)
    rc, out, _ = run_out(capsys, *argv)
    assert rc == 0
    # xcheck prints one line per move, xflow lists its moves in brackets
    if argv[0] == "xcheck":
        moves = out.count("PASS xcheck")
    else:
        moves = len(out.split("[")[1].split(","))
    assert len(builds) == moves > 1
    assert all(not (m1 is m2 and j1 == j2)
               for n, (m1, j1) in enumerate(builds) for m2, j2 in builds[:n])


@pytest.mark.parametrize("argv", MUTATION_COMMANDS)
def test_mutation_commands_leave_no_reference_cycle(monkeypatch, capsys, argv):
    # the models, their quivers and the built steps are freed by reference
    # counting once the command returns: no cycle through a memo
    refs = []

    def watched(build):
        def call(*args):
            out = build(*args)
            for obj in (out, getattr(out, "quiver", None)):
                if obj is not None:
                    refs.append((type(obj).__name__, weakref.ref(obj)))
            return out
        return call

    for module, name in ((plabic, "build_rectangles_model"), (plabic, "square_move"),
                         (seeds, "seed_of_model"), (charts, "XStep")):
        monkeypatch.setattr(module, name, watched(getattr(module, name)))
    gc.collect()
    gc.disable()
    try:
        rc, _out, _ = run_out(capsys, *argv)
        assert rc == 0
        assert {kind for kind, _ in refs} == {
            "PlabicModel", "Seed", "Quiver", "XStep"}
        assert [kind for kind, ref in refs if ref() is not None] == []
    finally:
        gc.enable()


# ------------------------------------------------- forced failures per suite
# Each patches one kernel the suite calls and pins the FAIL line and exit 1.


def test_valuation_kappa_mismatch_is_verification_failure(monkeypatch, capsys):
    # the packed least weight with its first field, face 13's, one larger
    real = charts.flow_least
    monkeypatch.setattr(charts, "flow_least", lambda model, I: real(model, I) + 1)
    rc, out, err = run_out(capsys, "verify", "valuation-kappa", "--kn", "2,4")
    assert (rc, err) == (1, "")
    assert out == (
        "FAIL valuation-kappa: rect:2,4: I=12 valuation "
        "{'13': 2, '14': 1, '23': 1, '34': 2} != kappa "
        "{'13': 1, '14': 1, '23': 1, '34': 2}\n"
    )


def test_trop_a_mismatch_is_verification_failure(monkeypatch, capsys):
    # the κ table is carried by the column form of tropical A-mutation;
    # leaving column j as it is fails at the first subset it moves
    monkeypatch.setattr(seeds, "trop_a_column", lambda q, j, columns: list(columns[j]))
    rc, out, err = run_out(capsys, "verify", "trop-a", "--kn", "2,4")
    assert (rc, err) == (1, "")
    assert out == (
        "FAIL trop-a: rect:2,4 at 13, I=13: "
        "{'12': 0, '13': 0, '14': 1, '23': 1, '34': 1} != "
        "{'12': 0, '14': 1, '23': 1, '13': 1, '34': 1}\n"
    )


def test_trop_a_compares_every_vector_when_a_kept_label_changed(monkeypatch, capsys):
    # the table check carries column j alone, since the other labels are
    # the parent's; a new seed that changes one of them (14 -> 35 here) is
    # compared vector by vector, and the first subset names it
    real = seeds.mutate_labels

    def relabelled(s, j):
        child = real(s, j)
        return seeds.Seed(child.k, child.n, child.quiver, {**child.labels, "14": (3, 5)})

    monkeypatch.setattr(seeds, "mutate_labels", relabelled)
    rc, out, err = run_out(capsys, "verify", "trop-a", "--kn", "2,5")
    assert (rc, err) == (1, "")
    assert out == (
        "FAIL trop-a: rect:2,5 at 13, I=12: "
        "{'12': 0, '13': 1, '14': 1, '15': 1, '23': 1, '34': 2, '45': 2} != "
        "{'12': 0, '14': 2, '15': 1, '23': 1, '13': 1, '34': 2, '45': 2}\n"
    )


def one_arrow_doubled(monkeypatch):
    """Matrix mutation at j doubles the first arrow it gives at j."""
    real = seeds._fz_counts

    def doubled(q, j):
        counts, others = real(q, j)
        counts[next(pair for pair in counts if j in pair)] = 2
        return counts, others

    monkeypatch.setattr(seeds, "_fz_counts", doubled)


TROP_A_DOUBLED = (
    "FAIL trop-a: rect:3,6 at 125: double mutation moved "
    "{'123': 0, '124': -2, '125': 3, '126': -3, '134': -1, '145': -3, "
    "'156': -4, '234': 4, '345': -1, '456': 3}")
# the doubled arrow leaves the exchanged vertex with three arrows one way,
# where the potential cannot mutate back
TROP_A_NO_WAY_BACK = (
    "FAIL trop-a: rect:3,6 at 124: the potential cannot mutate back at 135: "
    "vertex 135 has 3 in-arrows and 2 out-arrows")


def test_trop_a_involution_fails_on_a_wrong_mutated_quiver(monkeypatch, capsys):
    # one arrow at j of the mutated quiver doubled: mutating there and back
    # on the parent's quiver still gives every vector back, but mutating
    # back at j2 on the mutated seed's quiver does not.  The potential's way
    # back meets the fault first; with it set aside, the involution does
    one_arrow_doubled(monkeypatch)
    rc, out, err = run_out(capsys, "verify", "trop-a", "--kn", "3,6")
    assert (rc, err, out) == (1, "", TROP_A_NO_WAY_BACK + "\n")
    monkeypatch.setattr(superpot, "a_mutate_w", lambda s, W, j: W)
    rc, out, err = run_out(capsys, "verify", "trop-a", "--kn", "3,6")
    assert (rc, err) == (1, "")
    assert out == TROP_A_DOUBLED + "\n"


def test_beta_unbalanced_names_its_first_row(monkeypatch):
    # the doubled arrow at 124 of rect:3,6 leaves row 123 of beta summing to
    # 1, the first row in vertex order that does not sum to 0
    one_arrow_doubled(monkeypatch)
    s = seeds.mutate_labels(seeds.rectangles_seed(3, 6), "124")
    with pytest.raises(plabic.ModelInvariantError) as err:
        seeds.beta_columns(s)
    assert str(err.value) == (
        "beta-unbalanced: beta row 123 sums to 1, not 0: all-ones vector not "
        "annihilated; seed outside the supported class")


def test_a_fault_fails_the_suites_that_meet_it_and_the_rest_run(monkeypatch, capsys):
    # the doubled arrow breaks the square move's quiver check on the first
    # move, which fails both move suites, and exact-seq's beta check on the
    # first seed mutation; each is a FAIL line naming the instance, the step
    # and the violation, and the suites it does not reach still pass
    one_arrow_doubled(monkeypatch)
    rc, out, err = run_out(capsys, "verify", "all", "--kn", "3,6")
    assert (rc, err) == (1, "")
    moved = ("rect:3,6 at the move after []: invariant violation: quiver-fz-mismatch: "
             "moving 124: arrows differ at [('123', '124', 1), ('123', '124', 2)]")
    lines = out.splitlines()
    assert lines[:4] == [
        "PASS plucker: rect:3,6 all three-term relations, both charts",
        f"FAIL valuation-kappa: {moved}",
        f"FAIL xflow: {moved}",
        TROP_A_NO_WAY_BACK,
    ]
    assert lines[4].startswith(
        "FAIL exact-seq: rect:3,6 after mutation at 124: invariant violation: "
        "beta-unbalanced: ")
    assert [line.split(":")[0] for line in lines[5:]] == [
        "PASS gt-trop", "PASS wformula", "PASS weyl-count"]
    # the records carry the same details
    records = [line.split(": ", 1) for line in lines]
    rc, out, _ = run_out(capsys, "verify", "all", "--kn", "3,6", "--format", "json")
    assert rc == 1
    assert [json.loads(line) for line in out.splitlines()] == [
        {"suite": head.split()[1], "instance": "rect:3,6", "ok": head.startswith("PASS"),
         "detail": detail} for head, detail in records]
    rc, out, _ = run_out(capsys, "verify", "all", "--kn", "3,6", "--format", "csv")
    assert rc == 1
    assert list(csv.reader(io.StringIO(out)))[1:] == [
        [head.split()[1], "rect:3,6", str(int(head.startswith("PASS"))), detail]
        for head, detail in records]


@pytest.mark.parametrize("kn,vertices", [("3,6", 4), ("4,8", 9)])
def test_verify_all_makes_each_seed_mutation_once(monkeypatch, capsys, kn, vertices):
    # trop-a and exact-seq check every seed mutation on one walk: one
    # mutate_labels call per mutable vertex of the seed, refused or not
    calls = []
    real = seeds.mutate_labels

    def counted(s, j):
        calls.append(j)
        return real(s, j)

    monkeypatch.setattr(seeds, "mutate_labels", counted)
    rc, _out, _ = run_out(capsys, "verify", "all", "--kn", kn)
    assert rc == 0
    assert len(calls) == len(set(calls)) == vertices


@pytest.mark.parametrize("suite", ["trop-a", "exact-seq", "all"])
def test_verify_keeps_no_mutated_seed_past_its_checks(monkeypatch, capsys, suite):
    # when a seed mutation is made, every seed mutated before it is gone
    made, alive = [], []
    real = seeds.mutate_labels

    def recorded(s, j):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        mutated = real(s, j)
        made.append(weakref.ref(mutated))
        return mutated

    monkeypatch.setattr(seeds, "mutate_labels", recorded)
    assert cli.main(["verify", suite, "--kn", "3,6"]) == 0
    capsys.readouterr()
    # four vertices are tried and three mutate
    assert len(made) == 3
    assert alive == [0, 0, 0, 0]


def test_a_fault_in_a_seed_suite_names_its_mutation(monkeypatch, capsys):
    def broken(q, j, columns):
        raise ValueError("forced fault")

    monkeypatch.setattr(seeds, "trop_a_column", broken)
    rc, out, err = run_out(capsys, "verify", "trop-a", "--kn", "2,4")
    assert (rc, err) == (1, "")
    assert out == "FAIL trop-a: rect:2,4 after mutation at 13: internal error: forced fault\n"


def test_a_fault_making_a_seed_mutation_fails_both_seed_suites(monkeypatch, capsys):
    # the second seed mutation raises: both seed suites fail, naming the
    # mutation made before it, and the suites off their walk still pass
    calls = []
    real = seeds.mutate_labels

    def second_fails(s, j):
        calls.append(j)
        if len(calls) == 2:
            raise plabic.ModelInvariantError("forced-fault", f"mutating {j}")
        return real(s, j)

    monkeypatch.setattr(seeds, "mutate_labels", second_fails)
    rc, out, err = run_out(capsys, "verify", "all", "--kn", "3,6")
    assert (rc, err) == (1, "")
    bad = ("rect:3,6 at the mutation after [124]: invariant violation: "
           "forced-fault: mutating 125")
    assert out.splitlines() == [
        "PASS plucker: rect:3,6 all three-term relations, both charts",
        "PASS valuation-kappa: rect:3,6 base and after moves [124,125,134]",
        "PASS xflow: rect:3,6 flow/mutation agree at [124,125,134]",
        f"FAIL trop-a: {bad}",
        f"FAIL exact-seq: {bad}",
        "PASS gt-trop: rect:3,6 tropicalized potential equals the pattern cone",
        "PASS wformula: rect:3,6 boundary-module expansion equals the potential",
        "PASS weyl-count: rect:3,6 point counts match dimensions for levels 0..2",
    ]


def test_gt_trop_mismatch_is_verification_failure(monkeypatch, capsys):
    real = cones.gt_inequalities

    def first_dropped(k, n):
        c = real(k, n)
        return cones.Cone(c.ambient, c.ineqs[1:])

    monkeypatch.setattr(cones, "gt_inequalities", first_dropped)
    rc, out, err = run_out(capsys, "verify", "gt-trop", "--kn", "2,4")
    assert (rc, err) == (1, "")
    assert out == "FAIL gt-trop: rect:2,4: tropical cone differs from inequality cone\n"


def test_wformula_mismatch_is_verification_failure(monkeypatch, capsys):
    real = superpot.wformula_sides

    def doubled_rhs(k, n):
        lhs, rhs = real(k, n)
        return lhs, lp_add(rhs, rhs)

    monkeypatch.setattr(superpot, "wformula_sides", doubled_rhs)
    rc, out, err = run_out(capsys, "verify", "wformula", "--kn", "2,4")
    assert (rc, err) == (1, "")
    # the first monomial in term order, not the two whole polynomials
    assert out == ("FAIL wformula: rect:2,4: coefficient of p13^-1*p14^-1*p34 "
                   "is 1 in the expansion, 2 in the potential\n")


def test_weyl_count_mismatch_is_verification_failure(monkeypatch, capsys):
    real = cones.weyl_dim
    monkeypatch.setattr(cones, "weyl_dim", lambda k, n, r: real(k, n, r) + (r == 1))
    rc, out, err = run_out(capsys, "verify", "weyl-count", "--kn", "2,4")
    assert (rc, err) == (1, "")
    assert out == "FAIL weyl-count: rect:2,4 level 1: 6 points != dimension 7\n"


def test_weyl_count_names_two_subsets_that_share_a_kappa_point(monkeypatch, capsys):
    # 12 takes the kappa point of 13, and the listing drops the point of 12,
    # the slice's last: the two sets agree, but the table holds 5 points for
    # the 6 2-subsets of [4]
    real_points, real_body = cones.lattice_points, cones.no_body_level1

    def shared(s, subsets):
        points = real_body(s, subsets)
        points[0] = points[1]
        return points

    monkeypatch.setattr(cones, "lattice_points", lambda c, r: real_points(c, r)[:-1])
    monkeypatch.setattr(cones, "no_body_level1", shared)
    cones.kappa_table.cache_clear()
    try:
        rc, out, err = run_out(capsys, "verify", "weyl-count", "--kn", "2,4", "--level", "1")
    finally:
        cones.kappa_table.cache_clear()
    assert (rc, err) == (1, "")
    assert out == ("FAIL weyl-count: rect:2,4 level 1: 5 kappa points for 6 "
                   "k-subsets: two share a point\n")


# ------------------------------------------- verify and xcheck as records


@pytest.mark.parametrize("argv,records", [
    (("verify", "trop-a", "--kn", "2,5", "--kn", "2,4"),
     [("trop-a", "rect:2,5", "rect:2,5 kappa-compatibility and involution"),
      ("trop-a", "rect:2,4", "rect:2,4 kappa-compatibility and involution")]),
    (("xcheck", "rect:3,6", "--mutations", "124,145"),
     [("xcheck", "rect:3,6", "124 (20 boundary values)"),
      ("xcheck", "rect:3,6 after 124", "145 (20 boundary values)")]),
], ids=["verify", "xcheck"])
def test_verify_and_xcheck_print_one_record_per_line(capsys, argv, records):
    rc, pretty, _ = run_out(capsys, *argv)
    assert rc == 0
    assert len(pretty.splitlines()) == len(records)
    rc, out, _ = run_out(capsys, *argv, "--format", "json")
    assert rc == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"suite": s, "instance": i, "ok": True, "detail": d} for s, i, d in records]
    rc, out, _ = run_out(capsys, *argv, "--format", "csv")
    assert rc == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["suite", "instance", "ok", "detail"]] + [[s, i, "1", d] for s, i, d in records]


def test_a_fail_record_carries_the_witness(monkeypatch, capsys):
    double_every_image(monkeypatch)
    rc, out, err = run_out(capsys, "verify", "xflow", "--kn", "2,5", "--format", "json")
    assert (rc, err) == (1, "")
    assert json.loads(out) == {
        "suite": "xflow", "instance": "rect:2,5", "ok": False,
        "detail": "rect:2,5: mutation at 13 disagrees with flows at I=12"}
    rc, out, err = run_out(capsys, "xcheck", "rect:2,5", "--mutations", "13",
                           "--format", "csv")
    assert (rc, err) == (1, "")
    assert out == ("suite,instance,ok,detail\n"
                   'xcheck,"rect:2,5",0,13: mutation at 13 disagrees with flows at I=12\n')


def test_a_refused_xcheck_prints_no_csv_header(capsys):
    rc, out, err = run_out(capsys, "xcheck", "rect:2,4", "--mutations", "99",
                           "--format", "csv")
    assert (rc, out) == (2, "")
    assert "no face named '99'" in err
