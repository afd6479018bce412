"""One label order at every n: subset order, never the order of names.

For n <= 9 every face name is a k-digit string and the two orders agree,
so these checks only bite from n = 10 on, where "1,10" sorts before "1,3"
as a string but after it as a subset.
"""

import csv
import io
import json
import random

import pytest

from plabicflow import cli
from plabicflow.charts import XStep, face_lattice, flow_counts, x_mutate
from plabicflow.combinat import ksubsets, parse_ksubset
from plabicflow.cones import GTPattern, gt_ambient, gt_decompose
from plabicflow.plabic import (
    NotPlabicMutable,
    build_rectangles_model,
    positroid,
    square_move,
)
from plabicflow.seeds import (
    kappa_vector,
    mutable_vertices,
    mutate_labels,
    rectangles_seed,
    seed_of_model,
)
from plabicflow.superpot import a_mutate_w, w_rectangles, w_x_rectangles

LARGE = [(2, 10), (3, 10), (3, 11), (4, 11)]


def assert_subset_order(names, n):
    subsets = [parse_ksubset(x, n) for x in names]
    assert subsets == sorted(subsets), names


def run_out(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _check_quiver(q, n):
    assert_subset_order(q.vertices, n)
    assert_subset_order(mutable_vertices(q), n)
    pos = {v: i for i, v in enumerate(q.vertices)}
    keys = [(pos[u], pos[v]) for u, v, _m in q.arrows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("k,n", LARGE)
def test_quiver_vertices_in_subset_order(k, n):
    q = seed_of_model(build_rectangles_model(k, n)).quiver
    _check_quiver(q, n)
    assert_subset_order(face_lattice(build_rectangles_model(k, n)), n)


def test_move_order_at_3_11_starts_with_the_smallest_subset():
    q = seed_of_model(build_rectangles_model(3, 11)).quiver
    assert mutable_vertices(q)[:2] == ["1,2,4", "1,2,5"]


@pytest.mark.parametrize("k,n", [(2, 10), (3, 11)])
def test_seed_mutation_keeps_subset_order(k, n):
    rng = random.Random(k * 100 + n)
    s = rectangles_seed(k, n)
    W = w_rectangles(k, n)
    done = 0
    while done < 6:
        j = rng.choice(mutable_vertices(s.quiver))
        try:
            s2 = mutate_labels(s, j)
        except NotPlabicMutable:
            continue
        W = a_mutate_w(s, W, j)
        s = s2
        done += 1
        _check_quiver(s.quiver, n)
        assert W.poly.lattice == ("q",) + s.quiver.vertices


@pytest.mark.parametrize("k,n", [(2, 10), (3, 10)])
def test_x_mutate_lattice_along_square_move_orbit(k, n):
    rng = random.Random(n)
    cur = build_rectangles_model(k, n)
    moves = 0
    while moves < 3:
        s = seed_of_model(cur)
        j = rng.choice(mutable_vertices(s.quiver))
        try:
            moved = square_move(cur, s.labels[j])
        except NotPlabicMutable:
            continue
        lattice = face_lattice(cur)
        assert_subset_order(lattice, n)
        # the step reads and moves columns by their place in the lattice
        step = XStep(cur, j, moved)
        for I in (positroid(cur)[0], positroid(cur)[-1]):
            assert x_mutate(step, flow_counts(moved, I)) == flow_counts(cur, I)
        cur = moved
        moves += 1


@pytest.mark.parametrize("k,n", [(2, 10), (3, 10), (3, 11)])
def test_potential_and_cone_lattices_in_subset_order(k, n):
    W = w_rectangles(k, n).poly
    assert W.lattice[0] == "q"
    assert_subset_order(W.lattice[1:], n)
    assert_subset_order(w_x_rectangles(k, n).poly.lattice, n)
    amb = gt_ambient(k, n)
    assert amb[0] == "r"
    assert_subset_order(amb[1:], n)


@pytest.mark.parametrize("k,n", [(2, 10), (3, 10)])
def test_gt_decompose_peels_kappa_points(k, n):
    # kappa_table keys come from the seed's vertex order, the peeled keys
    # from gt_ambient: both must be subset order for the lookup to hit
    s = rectangles_seed(k, n)
    subsets = ksubsets(n, k)
    for I in subsets[:: max(1, len(subsets) // 12)] + [subsets[-1]]:
        point = {v: c for v, c in kappa_vector(s, I).items() if v != s.quiver.star}
        assert gt_decompose(GTPattern(k, n, 1, point)) == [I]


def _pretty_labels(out):
    return [pair.split("=")[0] for pair in out.split()]


@pytest.mark.parametrize("cmd", ["kappa", "valuation"])
def test_vector_rows_in_subset_order(capsys, cmd):
    rc, out, _ = run_out(capsys, cmd, "rect:2,10", "1,10")
    assert rc == 0
    assert_subset_order(_pretty_labels(out), 10)
    rc, out, _ = run_out(capsys, cmd, "rect:2,10", "1,10", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["label", "value"]
    assert_subset_order([r[0] for r in rows[1:]], 10)


def test_valuation_prints_in_lattice_order(capsys):
    # valuation takes no --order (test_cli::test_kappa_has_no_order_option):
    # its rows always follow the face lattice, at n <= 9 and at n >= 10
    for k, n, subset in [(3, 7, "146"), (3, 10, "1,4,6")]:
        lattice = face_lattice(build_rectangles_model(k, n))
        rc, out, _ = run_out(capsys, "valuation", f"rect:{k},{n}", subset)
        assert rc == 0
        assert _pretty_labels(out) == list(lattice)


def test_order_reads_comma_faces_beside_single_tokens(capsys):
    # at n >= 10 a lattice label without a comma (q here) stands alone and
    # every other token starts a face name of k tokens
    rc, plain, _ = run_out(capsys, "superpotential", "--kn", "2,10", "--format", "json")
    assert rc == 0
    faces = [lab for lab in json.loads(plain)["lattice"] if lab != "q"][::-1]
    order = faces[:3] + ["q"] + faces[3:]
    rc, out, _ = run_out(capsys, "superpotential", "--kn", "2,10",
                         "--format", "json", "--order", ",".join(order))
    assert rc == 0
    assert json.loads(out)["lattice"] == order
    faces = [str(j) for j in range(10, 1, -1)]  # k = 1: every face stands alone
    rc, flow, _ = run_out(capsys, "flow", "rect:1,10", "3", "--format", "json",
                          "--order", ",".join(faces))
    assert rc == 0
    assert json.loads(flow)["lattice"] == faces
    for bad in (",".join(order) + ",1", ",".join(order[1:])):
        rc, _out, err = run_out(capsys, "superpotential", "--kn", "2,10", "--order", bad)
        assert rc == 2 and "--order" in err


def test_no_body_and_mutate_rows_in_subset_order(capsys):
    for fmt in ("pretty", "csv"):
        rc, out, _ = run_out(capsys, "no-body", "rect:2,10", "--format", fmt)
        assert rc == 0
        header = next(csv.reader(io.StringIO(out)))
        assert_subset_order(header, 10)
    rc, out, _ = run_out(capsys, "mutate", "rect:2,10", "--format", "json")
    assert rc == 0
    assert_subset_order(json.loads(out)["frozen"], 10)


def test_xcheck_names_a_comma_face(capsys):
    rc, out, err = run_out(capsys, "xcheck", "rect:2,10", "--mutations", "1,3")
    assert (rc, err) == (0, "")
    assert out == "PASS xcheck 1,3 (45 boundary values)\n"


def test_mutate_names_a_comma_face(capsys):
    rc, out, _ = run_out(capsys, "mutate", "rect:2,10", "--mutations", "1,3")
    assert rc == 0
    lines = out.splitlines()
    assert "2,4: 2,4" in lines
    assert not any(line.startswith("1,3:") for line in lines)


def test_superpotential_names_a_comma_face(capsys):
    rc, out, _ = run_out(capsys, "superpotential", "--kn", "2,10",
                         "--mutations", "1,3", "--format", "json")
    assert rc == 0
    lattice = json.loads(out)["lattice"]
    assert "2,4" in lattice and "1,3" not in lattice
    assert_subset_order(lattice[1:], 10)


@pytest.mark.parametrize("cmd", [
    ("xcheck", "rect:2,10"),
    ("mutate", "rect:2,10"),
    ("superpotential", "--kn", "2,10"),
])
def test_mutation_count_must_be_a_multiple_of_k(capsys, cmd):
    rc, out, err = run_out(capsys, *cmd, "--mutations", "1,3,1")
    assert rc == 2
    assert out == ""
    assert "--mutations" in err


def test_verify_all_at_n_10_and_the_xflow_moves_read_back(capsys):
    rc, out, _ = run_out(capsys, "verify", "all", "--kn", "2,10", "--kn", "3,10")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert all(line.startswith("PASS ") for line in lines)
    # the printed move list is a --mutations argument read in groups of k
    (xflow,) = [x for x in lines if x.startswith("PASS xflow: rect:3,10")]
    moves = xflow.split("[")[1].rstrip("]").split(",")
    first_two = ",".join(moves[:6])
    rc, out, err = run_out(capsys, "xcheck", "rect:3,10", "--mutations", first_two)
    assert (rc, err) == (0, "")
    assert [line.split()[2] for line in out.splitlines()] == ["1,2,4", "1,2,5"]


def test_cheap_suites_at_5_10(capsys):
    for suite in ("trop-a", "gt-trop", "wformula", "weyl-count"):
        rc, out, _ = run_out(capsys, "verify", suite, "--kn", "5,10")
        assert rc == 0, out
        assert out.startswith(f"PASS {suite}: rect:5,10")
