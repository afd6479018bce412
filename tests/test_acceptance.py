"""End-to-end acceptance checks.

Each test states one headline guarantee of the package and enforces both
exactness and a wall-clock budget.  Every quantity is computed along two
independent paths (combinatorial enumeration vs. algebraic identity) and
compared exactly; nothing here is allowed to be approximate.
"""

import contextlib
import io
import random
import time

from plabicflow import cli
from plabicflow.combinat import ksubsets
from plabicflow.charts import (
    XStep,
    flow_counts,
    partition_function,
    plucker_verify,
    three_term_relations,
    valuation,
    x_mutate,
)
from plabicflow.cones import (
    GTPattern,
    cone_contains,
    cone_from_tropical,
    gt_decompose,
    gt_inequalities,
    grid_label,
    lattice_points,
    weyl_dim,
)
from plabicflow.plabic import (
    build_rectangles_model,
    positroid,
    shark_model,
    square_moves,
)
from plabicflow.seeds import (
    exact_sequence_checks,
    kappa_vector,
    mutable_vertices,
    mutate_labels,
    rectangles_seed,
    seed_of_model,
    trop_a_mutate,
)
from plabicflow.superpot import verify_wformula, w_rectangles


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def kappa_point(s, I):
    star = s.quiver.star
    return {v: c for v, c in kappa_vector(s, I).items() if v != star}


def test_criterion_01_shark_flows_and_partitions():
    t0 = time.perf_counter()
    rc, out = run_cli("flow", "shark", "25")
    assert rc == 0 and out == "y34*(1+y24)\n"
    rc, out = run_cli("partition", "shark", "45")
    assert rc == 0 and out == "0\n"
    p35 = partition_function(shark_model(), (3, 5))
    assert len(p35.terms) == 1 and p35.terms[0][1] == 1
    exp = dict(zip(p35.lattice, p35.terms[0][0]))
    assert {e for e, c in exp.items() if c} == {"B1B5", "E2", "E3", "E5"}
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_valuation_equals_kappa():
    t0 = time.perf_counter()
    for k, n in [(2, 5), (2, 6), (3, 6), (4, 8)]:
        base = build_rectangles_model(k, n)
        seeds_and_models = [(seed_of_model(base), base)]
        for _j, moved in square_moves(base):
            seeds_and_models.append((seed_of_model(moved), moved))
        assert len(seeds_and_models) >= 2
        for s, model in seeds_and_models:
            star = s.quiver.star
            for I in ksubsets(n, k):
                val = valuation(model, I)
                kap = kappa_point(s, I)
                assert val == kap, (k, n, I)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_kappa_grid_49():
    t0 = time.perf_counter()
    s = rectangles_seed(4, 9)
    star = s.quiver.star
    assert star == "1234"
    kv = kappa_vector(s, (1, 4, 5, 7))
    assert kv[star] == 0
    assert kv[grid_label(4, 9, 1, 1)] == 0 and grid_label(4, 9, 1, 1) == "1235"
    assert kv[grid_label(4, 9, 4, 5)] == 3 and grid_label(4, 9, 4, 5) == "6789"
    cone = gt_inequalities(4, 9)
    assert cone_contains(cone, (1, *kappa_point(s, (1, 4, 5, 7)).values()))
    seen = set()
    for I in ksubsets(9, 4):
        key = tuple(sorted(kappa_vector(s, I).items()))
        assert key not in seen
        seen.add(key)
    assert len(seen) == 126
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_x_mutation_matches_flows():
    t0 = time.perf_counter()
    expected_moves = {(2, 4): 1, (2, 5): 2, (3, 6): 3, (4, 8): 5}
    for (k, n), want in expected_moves.items():
        model = build_rectangles_model(k, n)
        moves = list(square_moves(model))
        assert len(moves) == want
        for j, moved in moves:
            step = XStep(model, j, moved)
            for I in positroid(model):
                image = x_mutate(step, flow_counts(moved, I))
                assert image == flow_counts(model, I), (k, n, j, I)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_tropical_mutation_of_kappa():
    t0 = time.perf_counter()
    instances = [(2, 4), (2, 5), (3, 6), (4, 8)]
    checked_pairs = 0
    for k, n in instances:
        s = rectangles_seed(k, n)
        model = build_rectangles_model(k, n)
        for j, _m in square_moves(model):
            s2 = mutate_labels(s, j)
            (j2,) = set(s2.labels) - set(s.labels)
            for I in ksubsets(n, k):
                moved = trop_a_mutate(s.quiver, j, kappa_vector(s, I))
                want = {
                    (j if a == j2 else a): b
                    for a, b in kappa_vector(s2, I).items()
                }
                assert moved == want, (k, n, j, I)
            checked_pairs += 1
    assert checked_pairs == 11
    # the piecewise-linear map is an involution
    rng = random.Random(0)
    count = 0
    while count < 1000:
        for k, n in instances:
            s = rectangles_seed(k, n)
            for j in mutable_vertices(s.quiver):
                v = {x: rng.randint(-10, 10) for x in s.quiver.vertices}
                assert trop_a_mutate(s.quiver, j, trop_a_mutate(s.quiver, j, v)) == v
                count += 1
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_pattern_cone_is_tropicalized_potential():
    t0 = time.perf_counter()
    for k, n in [(2, 4), (2, 5), (3, 6), (3, 7)]:
        star = rectangles_seed(k, n).quiver.star
        cw = cone_from_tropical(w_rectangles(k, n).poly, star)
        assert cw == gt_inequalities(k, n), (k, n)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_07_lattice_point_counts():
    t0 = time.perf_counter()
    for k, n, rmax in [(2, 4, 3), (2, 5, 2), (3, 6, 1)]:
        cone = gt_inequalities(k, n)
        for r in range(rmax + 1):
            assert len(lattice_points(cone, r)) == weyl_dim(k, n, r), (k, n, r)
    # the oracle itself is the hook-content product
    assert [weyl_dim(2, 4, r) for r in (1, 2, 3)] == [6, 20, 50]
    assert [weyl_dim(2, 5, r) for r in (1, 2)] == [10, 50]
    assert weyl_dim(3, 6, 1) == 20
    assert time.perf_counter() - t0 < 30.0


def test_criterion_08_decomposition_roundtrip():
    t0 = time.perf_counter()
    for k, n in [(2, 4), (2, 5)]:
        s = rectangles_seed(k, n)
        cone = gt_inequalities(k, n)
        for r in (1, 2):
            for p in lattice_points(cone, r):
                pat = dict(zip(cone.ambient[1:], p[1:]))
                parts = gt_decompose(GTPattern(k, n, r, pat))
                assert len(parts) == r
                total = {lab: 0 for lab in pat}
                for I in parts:
                    for lab, v in kappa_point(s, I).items():
                        total[lab] += v
                assert total == pat, (k, n, r, p)
                assert gt_decompose(GTPattern(k, n, r, pat)) == parts
    assert time.perf_counter() - t0 < 10.0


def test_criterion_09_boundary_module_expansion():
    t0 = time.perf_counter()
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        assert verify_wformula(k, n), (k, n)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_plucker_relations():
    t0 = time.perf_counter()
    models = [
        (2, 4, build_rectangles_model(2, 4)),
        (2, 5, build_rectangles_model(2, 5)),
        (2, 5, shark_model()),
        (4, 8, build_rectangles_model(4, 8)),
    ]
    for k, n, model in models:
        for rel in three_term_relations(k, n):
            assert plucker_verify(model, rel), (k, n, rel)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_11_exact_sequence_identities():
    t0 = time.perf_counter()
    tested = []
    for k, n in [(1, 2), (2, 4), (2, 5), (2, 6), (3, 6), (4, 9), (5, 10)]:
        tested.append(rectangles_seed(k, n))
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        model = build_rectangles_model(k, n)
        s = seed_of_model(model)
        for j, moved in square_moves(model):
            tested.append(mutate_labels(s, j))
            tested.append(seed_of_model(moved))
    assert len(tested) == 19
    for s in tested:
        assert exact_sequence_checks(s)
    assert time.perf_counter() - t0 < 1.0
