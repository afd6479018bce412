import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from plabicflow.combinat import ksubsets
from plabicflow.cones import (
    GTPattern,
    Unbounded,
    _eliminate,
    body_membership_check,
    cone_contains,
    cone_to_json_obj,
    gt_ambient,
    gt_decompose,
    gt_inequalities,
    grid_label,
    kappa_table,
    lattice_points,
    level1_slice_check,
    make_cone,
    no_body_level1,
    weyl_dim,
)
from plabicflow.seeds import kappa_vector, rectangles_seed


def _kappa_point(s, I):
    star = s.quiver.star
    return {v: c for v, c in kappa_vector(s, I).items() if v != star}


def _pattern(c, p):
    """The GT pattern of a lattice point (a tuple over ``c.ambient``)."""
    return dict(zip(c.ambient[1:], p[1:]))


def test_grid_labels_and_ambient():
    assert grid_label(2, 4, 1, 1) == "13"
    assert grid_label(2, 4, 2, 2) == "34"
    assert gt_ambient(2, 4) == ("r", "13", "14", "23", "34")
    assert gt_ambient(3, 6) == (
        "r", "124", "125", "126", "134", "145", "156", "234", "345", "456",
    )


GT24_JSON = {
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


def test_gt_cone_24_pinned():
    c = gt_inequalities(2, 4)
    assert cone_to_json_obj(c) == GT24_JSON


def test_gt_cone_sizes():
    # 2 + (k-1)(n-k) + k(n-k-1) inequalities
    for k, n, count in [(2, 4, 6), (2, 5, 9), (3, 6, 14), (3, 7, 19)]:
        c = gt_inequalities(k, n)
        assert len(c.ineqs) == count
        assert len(c.ambient) == 1 + k * (n - k)


def test_cone_contains():
    c = gt_inequalities(2, 4)
    s = rectangles_seed(2, 4)
    for I in ksubsets(4, 2):
        assert cone_contains(c, (1, *_kappa_point(s, I).values()))
    # points are over ("r", "13", "14", "23", "34")
    assert not cone_contains(c, (1, -1, 0, 0, 0))
    # level bound: 34-entry at most r more than 13-entry
    assert not cone_contains(c, (1, 0, 1, 1, 2))


def test_cone_contains_rejects_a_point_of_the_wrong_length():
    c = gt_inequalities(2, 4)
    for point in [(1, 0, 0, 0), (1, 0, 0, 0, 0, 0), ()]:
        with pytest.raises(ValueError):
            cone_contains(c, point)


def test_lattice_point_counts_match_dimension_formula():
    for k, n, rmax in [(2, 4, 3), (2, 5, 2)]:
        c = gt_inequalities(k, n)
        for r in range(rmax + 1):
            assert len(lattice_points(c, r)) == weyl_dim(k, n, r)


def test_weyl_dim_values():
    assert [weyl_dim(2, 4, r) for r in range(4)] == [1, 6, 20, 50]
    assert [weyl_dim(2, 5, r) for r in range(3)] == [1, 10, 50]
    assert weyl_dim(3, 6, 1) == 20
    with pytest.raises(ValueError):
        weyl_dim(2, 4, -1)


def test_lattice_points_level_zero_is_origin():
    c = gt_inequalities(2, 4)
    assert lattice_points(c, 0) == [(0, 0, 0, 0, 0)]


def test_lattice_points_unbounded():
    c = make_cone(("r", "x"), [{"x": 1}])
    with pytest.raises(Unbounded):
        lattice_points(c, 1)


def dense_lattice_points(c, r):
    """Reference enumerator: each coordinate's range re-sums the dense
    coefficient prefix of every row of its projection."""
    vars_ = list(c.ambient[1:])
    nv = len(vars_)
    if any(cov[0] * r < 0 and not any(cov[1:]) for cov in c.ineqs):
        return []
    systems = [[(cov[0] * r, tuple(cov[1:])) for cov in c.ineqs]]
    for d in range(nv - 1, 0, -1):
        nxt = _eliminate(systems[-1], d)
        if nxt is None:
            return []
        systems.append(nxt)
    systems.reverse()

    points = []
    assignment = [0] * nv

    def feasible_range(depth):
        lo, hi = None, None
        for const, coeffs in systems[depth]:
            a = coeffs[depth]
            if a == 0:
                continue
            partial = const + sum(
                coeffs[i] * assignment[i] for i in range(depth) if coeffs[i]
            )
            if a > 0:
                bound = -(partial // a)
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = partial // (-a)
                hi = bound if hi is None else min(hi, bound)
        return lo, hi

    def rec(depth):
        if depth == nv:
            points.append((r, *assignment))
            return
        lo, hi = feasible_range(depth)
        if lo is None or hi is None:
            raise Unbounded(f"coordinate {vars_[depth]} unbounded at level {r}")
        for val in range(lo, hi + 1):
            assignment[depth] = val
            rec(depth + 1)

    rec(0)
    return points


def _outcome(enumerate_, c, r):
    """The points, order kept, or the error raised."""
    try:
        return list(enumerate_(c, r))
    except Unbounded as exc:
        return ("Unbounded", str(exc))


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (3, 6), (3, 7)])
def test_lattice_points_equal_dense_on_gt_cones(k, n):
    c = gt_inequalities(k, n)
    for r in range(4):
        got = _outcome(lattice_points, c, r)
        assert got == _outcome(dense_lattice_points, c, r)
        assert len(got) == weyl_dim(k, n, r)


@pytest.mark.parametrize("k,n,r", [(2, 4, 3), (2, 5, 2), (3, 6, 2), (3, 7, 2),
                                   (4, 8, 2), (4, 8, 3)])
def test_lattice_points_come_sorted_without_repeats(k, n, r):
    # `gt-cone --level` prints the points in the order they are enumerated
    c = gt_inequalities(k, n)
    rows = lattice_points(c, r)
    assert rows == sorted(set(rows))
    assert len(rows) == weyl_dim(k, n, r)


def test_lattice_points_edge_cases_equal_dense():
    # infeasible: eliminating y meets y >= r and y <= 0 at r = 1
    infeasible = make_cone(("r", "x", "y"), [
        {"x": 1}, {"x": -1, "r": 1}, {"y": 1, "r": -1}, {"y": -1}])
    # x is bounded, y has no upper row once reached
    unbounded = make_cone(("r", "x", "y"), [{"x": 1}, {"x": -1, "r": 1}, {"y": 1}])
    # x has an empty range, so the unbounded y is never reached
    unreached = make_cone(("r", "x", "y"), [{"x": 1, "r": -2}, {"x": -1, "r": 1}, {"y": 1}])
    empty = make_cone(("r",), [{"r": 1}])
    cases = [(infeasible, 1, []), (unbounded, 1, ("Unbounded", "coordinate y unbounded at level 1")),
             (unreached, 1, []), (empty, 1, [(1,)]), (empty, 0, [(0,)])]
    for c, r, want in cases:
        assert _outcome(lattice_points, c, r) == want
        assert _outcome(dense_lattice_points, c, r) == want


def test_lattice_points_honour_level_only_rows_at_every_size():
    # r <= 0 empties the slice at r = 1 whatever the number of coordinates
    one = make_cone(("r", "x"), [{"x": 1}, {"x": -1, "r": 1}, {"r": -1}])
    two = make_cone(("r", "x", "y"), [
        {"x": 1}, {"x": -1, "r": 1}, {"y": 1}, {"y": -1, "r": 1}, {"r": -1}])
    none = make_cone(("r",), [{"r": -1}])
    for c in (one, two, none):
        assert lattice_points(c, 1) == []
        assert dense_lattice_points(c, 1) == []
    assert lattice_points(one, 0) == [(0, 0)]
    assert lattice_points(two, 0) == [(0, 0, 0)]
    assert lattice_points(none, 0) == [(0,)]
    assert dense_lattice_points(none, 0) == [(0,)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(-2, 2), min_size=m + 1, max_size=m + 1), max_size=7),
    st.integers(0, 3),
    st.booleans(),
)))
def test_lattice_points_equal_dense_on_small_cones(args):
    m, covs, r, boxed = args
    ambient = ("r",) + tuple(f"x{i}" for i in range(m))
    if boxed:  # |x_i| <= r: mostly bounded slices with many points
        for i in range(1, m + 1):
            for sign in (1, -1):
                cov = [0] * (m + 1)
                cov[0], cov[i] = 1, sign
                covs = covs + [cov]
    c = make_cone(ambient, covs)
    assert _outcome(lattice_points, c, r) == _outcome(dense_lattice_points, c, r)


def test_kappa_table_injective():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        table = kappa_table(k, n)
        assert len(table) == len(list(ksubsets(n, k)))
        assert sorted(table.values()) == sorted(ksubsets(n, k))


def test_gt_decompose_kappa_points():
    # the level-1 pattern of a subset decomposes as that subset alone
    s = rectangles_seed(2, 4)
    for I in ksubsets(4, 2):
        pat = GTPattern(2, 4, 1, _kappa_point(s, I))
        assert gt_decompose(pat) == [I]


def test_gt_decompose_zero_pattern():
    # the zero pattern is r copies of the base subset
    zero = {lab: 0 for lab in gt_ambient(2, 4)[1:]}
    assert gt_decompose(GTPattern(2, 4, 2, zero)) == [(3, 4), (3, 4)]


def test_gt_decompose_roundtrip_all_points():
    for k, n in [(2, 4), (2, 5)]:
        s = rectangles_seed(k, n)
        c = gt_inequalities(k, n)
        for r in (1, 2):
            for p in lattice_points(c, r):
                pat = _pattern(c, p)
                parts = gt_decompose(GTPattern(k, n, r, pat))
                assert len(parts) == r
                total = {lab: 0 for lab in pat}
                for I in parts:
                    for lab, v in _kappa_point(s, I).items():
                        total[lab] += v
                assert total == pat
                # peeling is canonical: a second run gives the same list
                assert gt_decompose(GTPattern(k, n, r, pat)) == parts


def test_gt_decompose_rejects_outside_points():
    with pytest.raises(ValueError):
        gt_decompose(GTPattern(2, 4, 1, {"13": -1, "14": 0, "23": 0, "34": 0}))
    # level too low for the pattern
    s = rectangles_seed(2, 4)
    pat = _kappa_point(s, (1, 2))
    doubled = {lab: 2 * v for lab, v in pat.items()}
    with pytest.raises(ValueError):
        gt_decompose(GTPattern(2, 4, 1, doubled))


def test_gt_decompose_rejects_missing_and_extra_labels():
    with pytest.raises(ValueError, match=r"missing \['14', '23', '34'\], extra \[\]"):
        gt_decompose(GTPattern(2, 4, 1, {"13": 0}))
    full = {lab: 0 for lab in gt_ambient(2, 4)[1:]}
    with pytest.raises(ValueError, match=r"missing \[\], extra \['99'\]"):
        gt_decompose(GTPattern(2, 4, 1, {**full, "99": 0}))


def test_no_body_level1_points():
    s = rectangles_seed(2, 4)
    pts = no_body_level1(s)
    assert len(pts) == 6
    assert (1, 0, 0, 0, 0) in pts
    c = gt_inequalities(2, 4)
    assert body_membership_check(pts, c)


def test_level1_slice_check():
    for k, n in [(2, 4), (2, 5)]:
        s = rectangles_seed(k, n)
        assert level1_slice_check(no_body_level1(s), gt_inequalities(k, n))


def test_level1_slice_check_fails_on_subset():
    # dropping a vertex of the slice breaks the facet certificates
    s = rectangles_seed(2, 4)
    pts = [p for p in no_body_level1(s) if any(p[1:])]
    assert not level1_slice_check(pts, gt_inequalities(2, 4))



@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8),
                                 (4, 9), (2, 10), (3, 10)])
def test_level1_kappa_points_are_the_level1_slice(k, n):
    # (2,10) and (3,10) order their labels as subsets, not as strings
    assert sorted(no_body_level1(rectangles_seed(k, n))) == lattice_points(
        gt_inequalities(k, n), 1)


def test_lattice_points_memory_per_point():
    c = gt_inequalities(4, 8)
    lattice_points(c, 1)  # builds the seed and the cone outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        points = lattice_points(c, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == weyl_dim(4, 8, 3)
    assert peak <= 256 * len(points), peak / len(points)
