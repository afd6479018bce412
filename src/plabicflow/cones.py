"""Gelfand-Tsetlin cones, tropical cones, lattice points, and level-1
Newton-Okounkov point sets.

Cones are stored by inequalities only (H-representation) over an ambient
lattice whose first coordinate "r" is the level.  The remaining coordinates
are named by the faces of the rectangles seed, so tropicalized
superpotentials and Gelfand-Tsetlin inequalities live in the same space and
can be compared covector by covector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .combinat import KSubset, format_ksubset, ksubsets, rectangle_label
from .laurent import LaurentPoly
from .seeds import Seed, kappa_vector, rectangles_seed


class Unbounded(Exception):
    """A lattice-point enumeration over an unbounded slice."""


@dataclass(frozen=True)
class Cone:
    ambient: tuple[str, ...]  # first entry is the level coordinate "r"
    ineqs: tuple[tuple[int, ...], ...]  # canonical covectors, >= 0 each


def _canonical_covector(vec: tuple[int, ...]) -> tuple[int, ...] | None:
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    if g == 0:
        return None
    return tuple(c // g for c in vec)


def make_cone(ambient, covectors) -> Cone:
    """Canonicalize covectors (gcd 1, deduplicated, sorted)."""
    ambient = tuple(ambient)
    idx = {x: i for i, x in enumerate(ambient)}
    out = set()
    for cov in covectors:
        if isinstance(cov, dict):
            vec = [0] * len(ambient)
            for lab, c in cov.items():
                vec[idx[lab]] = c
            cov = tuple(vec)
        cov = _canonical_covector(tuple(cov))
        if cov is not None:
            out.add(cov)
    return Cone(ambient, tuple(sorted(out)))


def cone_contains(c: Cone, point: tuple[int, ...]) -> bool:
    """Membership test for a point over ``c.ambient``, level first."""
    if len(point) != len(c.ambient):
        raise ValueError(
            f"point has {len(point)} coordinates, the ambient {len(c.ambient)}"
        )
    return all(sum(a * x for a, x in zip(cov, point)) >= 0 for cov in c.ineqs)


def cone_to_json_obj(c: Cone) -> dict:
    return {
        "ambient": list(c.ambient),
        "ineqs": [
            {lab: a for lab, a in zip(c.ambient, cov) if a} for cov in c.ineqs
        ],
    }


# -------------------------------------------------------------- GT cones


def grid_label(k: int, n: int, t: int, s: int) -> str:
    return format_ksubset(rectangle_label(k, n, t, s), n)


def gt_ambient(k: int, n: int) -> tuple[str, ...]:
    """The level "r", then the rectangles seed's non-star vertices (the
    grid labels) in vertex order."""
    return ("r",) + rectangles_seed(k, n).quiver.lattice


def gt_inequalities(k: int, n: int) -> Cone:
    """The cumulative Gelfand-Tsetlin cone of the k x (n-k) grid.

    With v_{0j} = v_{i0} = 0, the inequalities are v_11 >= 0, the two
    families of interlacing conditions
    v_ij + v_(i-2)(j-1) - v_(i-1)(j-1) - v_(i-1)j >= 0 and
    v_ij + v_(i-1)(j-2) - v_(i-1)(j-1) - v_i(j-1) >= 0,
    and the level bound r >= v_(k)(n-k) - v_(k-1)(n-k-1).
    """
    w = n - k

    def v(i, j):
        if i <= 0 or j <= 0:
            return None
        return grid_label(k, n, i, j)

    covs = []

    def add(parts):
        cov: dict[str, int] = {}
        for lab, c in parts:
            if lab is None:
                continue
            cov[lab] = cov.get(lab, 0) + c
        covs.append(cov)

    add([(v(1, 1), 1)])
    add([("r", 1), (v(k, w), -1), (v(k - 1, w - 1), 1)])
    for i in range(2, k + 1):
        for j in range(1, w + 1):
            add([(v(i, j), 1), (v(i - 2, j - 1), 1),
                 (v(i - 1, j - 1), -1), (v(i - 1, j), -1)])
    for i in range(1, k + 1):
        for j in range(2, w + 1):
            add([(v(i, j), 1), (v(i - 1, j - 2), 1),
                 (v(i - 1, j - 1), -1), (v(i, j - 1), -1)])
    assert len(covs) == 2 + (k - 1) * w + k * (w - 1)
    return make_cone(gt_ambient(k, n), covs)


def cone_from_tropical(W: LaurentPoly, star_label: str) -> Cone:
    """One covector per monomial of W: the q-exponent lands on the level
    coordinate, the star exponent is dropped, everything else is copied in
    W's lattice order."""
    labs = [x for x in W.lattice if x not in ("q", star_label)]
    ambient = ("r",) + tuple(labs)
    covs = []
    for exp, _coeff in W.terms:
        m = dict(zip(W.lattice, exp))
        cov = {lab: m.get(lab, 0) for lab in labs}
        cov["r"] = m.get("q", 0)
        covs.append(cov)
    return make_cone(ambient, covs)


# ------------------------------------------------- lattice-point counting


def _eliminate(system, var_ix):
    """One Fourier-Motzkin step; entries are (const, coeffs) with
    const + <coeffs, x> >= 0."""
    keep, pos, neg = [], [], []
    for const, coeffs in system:
        c = coeffs[var_ix]
        if c == 0:
            keep.append((const, coeffs))
        elif c > 0:
            pos.append((const, coeffs))
        else:
            neg.append((const, coeffs))
    out = set()
    for const, coeffs in keep:
        canon = _canonical_covector((const,) + coeffs)
        if canon is not None:
            out.add(canon)
    for pc, pv in pos:
        for nc, nv in neg:
            a, b = pv[var_ix], -nv[var_ix]
            const = b * pc + a * nc
            coeffs = tuple(b * x + a * y for x, y in zip(pv, nv))
            canon = _canonical_covector((const,) + coeffs)
            if canon is not None:
                out.add(canon)
            elif const < 0:
                return None  # 0 >= positive constant: infeasible
    cleaned = []
    for row in out:
        const, coeffs = row[0], row[1:]
        if not any(coeffs):
            if const < 0:
                return None
            continue
        cleaned.append((const, coeffs))
    return cleaned


def lattice_points(c: Cone, r: int) -> list[tuple[int, ...]]:
    """All integer points of the level-r slice, as tuples over ``c.ambient``
    (so each starts with r), by exact projection.

    Variables are eliminated one by one (Fourier-Motzkin); the chain of
    projections then drives an exact, backtracking-free enumeration in
    lexicographic order.  Each projection is stored once as sparse rows
    per coordinate: the lower rows (positive coefficient a) and the upper
    rows (a < 0), each as (const, ((i, c), ...) over the nonzero earlier
    coordinates, a).  A coordinate's range is read from those rows alone,
    and the last coordinate is filled in one flat loop.  An infeasible
    slice gives [] (also when a row on the level alone fails at r) and an
    otherwise feasible empty ambient [(r,)]; if the enumeration reaches a
    coordinate with no lower or no upper row, the slice is unbounded and
    Unbounded is raised.
    """
    vars_ = list(c.ambient[1:])
    nv = len(vars_)
    base = []
    for cov in c.ineqs:
        const, coeffs = cov[0] * r, tuple(cov[1:])
        if any(coeffs):
            base.append((const, coeffs))
        elif const < 0:
            return []  # a row on the level alone that this level breaks
    systems = [base]  # systems[d] involves vars_[: nv-d]
    for d in range(nv - 1, 0, -1):
        nxt = _eliminate(systems[-1], d)
        if nxt is None:
            return []
        systems.append(nxt)
    systems.reverse()  # systems[i] constrains vars_[: i+1]
    if nv == 0:
        return [(r,)]

    lower: list[list] = []
    upper: list[list] = []
    for depth, system in enumerate(systems):
        lo_rows, hi_rows = [], []
        for const, coeffs in system:
            a = coeffs[depth]
            if a:
                prefix = tuple((i, x) for i, x in enumerate(coeffs[:depth]) if x)
                (lo_rows if a > 0 else hi_rows).append((const, prefix, a))
        lower.append(lo_rows)
        upper.append(hi_rows)

    points: list[tuple[int, ...]] = []
    assignment = [0] * nv
    last = nv - 1

    def feasible_range(depth):
        lo_rows, hi_rows = lower[depth], upper[depth]
        if not lo_rows or not hi_rows:
            raise Unbounded(f"coordinate {vars_[depth]} unbounded at level {r}")
        lo = hi = None
        for const, prefix, a in lo_rows:
            for i, x in prefix:
                const += x * assignment[i]
            # a*x >= -const  ->  x >= ceil(-const / a)
            bound = -(const // a)
            if lo is None or bound > lo:
                lo = bound
        for const, prefix, a in hi_rows:
            for i, x in prefix:
                const += x * assignment[i]
            # a*x >= -const with a < 0  ->  x <= floor(const / -a)
            bound = const // -a
            if hi is None or bound < hi:
                hi = bound
        return lo, hi

    def rec(depth):
        lo, hi = feasible_range(depth)
        if depth == last:
            head = (r, *assignment[:last])
            points.extend([(*head, val) for val in range(lo, hi + 1)])
            return
        for val in range(lo, hi + 1):
            assignment[depth] = val
            rec(depth + 1)

    rec(0)
    return points


def weyl_dim(k: int, n: int, r: int) -> int:
    """Hook-content product for the dimension of the degree-r piece."""
    if r < 0:
        raise ValueError("level must be nonnegative")
    total = Fraction(1)
    for i in range(1, k + 1):
        for j in range(1, n - k + 1):
            total *= Fraction(r + i + j - 1, i + j - 1)
    if total.denominator != 1:
        raise ArithmeticError(f"hook-content product not integral: {total}")
    return int(total)


# ------------------------------------------------------- GT decomposition


@dataclass
class GTPattern:
    k: int
    n: int
    r: int
    v: dict[str, int]  # grid label -> value


@lru_cache(maxsize=None)
def kappa_table(k: int, n: int):
    """Read-only map from level-1 point (a tuple over ``gt_ambient``) to I."""
    points = no_body_level1(rectangles_seed(k, n))
    return MappingProxyType(dict(zip(points, ksubsets(n, k))))


def gt_decompose(pat: GTPattern) -> list[KSubset]:
    """Write a level-r pattern as a sum of r level-1 kappa points.

    The increments u_ts = v_ts - v_(t-1)(s-1) are peeled by their support:
    the 0/1 indicator grid, re-accumulated along diagonals, is the kappa
    point of some k-subset, which is subtracted off; r steps exhaust v.
    """
    k, n, r = pat.k, pat.n, pat.r
    w = n - k
    cone = gt_inequalities(k, n)
    cells = {grid_label(k, n, t, s): (t, s)
             for t in range(1, k + 1) for s in range(1, w + 1)}
    if pat.v.keys() != cells.keys():
        missing = [lab for lab in cells if lab not in pat.v]
        extra = sorted((lab for lab in pat.v if lab not in cells), key=str)
        raise ValueError(
            f"pattern labels are not the grid's: missing {missing}, extra {extra}"
        )
    if r < 0 or not cone_contains(cone, (r, *(pat.v[lab] for lab in cone.ambient[1:]))):
        raise ValueError("point is not in the Gelfand-Tsetlin cone at this level")
    table = kappa_table(k, n)
    order = [cells[lab] for lab in cone.ambient[1:]]
    # the grid with row 0 and column 0 zero, so v_(t-1)(s-1) is always read
    cur = [[0] * (w + 1) for _ in range(k + 1)]
    for lab, (t, s) in cells.items():
        cur[t][s] = pat.v[lab]

    out: list[KSubset] = []
    for _step in range(r):
        layer = [[0] * (w + 1) for _ in range(k + 1)]
        for t in range(1, k + 1):
            for s in range(1, w + 1):
                layer[t][s] = (cur[t][s] > cur[t - 1][s - 1]) + layer[t - 1][s - 1]
        point = (1, *(layer[t][s] for t, s in order))
        if point not in table:
            raise ValueError(f"peeled layer is not a level-1 point: {point}")
        out.append(table[point])
        for t in range(1, k + 1):
            for s in range(1, w + 1):
                cur[t][s] -= layer[t][s]
    if any(map(any, cur)):
        raise ValueError(f"residue after {r} layers: {cur}")
    return out


# ------------------------------------------------- level-1 NO point sets


def no_body_level1(s: Seed) -> list[tuple[int, ...]]:
    """The level-1 points (1, *kappa) of all k-subsets, kappa over the
    seed's non-star vertices in vertex order."""
    lattice = s.quiver.lattice
    return [(1, *map(kappa_vector(s, I).__getitem__, lattice))
            for I in ksubsets(s.n, s.k)]


def body_membership_check(points, cone: Cone) -> bool:
    """Every point lies in the level-1 slice of the cone."""
    return all(p[0] == 1 and cone_contains(cone, p) for p in points)


def _affine_rank(points) -> int:
    """Dimension of the affine span plus one (number of affinely
    independent points), computed exactly."""
    if not points:
        return 0
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank + 1


def level1_slice_check(points, cone: Cone) -> bool:
    """Dual containment between a point set and the level-1 slice.

    Every point must satisfy every inequality, and every inequality must be
    tight on enough affinely independent points to cut out a facet of the
    convex hull; together these certify the hull equals the slice.
    """
    if not body_membership_check(points, cone):
        return False
    dim = len(cone.ambient) - 1
    for cov in cone.ineqs:
        tight = [p for p in points if sum(a * x for a, x in zip(cov, p)) == 0]
        if _affine_rank(tight) < dim:
            return False
    return True
