"""Gelfand-Tsetlin cones, tropical cones, lattice points, and level-1
Newton-Okounkov point sets.

On the rectangles seed the level-1 kappa points of the k-subsets are exactly
the lattice points of the level-1 slice of the Gelfand-Tsetlin cone, one
point per k-subset; ``verify weyl-count`` compares the two sets.

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
from .laurent import LaurentPoly, lp_substitute
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


@lru_cache(maxsize=None)
def gt_inequalities(k: int, n: int) -> Cone:
    """The cumulative Gelfand-Tsetlin cone of the k x (n-k) grid (cached;
    a Cone is immutable).

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
    """One covector per monomial of W: the exponent of its image under
    q -> r, p_star -> 1 and every other variable to itself, over the level
    r and then W's other labels in W's order.  The coefficients of W are
    positive, so no two monomials cancel."""
    ambient = ("r",) + tuple(x for x in W.lattice if x not in ("q", star_label))
    images = {x: {"r": 1} if x == "q" else {} if x == star_label else {x: 1}
              for x in W.lattice}
    image = lp_substitute(W, images, ambient)
    return make_cone(ambient, [exp for exp, _coeff in image.terms])


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
    cleaned = []
    for row in out:
        const, coeffs = row[0], row[1:]
        if not any(coeffs):
            if const < 0:
                return None
            continue
        cleaned.append((const, coeffs))
    return cleaned


# CPython refuses more than 20 statically nested blocks in one function, so
# a kernel is a chain of functions of at most this many loops each.
_LOOPS_PER_FUNCTION = 16


def _affine_source(const: str | None, terms) -> str:
    """``const + sum(a * x<i>)`` as source; ``terms`` are (i, a), a != 0."""
    out = const or ""
    for i, a in terms:
        mag = "" if abs(a) == 1 else f"{abs(a)}*"
        if out:
            out += f" {'-' if a < 0 else '+'} {mag}x{i}"
        else:
            out = f"{'-' if a < 0 else ''}{mag}x{i}"
    return out or "0"


def _bound_source(rows, depth: int, lower: bool) -> list[str]:
    """Statements setting ``lo`` (``lower``) or ``hi`` to the tightest bound
    on x<depth> that the rows (const name or None, coeffs) give."""
    name, tighter = ("lo", ">") if lower else ("hi", "<")
    out = []
    for n, (const, coeffs) in enumerate(rows):
        a = coeffs[depth]
        terms = [(i, x) for i, x in enumerate(coeffs[:depth]) if x]
        if lower and a == 1:  # x >= -expr
            bound = _affine_source(const and f"-{const}", [(i, -x) for i, x in terms])
        elif lower:  # a*x >= -expr  ->  x >= ceil(-expr / a)
            bound = f"-(({_affine_source(const, terms)}) // {a})"
        elif a == -1:  # x <= expr
            bound = _affine_source(const, terms)
        else:  # a*x >= -expr with a < 0  ->  x <= floor(expr / -a)
            bound = f"({_affine_source(const, terms)}) // {-a}"
        if n == 0:
            out.append(f"{name} = {bound}")
        else:
            out += [f"t = {bound}", f"if t {tighter} {name}: {name} = t"]
    return out


@lru_cache(maxsize=64)
def _slice_kernel(ineqs: tuple[tuple[int, ...], ...], sign: int, nv: int,
                  count: bool):
    """The enumerator of the level-r slices, r of this sign, of the cone
    with these rows over nv coordinates after the level; None when those
    slices are infeasible.

    ``kernel(abs(r), r, unbounded)`` returns the points, or with ``count``
    their number, and raises ``unbounded(i)`` on reaching a coordinate i
    with no lower or no upper row.  A counting kernel runs the same loops
    but the last, whose range length it adds up.  Only ints and fixed names
    go into the generated source.
    """
    for cov in ineqs:
        for x in cov:
            if type(x) is not int:
                raise TypeError(f"cone entry {x!r} is not an int")
    base = []
    for cov in ineqs:
        const, coeffs = cov[0] * sign, tuple(cov[1:])
        if any(coeffs):
            base.append((const, coeffs))
        elif const < 0:
            return None  # a row on the level alone that this level breaks
    systems = [base]  # systems[d] involves x0 .. x<nv-1-d>
    for d in range(nv - 1, 0, -1):
        nxt = _eliminate(systems[-1], d)
        if nxt is None:
            return None
        systems.append(nxt)
    systems.reverse()  # systems[i] constrains x0 .. x<i>

    consts: dict[int, str] = {}  # const -> the name of const * |r|

    def named(rows):
        out = []
        for const, coeffs in sorted(rows):
            if const and const not in consts:
                consts[const] = f"c{len(consts)}"
            out.append((consts.get(const), coeffs))
        return out

    def xs(stop):
        return ", ".join(f"x{i}" for i in range(stop))

    funcs = []  # (first coordinate, body lines) of each function of the chain
    for first in range(0, max(nv, 1), _LOOPS_PER_FUNCTION):
        stop = min(first + _LOOPS_PER_FUNCTION, nv)
        lines = ["    nonlocal count"] if count and first else []
        for depth in range(first, stop):
            pad = "    " * (1 + depth - first)
            lo = named(row for row in systems[depth] if row[1][depth] > 0)
            hi = named(row for row in systems[depth] if row[1][depth] < 0)
            if not lo or not hi:
                lines.append(f"{pad}raise unbounded({depth})")
                break
            lines += [pad + x for x in _bound_source(lo, depth, True)]
            lines += [pad + x for x in _bound_source(hi, depth, False)]
            if count and depth == nv - 1:
                lines.append(f"{pad}if hi >= lo: count += hi - lo + 1")
            else:
                lines.append(f"{pad}for x{depth} in range(lo, hi + 1):")
        else:
            pad = "    " * (1 + stop - first)
            if stop < nv:
                lines.append(f"{pad}k{stop}({xs(stop)})")
            elif not count:
                lines.append(f"{pad}append((r, {xs(nv)}))" if nv else f"{pad}append((r,))")
            elif not nv:
                lines.append(f"{pad}count += 1")
        funcs.append((first, lines))

    src = ["def kernel(R, r, unbounded):"]
    src += ["    count = 0"] if count else ["    points = []", "    append = points.append"]
    src += [f"    {name} = {const} * R" for const, name in consts.items()]
    for first, lines in reversed(funcs[1:]):  # defined before the loops call them
        src.append(f"    def k{first}({xs(first)}):")
        src += ["    " + x for x in lines]
    src += funcs[0][1]
    src.append("    return count" if count else "    return points")
    namespace: dict = {}
    exec(compile("\n".join(src) + "\n", "<lattice kernel>", "exec"), namespace)
    return namespace["kernel"]


def lattice_points(c: Cone, r: int) -> list[tuple[int, ...]]:
    """All integer points of the level-r slice, as tuples over ``c.ambient``
    (so each starts with r), in lexicographic order.

    Variables are eliminated one by one (Fourier-Motzkin) from the rows
    (sign(r) * const, coeffs).  With its constant multiplied by |r|, each
    row of that chain is a positive multiple of a row of the chain at r,
    so one chain gives every level of a sign the same bounds, order,
    infeasibility and first unbounded coordinate.  The chain is compiled
    into a kernel with one ``for`` per coordinate, whose bounds are integer
    expressions in the earlier loop variables and in the constants
    const * |r|, set when the kernel starts; the last loop appends the
    points.  The loops come in a chain of functions of at most 16 loops
    each (CPython allows 20 nested blocks in a function); the innermost
    loop of one calls the next with the loop variables.  Kernels are kept
    in a bounded cache keyed on (c.ineqs, sign of r, number of
    coordinates, counting or not), so levels 1, 2, ... of a cone compile
    once.  Labels and r are passed in at call time and never enter the
    generated source; an entry of ``c.ineqs`` that is not an int raises
    TypeError before anything is compiled.

    An infeasible slice gives [] (also when a row on the level alone fails
    at r) and an otherwise feasible empty ambient [(r,)]; if the
    enumeration reaches a coordinate with no lower or no upper row, the
    slice is unbounded and Unbounded is raised.
    """
    return _run_slice(c, r, False)


def count_lattice_points(c: Cone, r: int) -> int:
    """The number of integer points of the level-r slice, that is
    ``len(lattice_points(c, r))``, without making them: the same chain of
    loops, but the last coordinate adds the length of its range.  It has
    the same answers where no point is made (0 when infeasible, 1 for a
    feasible empty ambient) and raises Unbounded on the same slices.
    """
    return _run_slice(c, r, True)


def _run_slice(c: Cone, r: int, count: bool):
    kernel = _slice_kernel(c.ineqs, (r > 0) - (r < 0), len(c.ambient) - 1, count)
    if kernel is None:
        return 0 if count else []

    def unbounded(i):
        return Unbounded(f"coordinate {c.ambient[i + 1]} unbounded at level {r}")

    return kernel(abs(r), r, unbounded)


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
def _grid_cells(k: int, n: int):
    """Read-only map from grid label to its cell (t, s), 1 <= t <= k,
    1 <= s <= n-k."""
    return MappingProxyType({grid_label(k, n, t, s): (t, s)
                             for t in range(1, k + 1) for s in range(1, n - k + 1)})


@lru_cache(maxsize=None)
def kappa_table(k: int, n: int):
    """Read-only map from level-1 point (a tuple over ``gt_ambient``) to I,
    over every k-subset I.  Its keys are the level-1 slice of
    ``gt_inequalities(k, n)``, as ``verify weyl-count`` checks, and
    ``gt_decompose`` reads a peeled layer's subset off it."""
    subsets = ksubsets(n, k)
    points = no_body_level1(rectangles_seed(k, n), subsets)
    return MappingProxyType(dict(zip(points, subsets)))


def gt_decompose(pat: GTPattern) -> list[KSubset]:
    """Write a level-r pattern as a sum of r level-1 kappa points.

    The increments u_ts = v_ts - v_(t-1)(s-1) are peeled by their support:
    the 0/1 indicator grid, re-accumulated along diagonals, is the kappa
    point of some k-subset, which is subtracted off; r steps exhaust v.
    """
    k, n, r = pat.k, pat.n, pat.r
    w = n - k
    cone = gt_inequalities(k, n)
    cells = _grid_cells(k, n)
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


def no_body_level1(s: Seed, subsets) -> list[tuple[int, ...]]:
    """The level-1 points (1, *kappa) of the given k-subsets, kappa over
    the seed's non-star vertices in vertex order."""
    lattice = s.quiver.lattice
    return [(1, *map(kappa_vector(s, I).__getitem__, lattice)) for I in subsets]
