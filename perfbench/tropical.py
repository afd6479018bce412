"""``tropical``: cones, GT peeling and seed mutation, with no matchings at all.

An op is one of:

* a slice: ``cones.lattice_points`` at one level, at (3,6) up to r = 5 and at
  (4,8) up to r = 3, checked against ``weyl_dim``;
* a peel: ``gt_decompose`` of a seeded lattice point, made in set-up as a sum
  of r random level-1 kappa points, checked by summing the peeled layers back;
* a mutation step on a seeded path at (3,7), (4,8) or (4,9): ``mutate_labels``,
  ``a_mutate_w``, the kappa table of every k-subset carried by
  ``trop_a_mutate``, and ``exact_sequence_checks`` on the new seed; checked
  against kappa on the new seed and by mutating back at the new vertex;
* ``verify_wformula`` or the gt-trop cone comparison at one instance.

The slices and the wformula/gt-trop checks are fixed; the seed varies the
peeled points and the mutation paths, whose number grows with ``size``.
"""

from __future__ import annotations

from functools import lru_cache

from plabicflow import cones, seeds, superpot
from plabicflow.combinat import format_ksubset, ksubsets
from plabicflow.laurent import lp_equal

from common import Attempts, Op, Workload, mutation_path

NAME = "tropical"
# (see flows.py) slices and checks take ~0.4 s a pass, each unit of size
# (4 peels and 4 paths) ~0.51 s
FIXED_SECONDS = 0.4
SIZE_SECONDS = 0.51

SLICES = tuple((3, 6, r) for r in range(6)) + tuple((4, 8, r) for r in range(4))
# Per unit of size: peels by (k, n, r), and mutation paths of PATH_LENGTH
# steps by (k, n).  The (4,8) steps are the middle third of the sorted op
# times, so op_p50_ms falls inside one kind of op, not on the edge between
# two; sub-millisecond ops read a few percent differently from run to run
# even after scaling to the reference speed.
PEELS = {(3, 6, 3): 1, (3, 6, 5): 1, (4, 8, 2): 1, (4, 8, 3): 1}
PATHS = {(3, 7): 1, (4, 8): 2, (4, 9): 1}
PATH_LENGTH = 5
CHECKS = ((3, 7), (4, 8), (4, 9))


@lru_cache(maxsize=None)
def _kappa_point(k: int, n: int, I) -> tuple[tuple[str, int], ...]:
    """The level-1 point of I: its kappa vector on the rectangles seed."""
    s = seeds.rectangles_seed(k, n)
    return tuple((v, c) for v, c in seeds.kappa_vector(s, I).items() if v != s.quiver.star)


class _Path:
    """A seeded mutation path; ``state[i]`` is the (seed, W) step i starts from."""

    def __init__(self, k: int, n: int, steps):
        self.k, self.n = k, n
        self.steps = [j for j, _label in steps]
        self.subsets = ksubsets(n, k)
        self.state = [(seeds.rectangles_seed(k, n), superpot.w_rectangles(k, n))]
        self.state += [None] * len(steps)
        self.checked: dict[int, int] = {}  # step -> hash of its checked result

    def step(self, i: int):
        s, W = self.state[i]
        j = self.steps[i]
        s2 = seeds.mutate_labels(s, j)
        W2 = superpot.a_mutate_w(s, W, j)
        table = {I: seeds.trop_a_mutate(s.quiver, j, seeds.kappa_vector(s, I))
                 for I in self.subsets}
        ok = seeds.exact_sequence_checks(s2)
        self.state[i + 1] = (s2, W2)
        return s, W, s2, W2, table, ok

    def check(self, i: int, result) -> str | None:
        """The full check on the first execution of step i; later executions
        must give the same result (a hash of it), which costs far less."""
        s, W, s2, W2, table, ok = result
        key = hash((tuple(sorted(s2.labels.items())), s2.quiver, W2.poly.terms, ok,
                    tuple(tuple(sorted(table[I].items())) for I in self.subsets)))
        if i in self.checked:
            return None if self.checked[i] == key else "differs from its first execution"
        self.checked[i] = key
        j = self.steps[i]
        if not ok:
            return "exact_sequence_checks is False on the new seed"
        (j2,) = set(s2.labels) - set(s.labels)
        for I in self.subsets:
            want = {j if v == j2 else v: c for v, c in seeds.kappa_vector(s2, I).items()}
            if table[I] != want:
                return f"transported kappa of {format_ksubset(I, self.n)} != kappa on the new seed"
        if not lp_equal(superpot.a_mutate_w(s2, W2, j2).poly, W.poly):
            return f"a_mutate_w at {j2} does not restore W"
        back = seeds.mutate_labels(s2, j2)
        if back.labels != s.labels or sorted(back.quiver.arrows) != sorted(s.quiver.arrows):
            return f"mutating at {j2} does not restore the seed"
        return None


def build(seed: int, size: int, rng, workdir: str) -> Workload:
    attempts = Attempts()
    ops, checks, digest = [], [], []

    def add(kind, run, check, *what):
        ops.append(Op(kind, run))
        checks.append(check)
        digest.append(list(what))

    for k, n, r in SLICES:
        cone, want = cones.gt_inequalities(k, n), cones.weyl_dim(k, n, r)
        add(f"slice ({k},{n}) r={r}",
            lambda c=cone, r=r: len(cones.lattice_points(c, r)),
            lambda got, want=want: None if got == want else f"{got} points, weyl_dim {want}",
            "slice", k, n, r)
    for k, n in CHECKS:
        add(f"wformula ({k},{n})", lambda k=k, n=n: superpot.verify_wformula(k, n),
            _true, "wformula", k, n)
        add(f"gt-trop ({k},{n})", lambda k=k, n=n: _gt_trop(k, n), _true, "gt-trop", k, n)
    for (k, n, r), count in PEELS.items():
        subsets = ksubsets(n, k)
        for _p in range(count * size):
            point: dict[str, int] = {}
            for I in (rng.choice(subsets) for _ in range(r)):
                for v, c in _kappa_point(k, n, I):
                    point[v] = point.get(v, 0) + c
            pat = cones.GTPattern(k, n, r, point)
            add(f"peel ({k},{n}) r={r}", lambda pat=pat: cones.gt_decompose(pat),
                lambda got, pat=pat: _check_peel(pat, got),
                "peel", k, n, r, sorted(point.items()))
    for (k, n), count in PATHS.items():
        for _p in range(count * size):
            steps = mutation_path(seeds.rectangles_seed(k, n), PATH_LENGTH, rng, attempts)
            path = _Path(k, n, steps)
            for i in range(PATH_LENGTH):
                add(f"step ({k},{n})", lambda p=path, i=i: p.step(i),
                    lambda got, p=path, i=i: p.check(i, got),
                    "step", k, n, path.steps[:i + 1])

    def check(i, res):
        if isinstance(res, BaseException):
            return f"raised {type(res).__name__}: {res}"
        return checks[i](res)

    return Workload(ops, check, attempts, digest)


def _gt_trop(k: int, n: int) -> bool:
    """The tropicalized potential cuts out the Gelfand-Tsetlin cone."""
    s = seeds.rectangles_seed(k, n)
    tropical = cones.cone_from_tropical(superpot.w_rectangles(k, n).poly, s.quiver.star)
    return tropical == cones.gt_inequalities(k, n)


def _true(got) -> str | None:
    return None if got is True else f"returned {got!r}"


def _check_peel(pat, layers) -> str | None:
    if len(layers) != pat.r:
        return f"{len(layers)} layers at level {pat.r}"
    total = {v: 0 for v in pat.v}
    for I in layers:
        for v, c in _kappa_point(pat.k, pat.n, I):
            total[v] += c
    return None if total == pat.v else "peeled layers do not sum to the point"
