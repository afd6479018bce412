"""Quivers, labelled seeds, kappa vectors, and tropical mutation.

A quiver is the dual graph of a plabic model: one vertex per face (named by
the face's label string, listed in the subset order of the labels), one
arrow per edge, boundary faces frozen.  Mutation keeps that order, so every
lattice derived from ``Quiver.vertices`` is in subset order too.  A seed
adds the k-subset labels.  Mutation comes in three flavors: ``fz_mutate``
(matrix mutation of the quiver alone), ``mutate_labels`` (seed-level, with
the Plucker exchange of the mutated label), and ``trop_a_mutate`` (the
piecewise-linear action on integer vectors).

Entries of the exchange matrix between two frozen vertices need care:
``fz_mutate`` is the plain matrix rule and copies frozen-frozen arrows
through unchanged (matrix mutation does not define them), so comparisons of
its output restrict to the arrows with at least one mutable end.  A pair
with a mutable end carries arrows one way only (``make_quiver``), so those
arrows are exactly the exchange-matrix entries that mutation tracks.
``mutate_labels`` additionally applies the dimer corner rule -- each 2-path
u -> j -> v between frozen vertices reverses the corner arrow v -> u --
which keeps the quiver equal to the dual of the square-moved model whenever
the move contracts no node (true for every seed reachable from a rectangles
seed), so the exact-sequence identities survive mutation there.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

from .combinat import (
    KSubset,
    _fill_max_diag_row,
    _max_diag_row,
    format_ksubset,
    max_diag,
    pairwise_weakly_separated,
)
from .plabic import (
    ModelInvariantError,
    NotPlabicMutable,
    PlabicModel,
    analyze,
    build_rectangles_model,
)


class NotMutable(Exception):
    """Raised when a mutation is requested at a frozen vertex."""


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    frozen: frozenset[str]
    star: str
    arrows: tuple[tuple[str, str, int], ...]  # (source, target, multiplicity)
    # every vertex but the star, in vertex order: the coordinates of
    # X-mutation, kappa points, the GT ambient and the potential's image
    lattice: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # mutable vertex -> its in/out maps, filled by ``neighbours``
    _neighbours: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    # (vertex, lattice) -> the built X-mutation step, filled by
    # ``charts.x_mutate``; a step does not refer back to the quiver
    _x_steps: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lattice",
                           tuple(v for v in self.vertices if v != self.star))


def neighbours(q: Quiver, j: str) -> tuple[Mapping[str, int], Mapping[str, int]]:
    """The arrows at a mutable vertex j, as read-only maps in-neighbour ->
    multiplicity and out-neighbour -> multiplicity, in vertex order.  Each
    vertex's maps are read off the arrows once per quiver.  An arrow at a
    mutable vertex has no reverse arrow (``make_quiver``), so these are also
    the positive exchange-matrix entries b_{uj} and b_{jv}."""
    memo = q._neighbours
    if j not in memo:
        if j not in q.vertices:
            raise ModelInvariantError("unknown-node", f"no vertex {j}")
        if j in q.frozen:
            raise NotMutable(f"vertex {j} is frozen")
        memo[j] = (MappingProxyType({u: m for u, v, m in q.arrows if v == j}),
                   MappingProxyType({v: m for u, v, m in q.arrows if u == j}))
    return memo[j]


def make_quiver(vertices, frozen, star, arrow_counts: dict) -> Quiver:
    """Sanity-check quiver data; the vertices keep the order given.

    ``arrow_counts`` maps ordered pairs (source, target) to positive
    multiplicities; the arrows are listed in vertex order.  Two-cycles with
    a mutable endpoint are rejected: an exchange matrix cannot carry an
    arrow in both directions between such a pair.  Frozen-frozen two-cycles
    are allowed (they occur in degenerate duals, e.g. the two-face disc)
    and are never consulted by mutation.
    """
    vertices = tuple(vertices)
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ModelInvariantError("duplicate-label", "repeated quiver vertex")
    frozen = frozenset(frozen)
    if not frozen <= vset or star not in frozen:
        raise ModelInvariantError("unknown-node", "frozen/star not among vertices")
    arrows = []
    for (u, v), mult in arrow_counts.items():
        if u not in vset or v not in vset:
            raise ModelInvariantError("unknown-node", f"arrow {u}->{v}")
        if u == v:
            raise ModelInvariantError("bad-label", f"loop at {u}")
        if mult <= 0:
            continue
        if (
            (u not in frozen or v not in frozen)
            and (v, u) in arrow_counts
            and arrow_counts[(v, u)] > 0
        ):
            raise ModelInvariantError(
                "exchange-mismatch", f"two-cycle between {u} and {v}"
            )
        arrows.append((u, v, mult))
    pos = {v: i for i, v in enumerate(vertices)}
    arrows.sort(key=lambda a: (pos[a[0]], pos[a[1]]))
    return Quiver(vertices, frozen, star, tuple(arrows))


def mutable_vertices(q: Quiver) -> list[str]:
    return [v for v in q.vertices if v not in q.frozen]


def fz_mutate(q: Quiver, j: str) -> Quiver:
    """Matrix mutation at a mutable vertex j.

    b'_{uv} = -b_{uv} when j is an endpoint, else
    b'_{uv} = b_{uv} + sgn(b_{uj}) * max(b_{uj} b_{jv}, 0).
    Frozen-frozen arrows are copied through unchanged.

    Only the neighbourhood of j changes.  The correction term is nonzero
    only when b_{uj} and b_{jv} have the same sign: for u an in-neighbour
    and v an out-neighbour of j, b'_{uv} gains b_{uj} b_{jv}, and by skew
    symmetry b'_{vu} loses it.  So the entries are copied, those touching j
    negated, and one product is added per in-/out-neighbour pair of j that
    is not frozen-frozen.
    """
    return make_quiver(q.vertices, q.frozen, q.star, _fz_counts(q, j))


def _fz_counts(q: Quiver, j: str) -> dict[tuple[str, str], int]:
    """Arrow counts of ``fz_mutate(q, j)``, by the neighbourhood rule."""
    ins, outs = neighbours(q, j)
    frozen = q.frozen
    # arrows at j reverse, the rest are copied; a pair with a mutable end
    # carries arrows one way only (``make_quiver``), so its net count is
    # the one arrow count
    counts = {((v, u) if j in (u, v) else (u, v)): mult for u, v, mult in q.arrows}
    for u, mu in ins.items():
        for v, mv in outs.items():
            if u in frozen and v in frozen:
                continue
            net = counts.pop((u, v), 0) - counts.pop((v, u), 0) + mu * mv
            if net:
                counts[(u, v) if net > 0 else (v, u)] = abs(net)
    return counts


def _corner_rule(q: Quiver, j: str, counts: dict[tuple[str, str], int]) -> None:
    """The dimer update of frozen-frozen arrows after mutation at j.

    ``counts`` are the arrow counts of ``fz_mutate(q, j)``, updated in place.
    Each 2-path u -> j -> v with both u and v frozen sits at a corner of
    the quadrilateral face dual to j, and the square move reverses the
    corner's third arrow v -> u to u -> v.  Seeds reachable from the
    rectangles seed always carry that arrow; its absence means the quiver
    is not the dual of a plabic model.
    """
    ins, outs = neighbours(q, j)
    for u, mu in ins.items():
        for v, mv in outs.items():
            if u not in q.frozen or v not in q.frozen:
                continue
            c = mu * mv
            have = counts.get((v, u), 0)
            if have < c:
                raise ModelInvariantError(
                    "corner-structure",
                    f"no arrow {v} -> {u} at a corner of {j}",
                )
            counts[(v, u)] = have - c
            counts[(u, v)] = counts.get((u, v), 0) + c


@dataclass(frozen=True)
class Seed:
    k: int
    n: int
    quiver: Quiver
    labels: Mapping[str, KSubset]  # vertex name -> k-subset, a read-only copy
    # the labels as tuples in vertex order: the order of every kappa vector
    vertex_labels: tuple[KSubset, ...] = field(init=False, repr=False,
                                               compare=False)
    # (getter, star mask, masks, label of mask) for reading kappa columns
    # off MaxDiag rows, built by ``_kappa_getter`` on the first kappa request
    _kappa: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        object.__setattr__(self, "vertex_labels", tuple(
            tuple(self.labels[v]) for v in self.quiver.vertices))


def seed_of_model(model: PlabicModel) -> Seed:
    """The seed of a model, derived once per model: its dual quiver, with
    faces named by their label strings and listed in the subset order of
    their labels, and the face labels."""
    an = analyze(model)

    def build():
        name = {f.index: format_ksubset(f.label, model.n) for f in an.faces}
        counts: dict[tuple[str, str], int] = {}
        for _e, s, t in an.arrows:
            key = (name[s], name[t])
            counts[key] = counts.get(key, 0) + 1
        frozen = frozenset(name[f.index] for f in an.faces if f.gap is not None)
        vertices = [name[an.label_to_face[I]] for I in an.lattice]
        q = make_quiver(vertices, frozen, name[an.star], counts)
        return Seed(model.k, model.n, q, {name[f.index]: f.label for f in an.faces})

    return an.derive("seed", build)


@lru_cache(maxsize=None)
def rectangles_seed(k: int, n: int) -> Seed:
    return seed_of_model(build_rectangles_model(k, n))


def exchange_label(q: Quiver, labels: Mapping[str, KSubset], j: str) -> KSubset:
    """The Plucker exchange partner of label j in its quiver neighborhood.

    The two in-neighbors must carry S+{a,b} and S+{c,d}, the two
    out-neighbors S+{a,d} and S+{b,c} (or the roles swapped), and j itself
    S plus two of {a,b,c,d}; the exchange partner is S plus the other two.
    Raises NotPlabicMutable when the neighborhood does not have this shape.
    """
    in_mult, out_mult = neighbours(q, j)
    ins = [labels[u] for u, mult in in_mult.items() for _ in range(mult)]
    outs = [labels[v] for v, mult in out_mult.items() for _ in range(mult)]
    if len(ins) != 2 or len(outs) != 2:
        raise NotPlabicMutable(
            f"vertex {j} has {len(ins)} in-arrows and {len(outs)} out-arrows"
        )
    S = set(ins[0]) & set(ins[1])
    quad = (set(ins[0]) | set(ins[1])) - S
    if set(outs[0]) & set(outs[1]) != S or (set(outs[0]) | set(outs[1])) - S != quad:
        raise NotPlabicMutable(f"neighbor labels of {j} do not share a quadruple")
    pair = set(labels[j]) - S
    if len(quad) != 4 or len(pair) != 2 or not pair <= quad or set(labels[j]) != S | pair:
        raise NotPlabicMutable(f"label of {j} does not match its neighborhood")
    return tuple(sorted(S | (quad - pair)))


def label_exchange(s: Seed, j: str) -> tuple[str, dict[str, KSubset], tuple[str, ...]]:
    """The label side of seed mutation at j: the name of j's exchange
    partner, the labels with j's exchanged, and the quiver's vertices with
    j renamed, placed by the subset order of the labels.  Raises
    NotPlabicMutable as ``exchange_label`` does, and ``duplicate-label``
    when the partner is already a label."""
    new_label = exchange_label(s.quiver, s.labels, j)
    if new_label in s.labels.values():
        raise ModelInvariantError("duplicate-label", f"{new_label} already a label")
    new_name = format_ksubset(new_label, s.n)
    labels = {v: lab for v, lab in s.labels.items() if v != j}
    labels[new_name] = new_label
    vertices = sorted((new_name if v == j else v for v in s.quiver.vertices),
                      key=labels.__getitem__)
    return new_name, labels, tuple(vertices)


def mutate_labels(s: Seed, j: str) -> Seed:
    """Seed mutation: quiver mutation plus the Plucker label exchange at j."""
    new_name, labels2, vertices = label_exchange(s, j)
    if not pairwise_weakly_separated(list(labels2.values()), s.n):
        raise ModelInvariantError(
            "labels-not-weakly-separated", f"after exchanging {j} -> {new_name}"
        )
    # mutate on arrow counts and rename j to new_name; the one make_quiver
    # checks the result
    q = s.quiver
    rn = lambda x: new_name if x == j else x
    counts = _fz_counts(q, j)
    _corner_rule(q, j, counts)
    q2 = make_quiver(vertices, q.frozen, q.star,
                     {(rn(u), rn(v)): m for (u, v), m in counts.items()})
    return Seed(s.k, s.n, q2, labels2)


def seed_mutations(s: Seed) -> Iterator[tuple[str, Seed]]:
    """Yield (vertex, mutated seed) for every mutable vertex whose label
    exchange is defined, in ``mutable_vertices`` order; vertices refused
    with NotPlabicMutable are skipped.  The seed-level twin of
    ``plabic.square_moves``."""
    for j in mutable_vertices(s.quiver):
        try:
            moved = mutate_labels(s, j)
        except NotPlabicMutable:
            continue
        yield j, moved


# ------------------------------------------------------------- invariants


def kappa_vector(s: Seed, I: KSubset) -> dict[str, int]:
    """MaxDiag vector of I with respect to the seed's labels, in vertex order.

    Coordinate at vertex J is the longest diagonal of the set difference
    of Young diagrams young(label(J)) minus young(I); the star coordinate
    is always 0.  The coordinates are read off I's row of the one MaxDiag
    memo (``combinat._max_diag_row``) by one getter over the bitmasks of
    the seed's labels (``_kappa_column``), so a table over all k-subsets
    and a sequence of seeds (which share most labels) computes each label
    pair once.  A bad I raises ValueError on every call and is not
    memoised.
    """
    return dict(zip(s.quiver.vertices, _kappa_column(s, tuple(I))))


def _kappa_column(s: Seed, I: KSubset) -> tuple[int, ...]:
    """``kappa_vector`` as a tuple in vertex order; I is a tuple.

    The column is one call of the seed's getter on I's MaxDiag row.  When
    the row lacks labels, their entries are computed from the label tuples
    and the row is read again, so a miss costs one exception and no
    decoding of a mask.  A bad label raises ValueError; a star label with
    nonzero kappa raises ``bad-label``.
    """
    if len(I) != s.k:
        raise ValueError(f"size mismatch: {I} is not a {s.k}-subset")
    row = _max_diag_row(I, s.n)
    get, star, masks, label_of = s._kappa or _kappa_getter(s, I)
    try:
        col = get(row)
    except KeyError:
        _fill_max_diag_row(row, I, s.n, masks, label_of)
        col = get(row)
    if row[star]:
        raise ModelInvariantError(
            "bad-label", f"star label {s.labels[s.quiver.star]} has nonzero kappa"
        )
    return col


def _kappa_getter(s: Seed, I: KSubset) -> tuple:
    """Build and keep the seed's (getter, star mask, masks, label of mask):
    the bitmask of each label (bit x for element x) in vertex order, an
    ``operator.itemgetter`` over them that returns a tuple, the star's
    mask, and the set of masks and a dict from each mask to its label
    tuple, to fill rows from.

    Every label must be a k-subset of [n], strictly increasing.  The first
    label in vertex order that is not raises the ValueError that
    ``max_diag(label, I, n)`` raises, as reading it off a row keyed by
    tuples did, and no getter is kept.  So a mask in the getter always
    stands for the one valid subset with that mask.
    """
    masks = []
    for J in s.vertex_labels:
        mask = last = 0
        for x in J:
            if x <= last:
                break
            mask |= 1 << x
            last = x
        else:
            if len(J) == s.k and last <= s.n:
                masks.append(mask)
                continue
        max_diag(J, I, s.n)  # raises
    get = itemgetter(*masks) if len(masks) > 1 else lambda row: (row[masks[0]],)
    star = masks[s.quiver.vertices.index(s.quiver.star)]
    kappa = (get, star, frozenset(masks), dict(zip(masks, s.vertex_labels)))
    object.__setattr__(s, "_kappa", kappa)
    return kappa


def _beta_columns(s: Seed) -> dict[str, dict[str, int]]:
    """The nonzero entries of ``beta_matrix`` by column: column -> row ->
    entry.  Raises ``beta-unbalanced`` when a row does not sum to 0, that is
    when beta does not annihilate the all-ones vector."""
    q = s.quiver
    cols: dict[str, dict[str, int]] = {v: {} for v in q.vertices}

    def bump(col: dict[str, int], row: str, c: int):
        col[row] = col.get(row, 0) + c
        if col[row] == 0:
            del col[row]

    for u, v, mult in q.arrows:
        bump(cols[u], v, -mult)
        if v not in q.frozen or u not in q.frozen:
            bump(cols[v], u, mult)
    for v in q.frozen:
        bump(cols[v], v, 1)
    rowsum: dict[str, int] = {}
    for colmap in cols.values():
        for row, c in colmap.items():
            rowsum[row] = rowsum.get(row, 0) + c
    if any(rowsum.values()):
        raise ModelInvariantError(
            "beta-unbalanced",
            "all-ones vector not annihilated; seed outside the supported class",
        )
    return cols


def beta_matrix(s: Seed) -> dict[tuple[str, str], int]:
    """Boundary map from vertex simples to vertex projectives.

    Column at an interior vertex v is (sum of in-neighbors) - (sum of
    out-neighbors); at a boundary vertex v it is e_v - (sum of
    out-neighbors) + (sum of interior in-neighbors).  Entries are returned
    as a sparse (row, column) map.  Raises ``beta-unbalanced`` on a seed
    whose beta does not annihilate the all-ones vector.
    """
    return {
        (row, col): c
        for col, colmap in _beta_columns(s).items() for row, c in colmap.items()
    }


def wt_matrix(s: Seed) -> dict[tuple[str, str], int]:
    """Matrix whose column at vertex u is the kappa vector of label(u)."""
    out = {}
    for u in s.quiver.vertices:
        kv = kappa_vector(s, s.labels[u])
        for v, c in kv.items():
            if c:
                out[(v, u)] = c
    return out


def exact_sequence_checks(s: Seed) -> bool:
    """Two matrix identities tying beta, rank, and weight together.

    Every column of beta sums to 0 (rank of beta is 0), and wt composed
    with beta is minus the identity away from the star coordinate.  The
    third, beta of the all-ones vector is 0, is enforced where beta is
    built: a seed that breaks it raises ``beta-unbalanced``, as
    ``beta_matrix`` does.

    wt . beta is built one column at a time: column v is the sum over w of
    beta[w, v] times the kappa vector of label(w), a tuple in vertex order.
    The star's entry is 0 in every kappa vector (``kappa_vector`` raises
    ``bad-label`` otherwise), so the star row needs no exception.
    """
    q = s.quiver
    cols = _beta_columns(s)
    if any(sum(colmap.values()) for colmap in cols.values()):
        return False
    wt = {v: _kappa_column(s, J) for v, J in zip(q.vertices, s.vertex_labels)}
    m = len(q.vertices)
    for i, v in enumerate(q.vertices):
        if v == q.star:
            continue
        col = [0] * m  # column v of wt . beta, plus e_v
        col[i] = 1
        for w, c in cols[v].items():
            col = [a + c * x for a, x in zip(col, wt[w])]
        if any(col):
            return False
    return True


# ------------------------------------------------------ tropical mutation


def trop_a_mutate(q: Quiver, j: str, v: dict[str, int]) -> dict[str, int]:
    """Piecewise-linear mutation of an integer vector at vertex j.

    v'_j = min(sum over in-arrows, sum over out-arrows) - v_j with arrow
    multiplicities; all other coordinates are unchanged.  The result is a
    new dict in the order of v.  The sums are plain loops over the
    ``neighbours`` maps.
    """
    ins, outs = neighbours(q, j)
    s_in = 0
    for u, mult in ins.items():
        s_in += mult * v[u]
    s_out = 0
    for w, mult in outs.items():
        s_out += mult * v[w]
    out = dict(v)
    out[j] = min(s_in, s_out) - v[j]
    return out
