"""Quivers, labelled seeds, kappa vectors, and tropical mutation.

A quiver is the dual graph of a plabic model: one vertex per face (named by
the face's label string, listed in the subset order of the labels), one
arrow per edge, boundary faces frozen.  Mutation keeps that order, so every
lattice derived from ``Quiver.vertices`` is in subset order too.  A seed
adds the k-subset labels.  Mutation comes in three flavors: ``fz_mutate``
(matrix mutation of the quiver alone), ``mutate_labels`` (seed-level, with
the Plucker exchange of the mutated label), and ``trop_a_mutate`` (the
piecewise-linear action on integer vectors).

A seed checks each label where it is made (a strictly increasing k-subset
of [n]) and keeps its bitmask in ``Seed.masks``, read by weak separation
and kappa.  Every seed that ``seed_of_model`` or ``mutate_labels`` returns
is pairwise weakly separated (Oh-Postnikov-Speyer): ``seed_of_model`` tests
every pair of masks once per model, ``mutate_labels`` only the exchanged
label against the parent's other masks, and both raise
``labels-not-weakly-separated`` naming a crossing pair.  Kappa is walked
from the masks into the one kappa memo (``_KAPPA_ROWS``).  beta is one
sparse map by column (``beta_columns``), and wt is read a kappa column at
a time, each packed into one int for the exact-sequence check.

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

import struct
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

from .combinat import (
    KSubset,
    _mask,
    _max_diag_masks,
    check_ksubset,
    crossing_pair,
    crossing_partner,
    format_ksubset,
)
from .plabic import (
    ModelInvariantError,
    NotPlabicMutable,
    PlabicModel,
    analyze,
    build_rectangles_model,
)


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
            raise NotPlabicMutable(f"vertex {j} is frozen")
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
    """A quiver with a k-subset of [n] on each vertex.  Everything a seed
    derives is made in ``__post_init__``, so a seed is complete when made:
    the labels' bitmasks and the kappa reader over them."""

    k: int
    n: int
    quiver: Quiver
    labels: Mapping[str, KSubset]  # vertex name -> k-subset, a read-only copy
    # the labels as tuples in vertex order: the order of every kappa vector
    vertex_labels: tuple[KSubset, ...] = field(init=False, repr=False,
                                               compare=False)
    # the labels, each a strictly increasing k-subset of [n], as bitmasks
    # (bit x for element x) in vertex order, so a mask stands for one subset
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the kappa reader: an itemgetter over the masks in vertex order that
    # returns a tuple, the star's mask, and the masks as a frozenset
    _kappa: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        object.__setattr__(self, "vertex_labels", tuple(
            tuple(self.labels[v]) for v in self.quiver.vertices))
        masks = []
        for v, J in zip(self.quiver.vertices, self.vertex_labels):
            mask = last = 0
            for x in J:
                if x <= last:
                    break
                mask |= 1 << x
                last = x
            else:
                if len(J) == self.k and last <= self.n:
                    masks.append(mask)
                    continue
            raise ValueError(f"label {J} of vertex {v} is not a strictly "
                             f"increasing {self.k}-subset of 1..{self.n}")
        masks = tuple(masks)
        object.__setattr__(self, "masks", masks)
        get = itemgetter(*masks) if len(masks) > 1 else lambda row: (row[masks[0]],)
        star = masks[self.quiver.vertices.index(self.quiver.star)]
        object.__setattr__(self, "_kappa", (get, star, frozenset(masks)))


def seed_of_model(model: PlabicModel) -> Seed:
    """The seed of a model, derived once per model: its dual quiver, with
    faces named by their label strings and listed in the subset order of
    their labels, and the face labels, whose every pair is checked for
    weak separation here (``labels-not-weakly-separated``, naming the first
    crossing pair in vertex order, otherwise)."""
    an = analyze(model)

    def build():
        name = {f.index: format_ksubset(f.label, model.n) for f in an.faces}
        frozen = frozenset(name[f.index] for f in an.faces if f.gap is not None)
        counts: dict[tuple[str, str], int] = {}
        for _e, s, t in an.arrows:
            u, v = name[s], name[t]
            # a pair with a mutable end keeps its net count (a split edge: +1, -1, +1)
            if counts.get((v, u)) and not {u, v} <= frozen:
                counts[v, u] -= 1
            else:
                counts[u, v] = counts.get((u, v), 0) + 1
        vertices = [name[an.label_to_face[I]] for I in an.lattice]
        q = make_quiver(vertices, frozen, name[an.star], counts)
        seed = Seed(model.k, model.n, q, {name[f.index]: f.label for f in an.faces})
        if pair := crossing_pair(seed.masks):
            I, J = (vertices[i] for i in pair)
            raise ModelInvariantError("labels-not-weakly-separated", f"{I} and {J} cross")
        return seed

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
    new_name = format_ksubset(new_label, s.n)
    if new_label in s.labels.values():
        raise ModelInvariantError("duplicate-label", f"{new_name} already a label")
    labels = {v: lab for v, lab in s.labels.items() if v != j}
    labels[new_name] = new_label
    vertices = sorted((new_name if v == j else v for v in s.quiver.vertices),
                      key=labels.__getitem__)
    return new_name, labels, tuple(vertices)


def mutate_labels(s: Seed, j: str) -> Seed:
    """Seed mutation: quiver mutation plus the Plucker label exchange at j.

    The exchanged label is checked for weak separation against the parent's
    masks of the other m - 1 labels; every other pair is the parent seed's,
    which is pairwise weakly separated (``seed_of_model``), so the new seed
    is too.  A crossing raises ``labels-not-weakly-separated``, naming the
    exchanged label and its first crossing partner in vertex order."""
    new_name, labels2, vertices = label_exchange(s, j)
    i = s.quiver.vertices.index(j)
    others = s.masks[:i] + s.masks[i + 1:]
    partner = crossing_partner(_mask(labels2[new_name]), others)
    if partner is not None:
        partner += partner >= i  # its index among the parent's labels
        raise ModelInvariantError(
            "labels-not-weakly-separated",
            f"after exchanging {j} -> {new_name}, which crosses "
            f"{format_ksubset(s.vertex_labels[partner], s.n)}",
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
    with NotPlabicMutable are skipped.  Each seed is made when it is asked
    for and not held past its yield.  The seed-level twin of
    ``plabic.square_moves``."""
    for j in mutable_vertices(s.quiver):
        try:
            moved = mutate_labels(s, j)
        except NotPlabicMutable:
            continue
        yield j, moved
        del moved


# ------------------------------------------------------------- invariants


def kappa_vector(s: Seed, I: KSubset) -> dict[str, int]:
    """MaxDiag vector of I with respect to the seed's labels, in vertex order.

    Coordinate at vertex J is the longest diagonal of the set difference
    of Young diagrams young(label(J)) minus young(I); the star coordinate
    is always 0.  On lattice paths, with L = label(J), it is
    max(0, max over 1 <= m < n of |I & [1,m]| - |L & [1,m]|), the high point
    of the walk over I delta L that steps +1 at each element of I and -1 at
    each element of L.  Proof: row r of lambda_I meets diagonal m - k exactly
    when k + 1 - r <= min(k, m) and i_{k+1-r} > m, so lambda_I has
    min(k, m) - |I & [1,m]| cells there, and lambda_L the same with L.

    The coordinates are read off I's row of the one kappa memo
    (``_KAPPA_ROWS``) by the seed's kappa reader, made with the seed from
    its checked label masks (``Seed.masks``), so a table over all k-subsets
    and a sequence of seeds (which share most labels) computes each label
    pair once.  A bad I raises ValueError on every call and leaves no row.
    """
    return dict(zip(s.quiver.vertices, _kappa_column(s, tuple(I))))


# (I, n) -> its row, a dict from the mask of a seed's label J to
# max_diag(J, I, n); the one memo of MaxDiag, at most C(n,k)^2 entries per
# (k, n) in all
_KAPPA_ROWS: dict[tuple[KSubset, int], dict[int, int]] = {}


def _kappa_column(s: Seed, I: KSubset) -> tuple[int, ...]:
    """``kappa_vector`` as a tuple in vertex order; I is a tuple.

    The column is one call of the getter of the seed's reader
    (``Seed._kappa``, made with the seed) on I's kappa row.  When the
    row lacks labels, their entries are walked from the seed's masks and
    the row is read again, so a miss costs one exception and no decoding
    of a mask.  A star label with nonzero kappa raises ``bad-label``.
    """
    if len(I) != s.k:
        raise ValueError(f"size mismatch: {I} is not a {s.k}-subset")
    row = _KAPPA_ROWS.get((I, s.n))
    if row is None:
        check_ksubset(I, s.n)
        row = _KAPPA_ROWS[(I, s.n)] = {}
    get, star, masks = s._kappa
    try:
        col = get(row)
    except KeyError:
        i = _mask(I)
        for j in masks.difference(row):
            row[j] = _max_diag_masks(j, i)
        col = get(row)
    if row[star]:
        raise ModelInvariantError(
            "bad-label", f"star label {s.labels[s.quiver.star]} has nonzero kappa"
        )
    return col


def beta_columns(s: Seed) -> dict[str, dict[str, int]]:
    """The boundary map from vertex simples to vertex projectives, by
    column: column -> row -> entry, nonzero entries only, columns in vertex
    order.

    Column at an interior vertex v is (sum of in-neighbors) - (sum of
    out-neighbors); at a boundary vertex v it is e_v - (sum of
    out-neighbors) + (sum of interior in-neighbors).  Raises
    ``beta-unbalanced`` when a row does not sum to 0, that is when beta
    does not annihilate the all-ones vector, naming the first such row in
    vertex order and its sum.
    """
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
    if row := next((v for v in q.vertices if rowsum.get(v)), None):
        raise ModelInvariantError(
            "beta-unbalanced",
            f"beta row {row} sums to {rowsum[row]}, not 0: all-ones vector "
            "not annihilated; seed outside the supported class",
        )
    return cols


def exact_sequence_checks(s: Seed) -> bool:
    """Two matrix identities tying beta, rank, and weight together.

    Every column of beta sums to 0 (rank of beta is 0), and wt composed
    with beta is minus the identity away from the star coordinate.  The
    third, beta of the all-ones vector is 0, is enforced where beta is
    built: a seed that breaks it raises ``beta-unbalanced`` in
    ``beta_columns``.

    wt . beta is checked a column at a time on packed kappa columns.  The
    kappa vector of each label, a tuple in vertex order, is packed into one
    int with a field of ``width`` bits per vertex, vertex i at bit
    width * i.  Column v of wt . beta plus e_v is then the one integer
    2^(width * i) + sum over w of beta[w, v] times the packed kappa of
    label(w), and the column passes exactly when it is 0.  The star's
    entry is 0 in every kappa vector (``kappa_vector`` raises ``bad-label``
    otherwise), so the star row needs no exception.

    Width rule: every kappa entry lies in 0..top and every column of beta
    has sum of |entries| at most reach, so each field of the sum, read as a
    balanced digit d_i (the entry at row i), has |d_i| <= 1 + reach * top.
    ``width`` is 8 times the fewest bytes among 1, 2, 4, 8, 16, 24, ...
    with 2^(width - 1) > 1 + reach * top, so |d_i| < 2^(width - 1).  No
    carry can hide a nonzero field: if field i is the lowest nonzero one,
    the sum is 2^(width * i) times (d_i + 2^width * rest) with
    0 < |d_i| < 2^width, which is not 0.  The lowest set bit of a nonzero
    sum thus lies in the first row that differs, and the field there, read
    modulo 2^width into (-2^(width - 1), 2^(width - 1)), is d_i.
    """
    return _exact_sequence_witness(s) is None


# struct code of a field of each width in bytes up to 8; wider fields are
# a "Q" and pad bytes
_FIELD_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _exact_sequence_witness(s: Seed) -> str | None:
    """``exact_sequence_checks``, naming its witness: None when both
    identities hold, else the first column of beta, in vertex order, that
    does not sum to 0, or the first column v of wt . beta that is not -e_v
    with its first differing row and that row's entry."""
    q = s.quiver
    cols = beta_columns(s)
    for v, colmap in cols.items():
        if total := sum(colmap.values()):
            return f"beta column {v} sums to {total}, not 0"
    wt = [_kappa_column(s, J) for J in s.vertex_labels]
    top = max(map(max, wt))
    reach = max(sum(map(abs, colmap.values())) for colmap in cols.values())
    size = 1
    while (1 + reach * top) >> (8 * size - 1):
        size = 2 * size if size < 8 else size + 8
    width = 8 * size
    fmt = "<" + (_FIELD_CODE.get(size) or f"Q{size - 8}x") * len(wt)
    packed = {v: int.from_bytes(struct.pack(fmt, *col), "little")
              for v, col in zip(q.vertices, wt)}
    for i, v in enumerate(q.vertices):
        if v == q.star:
            continue
        acc = 1 << (width * i)  # column v of wt . beta, plus e_v
        for w, c in cols[v].items():
            acc += c * packed[w]
        if acc:
            r = ((acc & -acc).bit_length() - 1) // width  # first row that differs
            d = (acc >> (width * r)) & ((1 << width) - 1)
            d -= d >> (width - 1) << width  # as a signed digit
            want = -1 if r == i else 0
            return (f"wt.beta column {v}, row {q.vertices[r]} is {d + want}, "
                    f"not {want}")
    return None


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
