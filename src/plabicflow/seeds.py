"""Quivers, labelled seeds, kappa vectors, and tropical mutation.

A quiver is the dual graph of a plabic model: one vertex per face (named by
the face's label string, listed in the subset order of the labels), one
arrow per edge, boundary faces frozen.  Mutation keeps that order, so every
lattice derived from ``Quiver.vertices`` is in subset order too.  A seed
adds the k-subset labels.  Mutation comes in three flavors: ``fz_mutate``
(matrix mutation of the quiver alone), ``mutate_labels`` (seed-level, with
the Plucker exchange of the mutated label), and tropical A-mutation (the
piecewise-linear action on integer vectors), in two forms: ``trop_a_mutate``
on one vector and ``trop_a_column`` on a table of vectors held as columns,
which makes only the new column j.  Every exchange step reads j's arrows
as ``exchange_pairs``, (vertex, multiplicity) tuples in and out, which a
quiver reads off its arrows once per vertex and keeps.

A seed checks each label where it is made (a strictly increasing k-subset
of [n]) and keeps its bitmask in ``Seed.masks``, read by weak separation
and kappa.  Every seed that ``seed_of_model`` or ``mutate_labels`` returns
is pairwise weakly separated (Oh-Postnikov-Speyer): ``seed_of_model`` tests
every pair of masks once per model, ``mutate_labels`` only the exchanged
label against the parent's other masks, and both raise
``labels-not-weakly-separated`` naming a crossing pair.  Kappa is walked
from the masks into the one kappa memo (``_KAPPA_ROWS``), kept for the
process, and read from it as one vector (``kappa_vector``), as a table of
columns (``kappa_columns``) or as one label's column
(``kappa_label_column``).

A mutation changes one vertex, and ``mutate_labels`` builds the child from
its parent: the exchanged label is found on the masks of j's neighbourhood
and placed by bisection among the parent's labels, which are in vertex
order; it alone is checked and masked, once per seed and vertex
(``superpot.a_mutate_w`` at j finds it kept); the child's masks, labels
and kappa reader are the parent's with j's entry replaced, and a kappa row
that the parent read lacks only the new label's entry.  Only the arrows
among j and its neighbours can change: one pass over the parent's arrows
splits them from the others (``_fz_counts``), and only they are mutated,
checked as ``make_quiver`` checks arrows and merged, in order, into the
others by bisection from the last place.

beta is one list of positional entries (``_beta_entries``); the
exact-sequence check sums its rows and columns and the columns of wt . beta,
on kappa columns packed one int each, in one pass over them, and
``beta_columns`` is its column map.

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

from bisect import bisect_left
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, itemgetter
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
from .laurent import Packing, _field_size
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
    # mutable vertex -> its in/out (vertex, multiplicity) pairs, filled by
    # ``exchange_pairs``
    _pairs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lattice",
                           tuple(v for v in self.vertices if v != self.star))


def exchange_pairs(q: Quiver, j: str) -> tuple[tuple[tuple[str, int], ...],
                                                tuple[tuple[str, int], ...]]:
    """The arrows at a mutable vertex j, as tuples of (in-neighbour,
    multiplicity) and (out-neighbour, multiplicity) pairs in vertex order:
    the one read of j's arrows, which every exchange step makes.  They are
    read off the arrows in one pass, once per quiver and vertex.  An arrow
    at a mutable vertex has no reverse arrow (``make_quiver``), so these
    are also the positive exchange-matrix entries b_{uj} and b_{jv}.  An
    unknown vertex raises ``unknown-node``, a frozen one NotPlabicMutable."""
    memo = q._pairs
    if j not in memo:
        if j not in q.vertices:
            raise ModelInvariantError("unknown-node", f"no vertex {j}")
        if j in q.frozen:
            raise NotPlabicMutable(f"vertex {j} is frozen")
        ins, outs = [], []
        for u, v, m in q.arrows:
            if v == j:
                ins.append((u, m))
            elif u == j:
                outs.append((v, m))
        memo[j] = tuple(ins), tuple(outs)
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
    pos = {v: i for i, v in enumerate(vertices)}
    if len(pos) != len(vertices):
        raise ModelInvariantError("duplicate-label", "repeated quiver vertex")
    frozen = frozenset(frozen)
    if not frozen.issubset(pos) or star not in frozen:
        raise ModelInvariantError("unknown-node", "frozen/star not among vertices")
    arrows = _checked_arrows(pos, frozen, arrow_counts)
    return Quiver(vertices, frozen, star, tuple(arrows))


def _checked_arrows(order: Mapping, frozen, arrow_counts: dict) -> list[tuple[str, str, int]]:
    """``make_quiver``'s checks on arrow counts, whose ends must be keys of
    ``order``, and their arrows sorted by the values of ``order`` at their
    source, then at their target: an arrow to or from an unknown vertex
    (``unknown-node``), a loop (``bad-label``) and a two-cycle with a
    mutable end (``exchange-mismatch``) are refused, and counts of 0 or
    less dropped."""
    arrows = []
    for (u, v), mult in arrow_counts.items():
        if u not in order or v not in order:
            raise ModelInvariantError("unknown-node", f"arrow {u}->{v}")
        if u == v:
            raise ModelInvariantError("bad-label", f"loop at {u}")
        if mult <= 0:
            continue
        if (u not in frozen or v not in frozen) and arrow_counts.get((v, u), 0) > 0:
            raise ModelInvariantError(
                "exchange-mismatch", f"two-cycle between {u} and {v}"
            )
        arrows.append((u, v, mult))
    arrows.sort(key=lambda a: (order[a[0]], order[a[1]]))
    return arrows


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
    symmetry b'_{vu} loses it.  So the arrows between j and its neighbours
    are mutated (``_fz_counts``), the rest copied, and the one
    ``make_quiver`` checks them all.
    """
    counts, others = _fz_counts(q, j)
    return make_quiver(q.vertices, q.frozen, q.star,
                       {**{(u, v): mult for u, v, mult in others}, **counts})


def _fz_counts(q: Quiver, j: str) -> tuple[dict[tuple[str, str], int],
                                           list[tuple[str, str, int]]]:
    """``fz_mutate(q, j)`` near j and the arrows it copies, from one pass
    over the arrows: the arrow counts among j and its in- and
    out-neighbours, the only ones mutation at j can change, by the
    neighbourhood rule (the arrows there in arrow order, those at j
    reversed, and then each in-/out-neighbour pair of j that is not
    frozen-frozen with its net count), and every other arrow, in arrow
    order."""
    ins, outs = exchange_pairs(q, j)
    frozen = q.frozen
    near = {j, *(u for u, _m in ins), *(v for v, _m in outs)}
    # arrows at j reverse, the rest are copied; a pair with a mutable end
    # carries arrows one way only (``make_quiver``), so its net count is
    # the one arrow count
    counts, others = {}, []
    for a in q.arrows:
        u, v, mult = a
        if u not in near or v not in near:
            others.append(a)
        elif u == j or v == j:
            counts[v, u] = mult
        else:
            counts[u, v] = mult
    for u, mu in ins:
        for v, mv in outs:
            if u in frozen and v in frozen:
                continue
            net = counts.pop((u, v), 0) - counts.pop((v, u), 0) + mu * mv
            if net:
                counts[(u, v) if net > 0 else (v, u)] = abs(net)
    return counts, others


def _corner_rule(q: Quiver, j: str, counts: dict[tuple[str, str], int]) -> None:
    """The dimer update of frozen-frozen arrows after mutation at j.

    ``counts`` are the arrow counts of ``fz_mutate(q, j)`` near j
    (the first of ``_fz_counts``), updated in place.
    Each 2-path u -> j -> v with both u and v frozen sits at a corner of
    the quadrilateral face dual to j, and the square move reverses the
    corner's third arrow v -> u to u -> v.  Seeds reachable from the
    rectangles seed always carry that arrow; its absence means the quiver
    is not the dual of a plabic model.
    """
    ins, outs = exchange_pairs(q, j)
    for u, mu in ins:
        for v, mv in outs:
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


def _label_mask(J: KSubset, k: int, n: int) -> int | None:
    """The bitmask of J, bit x for element x, when J is a strictly
    increasing k-subset of [n]; None otherwise."""
    mask = last = 0
    for x in J:
        if x <= last:
            return None
        mask |= 1 << x
        last = x
    return mask if len(J) == k and last <= n else None


def _not_a_label(J, v: str, k: int, n: int) -> ValueError:
    return ValueError(f"label {J} of vertex {v} is not a strictly "
                      f"increasing {k}-subset of 1..{n}")


@dataclass(frozen=True)
class Seed:
    """A quiver with a k-subset of [n] on each vertex.  Everything a seed
    derives is made in ``__post_init__``, so a seed is complete when made:
    the labels' bitmasks and the kappa reader over them.  A mutated seed
    takes them from its parent instead (``mutate_labels``)."""

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
    # returns a tuple, the star's mask, and the masks a kappa row that lacks
    # some is filled with first: a mutated seed's one new mask, else none
    _kappa: tuple = field(init=False, repr=False, compare=False)
    # whether the vertices are in the subset order of their labels, which
    # mutation needs to place an exchanged label by bisection
    _ordered: bool = field(init=False, repr=False, compare=False)
    # mutable vertex -> its exchange (``_exchange``), filled on first use
    _exchanges: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        vertex_labels = tuple(tuple(self.labels[v]) for v in self.quiver.vertices)
        masks = []
        for v, J in zip(self.quiver.vertices, vertex_labels):
            mask = _label_mask(J, self.k, self.n)
            if mask is None:
                raise _not_a_label(J, v, self.k, self.n)
            masks.append(mask)
        star = masks[self.quiver.vertices.index(self.quiver.star)]
        _set_derived(self, vertex_labels, tuple(masks), star, (),
                     all(a < b for a, b in zip(vertex_labels, vertex_labels[1:])))


def _set_derived(s: Seed, vertex_labels, masks, star: int, new: tuple, ordered: bool):
    """Set what a seed derives from its labels: the labels in vertex order,
    their masks, the kappa reader, whether they are in order and an empty
    memo of exchanges."""
    get = itemgetter(*masks) if len(masks) > 1 else lambda row: (row[masks[0]],)
    for name, value in (("vertex_labels", vertex_labels), ("masks", masks),
                        ("_kappa", (get, star, new)), ("_ordered", ordered),
                        ("_exchanges", {})):
        object.__setattr__(s, name, value)


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
    """The Plucker exchange partner of label j in its quiver neighborhood,
    found on the bitmasks of j's label and its neighbors'.

    The two in-neighbors must carry S+{a,b} and S+{c,d}, the two
    out-neighbors S+{a,d} and S+{b,c} (or the roles swapped), and j itself
    S plus two of {a,b,c,d}; the exchange partner is S plus the other two.
    Raises NotPlabicMutable when the neighborhood does not have this shape.
    """
    ins, outs = exchange_pairs(q, j)
    n_in, n_out = sum(m for _u, m in ins), sum(m for _v, m in outs)
    if n_in != 2 or n_out != 2:
        raise NotPlabicMutable(f"vertex {j} has {n_in} in-arrows and {n_out} out-arrows")
    a, b = (_mask(labels[u]) for u, mult in ins for _ in range(mult))
    c, d = (_mask(labels[v]) for v, mult in outs for _ in range(mult))
    S, quad = a & b, a ^ b
    if c & d != S or c ^ d != quad:
        raise NotPlabicMutable(f"neighbor labels of {j} do not share a quadruple")
    J = _mask(labels[j])
    pair = J & ~S
    if quad.bit_count() != 4 or pair.bit_count() != 2 or pair & ~quad or J & S != S:
        raise NotPlabicMutable(f"label of {j} does not match its neighborhood")
    partner, elements = S | (quad ^ pair), []
    while partner:
        low = partner & -partner
        elements.append(low.bit_length() - 1)
        partner ^= low
    return tuple(elements)


def _exchange(s: Seed, j: str) -> tuple[str, KSubset, int, int, int]:
    """The label side of seed mutation at j: the partner's name, label and
    mask, j's position i among the vertices, and the partner's place p by
    bisection in the labels in vertex order, which the seed's vertices
    follow (the child's vertices are the parent's with the one at i left
    out and the partner put before the one at p; ``_moved``).  The partner
    is checked and masked as a seed's label is (ValueError), and refused
    when it is already a label or its name a vertex (``duplicate-label``);
    a seed whose vertices are out of label order is refused (ValueError).
    Kept per seed and vertex, a refusal not."""
    memo = s._exchanges
    if j in memo:
        return memo[j]
    label = exchange_label(s.quiver, s.labels, j)
    name = format_ksubset(label, s.n)
    mask = _label_mask(label, s.k, s.n)
    if mask is None:
        raise _not_a_label(label, name, s.k, s.n)
    if mask in s.masks:
        raise ModelInvariantError("duplicate-label", f"{name} already a label")
    if name != j and name in s.labels:
        raise ModelInvariantError("duplicate-label", "repeated quiver vertex")
    if not s._ordered:
        raise ValueError("the seed's vertices are not in label order")
    memo[j] = name, label, mask, s.quiver.vertices.index(j), bisect_left(s.vertex_labels, label)
    return memo[j]


def _moved(t: tuple, i: int, p: int, x) -> tuple:
    """t with its entry at i left out and x put before its entry at p."""
    if p <= i:
        return t[:p] + (x,) + t[p:i] + t[i + 1:]
    return t[:i] + t[i + 1:p] + (x,) + t[p:]


def label_exchange(s: Seed, j: str) -> tuple[str, KSubset, tuple[str, ...]]:
    """The label side of seed mutation at j: the name and label of j's
    exchange partner, and the quiver's vertices with j renamed, placed by
    the subset order of the labels.  Raises as ``_exchange`` does."""
    name, label, _mask, i, p = _exchange(s, j)
    return name, label, _moved(s.quiver.vertices, i, p, name)


def mutate_labels(s: Seed, j: str) -> Seed:
    """Seed mutation: quiver mutation plus the Plucker label exchange at j,
    the child built from its parent.

    The exchanged label is checked for weak separation against the parent's
    masks of the other m - 1 labels; every other pair is the parent seed's,
    which is pairwise weakly separated (``seed_of_model``), so the new seed
    is too.  A crossing raises ``labels-not-weakly-separated``, naming the
    exchanged label and its first crossing partner in vertex order.

    Only the arrows among j and its neighbours can change: ``_fz_counts``
    splits them from the parent's others in one pass and mutates them, the
    corner rule follows, and they are renamed at j, checked as
    ``make_quiver`` checks arrows, which sorts them, and merged into the
    others, which keep their order, each by bisection from where the one
    before went.  The labels, masks and kappa reader are the
    parent's with j's entry replaced; a kappa row the parent read lacks
    only the new mask, which a read fills first.
    """
    name, label, mask, i, p = _exchange(s, j)
    others = s.masks[:i] + s.masks[i + 1:]
    partner = crossing_partner(mask, others)
    if partner is not None:
        partner += partner >= i  # its index among the parent's labels
        raise ModelInvariantError(
            "labels-not-weakly-separated",
            f"after exchanging {j} -> {name}, which crosses "
            f"{format_ksubset(s.vertex_labels[partner], s.n)}",
        )
    q = s.quiver
    counts, arrows = _fz_counts(q, j)
    _corner_rule(q, j, counts)
    labels = dict(s.labels)
    del labels[j]
    labels[name] = label
    rn = lambda x: name if x == j else x
    vertices = _moved(q.vertices, i, p, name)
    # the vertices are in label order, so a label orders arrows as its
    # vertex's position would
    key = lambda a: (labels[a[0]], labels[a[1]])
    # the new arrows in order, merged into the others from the last place
    lo = 0
    for a in _checked_arrows(labels, q.frozen,
                             {(rn(u), rn(v)): m for (u, v), m in counts.items()}):
        lo = bisect_left(arrows, key(a), lo, key=key)
        arrows.insert(lo, a)
        lo += 1
    child = object.__new__(Seed)
    for field_name, value in (("k", s.k), ("n", s.n), ("labels", MappingProxyType(labels)),
                              ("quiver", Quiver(vertices, q.frozen, q.star, tuple(arrows)))):
        object.__setattr__(child, field_name, value)
    _set_derived(child, _moved(s.vertex_labels, i, p, label), _moved(s.masks, i, p, mask),
                 s._kappa[1], (mask,), True)
    return child


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
    (``Seed._kappa``) on I's kappa row; a row that lacks labels is filled
    (``_fill_row``) and read again, so a miss costs one exception and no
    decoding of a mask.  A star label with nonzero kappa raises
    ``bad-label``.
    """
    row = _KAPPA_ROWS.get((I, s.n))
    if row is None or len(I) != s.k:
        row = _new_row(s, I)
    get, star, _new = s._kappa
    try:
        col = get(row)
    except KeyError:
        col = _fill_row(s, row, _mask(I))
    if row[star]:
        raise ModelInvariantError(
            "bad-label", f"star label {s.labels[s.quiver.star]} has nonzero kappa"
        )
    return col


def _new_row(s: Seed, I: KSubset) -> dict[int, int]:
    """The kappa row of I, made empty where the memo lacks it, once I is
    checked: a size other than the seed's k, then a bad I, raises
    ValueError and leaves no row."""
    if len(I) != s.k:
        raise ValueError(f"size mismatch: {I} is not a {s.k}-subset")
    row = _KAPPA_ROWS.get((I, s.n))
    if row is None:
        check_ksubset(I, s.n)
        row = _KAPPA_ROWS[(I, s.n)] = {}
    return row


def kappa_columns(s: Seed, subsets) -> dict[str, tuple[int, ...]]:
    """The kappa vectors of ``subsets`` on the seed as a table of columns:
    vertex -> its coordinate in the kappa vector of each subset, in the
    order of ``subsets``, columns in vertex order.  Each vector is read as
    ``kappa_vector`` reads it, with its checks, but no dict is made: the
    columns are read off the filled rows, and no vector is held."""
    rows = []
    for I in subsets:
        I = tuple(I)
        _kappa_column(s, I)
        rows.append(_KAPPA_ROWS[(I, s.n)])
    return {v: tuple(map(itemgetter(mask), rows))
            for v, mask in zip(s.quiver.vertices, s.masks)}


def kappa_label_column(s: Seed, v: str, subsets) -> list[int]:
    """Column v of ``kappa_columns(s, subsets)`` alone: the MaxDiag of v's
    label against each subset, read off the kappa rows, a missing entry
    walked from the masks and kept.  No other coordinate is read, so the
    star's entry is not checked here."""
    mask = s.masks[s.quiver.vertices.index(v)]
    rows, n, k = _KAPPA_ROWS, s.n, s.k
    col = []
    for I in subsets:
        I = tuple(I)
        row = rows.get((I, n))
        if row is None or len(I) != k:
            row = _new_row(s, I)
        x = row.get(mask)
        if x is None:
            x = row[mask] = _max_diag_masks(mask, _mask(I))
        col.append(x)
    return col


def _fill_row(s: Seed, row: dict[int, int], i: int) -> tuple[int, ...]:
    """Fill the entries that the kappa row of the subset with mask i lacks
    for the seed's labels, and read its column.  The reader's new masks
    come first: a mutated seed's one new label is all that a row its
    parent read lacks.  Every mask of the seed follows if the row still
    lacks some."""
    get, _star, new = s._kappa
    for j in new:
        if j not in row:
            row[j] = _max_diag_masks(j, i)
    try:
        return get(row)
    except KeyError:
        pass
    for j in s.masks:
        if j not in row:
            row[j] = _max_diag_masks(j, i)
    return get(row)


def _beta_entries(q: Quiver) -> list[tuple[int, int, int]]:
    """The boundary map from vertex simples to vertex projectives as
    (row, column, entry) by vertex position, entries at one position adding
    up: per arrow u -> v of multiplicity m, -m at row v of column u and,
    unless both ends are frozen, m at row u of column v; then 1 at the
    diagonal of each frozen vertex, in vertex order.

    So column v at an interior vertex is (sum of in-neighbors) - (sum of
    out-neighbors); at a boundary vertex it is e_v - (sum of out-neighbors)
    + (sum of interior in-neighbors).  The one definition of beta, read by
    ``beta_columns`` and ``exact_sequence_checks``.
    """
    pos = {v: i for i, v in enumerate(q.vertices)}
    frozen = q.frozen
    out = []
    for u, v, mult in q.arrows:
        a, b = pos[u], pos[v]
        out.append((b, a, -mult))
        if u not in frozen or v not in frozen:
            out.append((a, b, mult))
    out += [(i, i, 1) for i, v in enumerate(q.vertices) if v in frozen]
    return out


def _check_rows(q: Quiver, rows: list[int]) -> None:
    """Raise ``beta-unbalanced`` at the first row of beta, in vertex order,
    whose sum (in ``rows``, by position) is not 0."""
    for r, total in enumerate(rows):
        if total:
            raise ModelInvariantError(
                "beta-unbalanced",
                f"beta row {q.vertices[r]} sums to {total}, not 0: all-ones vector "
                "not annihilated; seed outside the supported class",
            )


def beta_columns(s: Seed) -> dict[str, dict[str, int]]:
    """beta by column (``_beta_entries``): column -> row -> entry, nonzero
    entries only, columns in vertex order.

    Raises ``beta-unbalanced`` when a row does not sum to 0, that is when
    beta does not annihilate the all-ones vector, naming the first such row
    in vertex order and its sum.
    """
    q = s.quiver
    vertices = q.vertices
    cols: list[dict[str, int]] = [{} for _ in vertices]
    rows = [0] * len(vertices)
    for r, c, e in _beta_entries(q):
        rows[r] += e
        col, row = cols[c], vertices[r]
        if total := col.get(row, 0) + e:
            col[row] = total
        else:
            col.pop(row, None)
    _check_rows(q, rows)
    return dict(zip(vertices, cols))


def exact_sequence_checks(s: Seed) -> bool:
    """Two matrix identities tying beta, rank, and weight together.

    Every column of beta sums to 0 (rank of beta is 0), and wt composed
    with beta is minus the identity away from the star coordinate.  The
    third, beta of the all-ones vector is 0, is checked first: a seed that
    breaks it raises ``beta-unbalanced``, as ``beta_columns`` does.  Then a
    star label with nonzero kappa raises ``bad-label``, as ``kappa_vector``
    does, but only once the column sums hold.

    All three run in one pass over beta's entries by vertex position
    (``_beta_entries``), which sums beta's rows and columns and adds up
    each column of wt . beta on packed kappa columns.  The kappa vector of
    each label, a tuple in vertex order, is packed into one int with a
    field of ``width`` bits per vertex, vertex i at bit width * i (a
    ``laurent.Packing`` less its bias).  Column v of wt . beta plus e_v is
    then the one integer 2^(width * i) + sum over w of beta[w, v] times
    the packed kappa of label(w), and the column passes exactly when it is
    0.  The star's entry is 0 in every kappa vector (``bad-label``
    otherwise), so the star row needs no exception.

    Width rule: every kappa entry lies in 0..top and every column of beta
    has sum of |entries| at most reach = 1 + the sum of the arrows'
    multiplicities (an arrow adds its multiplicity to at most one entry of
    a column, the diagonal adds 1), so each field of the sum, read as a
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


def _exact_sequence_witness(s: Seed) -> str | None:
    """``exact_sequence_checks``, naming its witness: None when both
    identities hold, else the first column of beta, in vertex order, that
    does not sum to 0, or the first column v of wt . beta that is not -e_v
    with its first differing row and that row's entry."""
    q = s.quiver
    vertices = q.vertices
    m = len(vertices)
    try:
        wt = [_kappa_column(s, J) for J in s.vertex_labels]
        star_kappa = None
    except ModelInvariantError as exc:  # bad-label, raised once beta's sums hold
        wt, star_kappa = [(0,) * m] * m, exc
    top = max(map(max, wt))
    size = _field_size(1 + (1 + sum(mult for _u, _v, mult in q.arrows)) * top)
    packing = Packing(size, m)
    width = packing.width
    packed = [packing.pack(col) - packing.bias for col in wt]
    rows, cols = [0] * m, [0] * m
    acc = [1 << (width * i) for i in range(m)]  # column i of wt . beta, plus e_i
    for r, c, e in _beta_entries(q):
        rows[r] += e
        cols[c] += e
        acc[c] += e * packed[r]
    _check_rows(q, rows)
    for c, total in enumerate(cols):
        if total:
            return f"beta column {vertices[c]} sums to {total}, not 0"
    if star_kappa:
        raise star_kappa
    for i, a in enumerate(acc):
        if a and vertices[i] != q.star:
            r = ((a & -a).bit_length() - 1) // width  # first row that differs
            d = (a >> (width * r)) & ((1 << width) - 1)
            d -= d >> (width - 1) << width  # as a signed digit
            want = -1 if r == i else 0
            return (f"wt.beta column {vertices[i]}, row {vertices[r]} is {d + want}, "
                    f"not {want}")
    return None


# ------------------------------------------------------ tropical mutation


def trop_a_mutate(q: Quiver, j: str, v: dict[str, int]) -> dict[str, int]:
    """Piecewise-linear mutation of an integer vector at vertex j.

    v'_j = min(sum over in-arrows, sum over out-arrows) - v_j with arrow
    multiplicities; all other coordinates are unchanged.  The result is a
    new dict in the order of v.  The sums are plain loops over j's
    ``exchange_pairs``, taken from the quiver's memo where it holds them,
    so only a first read at j calls it; ``trop_a_column`` is the same map
    on a table of vectors held as columns.
    """
    ins, outs = q._pairs.get(j) or exchange_pairs(q, j)
    s_in = s_out = 0
    for u, mult in ins:
        s_in += mult * v[u]
    for w, mult in outs:
        s_out += mult * v[w]
    out = v.copy()
    out[j] = (s_in if s_in < s_out else s_out) - v[j]
    return out


def trop_a_column(q: Quiver, j: str, columns: Mapping[str, Sequence[int]]) -> list[int]:
    """``trop_a_mutate`` at j of every vector of a table held as columns,
    vertex -> its coordinate in each vector: the new column j, entry by
    entry min(sum over in-arrows, sum over out-arrows) less the old entry,
    read off j's ``exchange_pairs``.  Every other column is unchanged, so
    none is made."""
    ins, outs = exchange_pairs(q, j)
    col = columns[j]
    return [(a if a < b else b) - c for a, b, c in zip(
        _column_sum(ins, columns, len(col)), _column_sum(outs, columns, len(col)), col)]


def _column_sum(pairs, columns: Mapping[str, Sequence[int]], size: int) -> list[int]:
    """The columns of the pairs' vertices, each times its multiplicity,
    added entry by entry; ``size`` zeros for no pairs."""
    total = [0] * size
    for u, mult in pairs:
        col = columns[u]
        total = list(map(add, total, col if mult == 1 else [mult * x for x in col]))
    return total
