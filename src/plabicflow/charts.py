"""Network-chart coordinates: partition functions, flow polynomials,
valuations, the birational X-mutation, and Plucker-relation checks.

Partition functions live in edge variables (one coordinate per edge of the
model); flow polynomials live in face variables away from the star face.
The two are tied together matching by matching: the face weight of a
matching is computed both from the dual-arrow linear system and from the
flow decomposition, and the two must agree.  Both routes of
``plabic.FaceGraph`` give the weights packed into one int, a field per
face in the flow polynomial's column order.  A model keeps each flow
polynomial as its flow counts, packed weight -> number of matchings
(``flow_counts``), so no weight list is built per matching, and the checks
stay packed: the valuation is the least weight that ``FaceGraph.extremes``
finds, and X-mutation maps counts to counts (``XStep``, ``x_mutate``), so
a square move's check compares two dicts.  ``flow_polynomial`` reads each
packed weight as an exponent tuple, once, where a ``LaurentPoly`` is asked
for: to print it, and for the products of the Plucker relations.  A
face-weight violation names the boundary value and the matching's edges.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations
from operator import add
from types import MappingProxyType

from .combinat import KSubset, format_ksubset, ksubsets
from .laurent import (
    LaurentPoly,
    NotLaurent,
    lp_add,
    lp_equal,
    lp_mul,
)
from .plabic import (
    ModelInvariantError,
    PlabicModel,
    analyze,
    edge_names,
    enumerate_matchings,  # noqa: F401  re-exported: charts.enumerate_matchings
    face_graph,
    masks_at,
)
from .seeds import neighbours, seed_of_model


def edge_lattice(model: PlabicModel) -> tuple[str, ...]:
    """The edge variables, in the edge order of the edge masks."""
    return analyze(model).edges


def face_lattice(model: PlabicModel) -> tuple[str, ...]:
    """Face labels in subset order, star face omitted; named once per model."""
    an = analyze(model)
    return an.derive("face lattice", lambda: tuple(
        format_ksubset(I, model.n) for I in an.lattice
        if I != an.faces[an.star].label))


def partition_function(model: PlabicModel, I: KSubset) -> LaurentPoly:
    """Generating function of matchings with boundary value I, in edge
    variables; zero when I is not in the positroid.  It is built once per
    model and I."""
    I = tuple(I)
    return analyze(model).derive(
        ("partition function", I), lambda: _partition_polynomial(model, I))


def _partition_polynomial(model: PlabicModel, I: KSubset) -> LaurentPoly:
    lattice = edge_lattice(model)
    bits = range(len(lattice))
    pos: dict[tuple, int] = {}
    for mask in masks_at(model, I):
        exp = tuple(mask >> i & 1 for i in bits)
        pos[exp] = pos.get(exp, 0) + 1
    return LaurentPoly.make(lattice, pos)


def flow_counts(model: PlabicModel, I: KSubset) -> Mapping[int, int]:
    """The flow polynomial of I as the model keeps it: a read-only map from
    each packed face weight (``plabic.FaceGraph``) to its number of
    matchings, empty when I is not in the positroid.

    Each matching with boundary value I is weighed by the dual-arrow system
    and independently by the flow decomposition (left-face counts), and the
    polynomial must have unique minimal and maximal exponents, both with
    coefficient 1.  It is built and checked once per model and I, and its
    keys are the one place the face weights are kept.
    """
    I = tuple(I)
    return analyze(model).derive(
        ("flow counts", I), lambda: _checked_flow_counts(model, I))


def _checked_flow_counts(model: PlabicModel, I: KSubset) -> Mapping[int, int]:
    # weighing raises weight-negative on any face, so no exponent is negative
    masks = masks_at(model, I)
    if not masks:
        return MappingProxyType({})
    graph = face_graph(model)
    weigh = graph.weigh
    counts: dict[int, int] = {}  # packed face weights -> matchings
    try:
        for mask in masks:
            w = weigh(mask)
            counts[w] = counts.get(w, 0) + 1
    except ModelInvariantError as exc:
        raise ModelInvariantError(exc.violation, (
            f"at I={format_ksubset(I, model.n)}, matching "
            f"{','.join(edge_names(model, mask))}: {exc.detail}")) from exc
    # the coordinatewise least and greatest exponents must be terms, each
    # with coefficient 1
    for which, extreme in zip(("min", "max"), graph.extremes(counts)):
        if counts.get(extreme) != 1:
            raise ModelInvariantError(
                "flow-extremes",
                f"{which} term of flow polynomial at {format_ksubset(I, model.n)}"
            )
    return MappingProxyType(counts)


def flow_polynomial(model: PlabicModel, I: KSubset) -> LaurentPoly:
    """Generating function of flows from I to the base boundary value, in
    face variables: ``flow_counts`` with each packed weight read as its
    exponent tuple, made once per model and I where a polynomial is asked
    for (printing, and the products of ``plucker_verify``)."""
    I = tuple(I)
    return analyze(model).derive(
        ("flow polynomial", I), lambda: _flow_view(model, I))


def _flow_view(model: PlabicModel, I: KSubset) -> LaurentPoly:
    counts = flow_counts(model, I)
    if not counts:
        return LaurentPoly.make(face_lattice(model), {})
    exponents = face_graph(model).exponents
    return LaurentPoly.make(face_lattice(model),
                            {exponents(w): c for w, c in counts.items()})


def valuation(model: PlabicModel, I: KSubset) -> dict[str, int]:
    """The leading exponent of the flow polynomial of I, by name: its
    coordinatewise least exponent, found packed by ``FaceGraph.extremes``.
    ``flow_counts`` checks that it is a term, so it is the one minimal
    exponent.  Outside the positroid the polynomial is 0, which has none,
    and this raises ValueError."""
    counts = flow_counts(model, I)
    if not counts:
        raise ValueError("zero polynomial has no valuation")
    graph = face_graph(model)
    return dict(zip(face_lattice(model), graph.exponents(graph.extremes(counts)[0])))


# ------------------------------------------------------------ X-mutation


class XStep:
    """The X-mutation at the face named j, from the flow counts of
    ``moved``, the model's square move at j, to the model's packing: made
    once per move and applied to each boundary value by ``x_mutate``.

    The moved model's lattice must be the model quiver's with j renamed
    (``quiver-fz-mismatch`` otherwise); the renamed face j' sits in column
    p' of the moved packing and j in column p of the model's.  The step
    keeps the shifts that read the fields of j' and of j's neighbours, and
    the masks that move the fields between columns p and p' one column
    over, leaving j's column empty.  When the two face graphs differ in
    field width (a move can add edges), ``x_mutate`` first re-packs each
    weight at the model's width.
    """

    def __init__(self, model: PlabicModel, j: str, moved: PlabicModel):
        q = seed_of_model(model).quiver
        incoming = face_lattice(moved)
        old = q.lattice
        extra = [x for x in incoming if x not in q.vertices]
        missing = [x for x in old if x not in incoming]
        if len(incoming) != len(old) or len(extra) != 1 or missing != [j]:
            raise ModelInvariantError(
                "quiver-fz-mismatch",
                f"lattice {list(incoming)} does not match quiver vertices at {j}",
            )
        ins, outs = neighbours(q, j)
        self.graph = graph = face_graph(model)
        self.moved_graph = face_graph(moved)
        W = graph.width
        self.half = 1 << (W - 1)
        self.mask = (1 << W) - 1
        column = {x: W * p for p, x in enumerate(incoming)}
        # (shift, multiplicity) of each in- and out-neighbour in the lattice;
        # the star's weight is 0
        self.ins = tuple((column[x], m) for x, m in ins.items() if x in column)
        self.outs = tuple((column[x], m) for x, m in outs.items() if x in column)
        p, p2 = old.index(j), incoming.index(extra[0])
        self.renamed = W * p2  # j' in the moved packing
        self.column = W * p  # j in the model's
        # the fields from column p up to j', or from past j' up to p, move
        # one column towards j's; the rest stay, and j's column is left 0
        if p2 >= p:
            self.between = (1 << W * p2) - (1 << W * p)
            self.up, self.down = W, 0
        else:
            self.between = (1 << W * (p + 1)) - (1 << W * (p2 + 1))
            self.up, self.down = 0, W
        self.stay = (1 << graph.face_bits) - 1 & ~self.between & ~(self.mask << self.renamed)
        self._rows = [(1,)]  # rows of Pascal's triangle, (1 + x_j)^E

    def row(self, E: int) -> tuple[int, ...]:
        """The coefficients of (1 + x_j)^E, each row made from the one
        before on first use."""
        rows = self._rows
        while len(rows) <= E:
            last = rows[-1]
            rows.append((1, *map(add, last[:-1], last[1:]), 1))
        return rows[E]


def x_mutate(step: XStep, counts: Mapping[int, int]) -> dict:
    """Pull the flow counts of the moved model back along ``step``: the
    packed X-mutation of their polynomial, keyed as ``flow_counts`` keys
    the model's, so it equals them exactly when the images agree.

    The coordinate at j inverts and every other coordinate i picks up
    x_j^max(-b_ij, 0) (1 + x_j)^b_ij, so the term c x^e goes to c x^r
    x_j^a (1 + x_j)^E: r is e with j' moved out of its column, and with
    m_i the multiplicity of i's arrow to or from j, a is the sum of m_i e_i
    over the out-neighbours less e_j', and E the sum over the in-neighbours
    less the one over the out-neighbours.  The terms fall into chains
    along x_j by r.  A chain's terms with E >= 0
    expand in place; those with E < 0, with -D the least E of the chain,
    give N = sum c x_j^a (1 + x_j)^(E + D), which must be a multiple of
    (1 + x_j)^D (``NotLaurent`` otherwise), and the quotient joins the
    chain.  A term whose x_j exponent is outside [0, 2^(width - 1)) is no
    term of any flow polynomial of the model; it is keyed (r, exponent)
    instead, so that it still counts and never meets a packed key.
    """
    graph, moved = step.graph, step.moved_graph
    into = moved.bias
    if moved.width != graph.width:
        counts = {graph.pack(moved.exponents(w)): c for w, c in counts.items()}
        into = graph.bias
    bias, mask, renamed = graph.bias, step.mask, step.renamed
    ins, outs = step.ins, step.outs
    stay, between, up, down = step.stay, step.between, step.up, step.down
    row = step.row
    # r, packed with the bias -> x_j exponent -> coefficient; and the terms
    # (a, E, c) with E < 0 of each r
    chains: dict[int, dict[int, int]] = {}
    lows: dict[int, list[tuple[int, int, int]]] = {}
    for w, c in counts.items():
        x = w - into
        a = 0
        for s, m in outs:
            a += m * (x >> s & mask)
        E = -a
        for s, m in ins:
            E += m * (x >> s & mask)
        a -= x >> renamed & mask
        r = (x & stay | (x & between) << up >> down) + bias
        if E < 0:
            lows.setdefault(r, []).append((a, E, c))
            continue
        chain = chains.get(r)
        if chain is None:
            chain = chains[r] = {}
        for t, b in enumerate(row(E), a):
            chain[t] = chain.get(t, 0) + b * c
    for r, terms in lows.items():
        D = -min(E for _, E, _ in terms)
        low: dict[int, int] = {}
        for a, E, c in terms:
            for t, b in enumerate(row(E + D), a):
                low[t] = low.get(t, 0) + b * c
        chain = chains.setdefault(r, {})
        for t, c in _divide(low, D).items():
            chain[t] = chain.get(t, 0) + c
    half, column = step.half, step.column
    image: dict = {}
    for r, chain in chains.items():
        for t, c in chain.items():
            if c:
                image[r + (t << column) if 0 <= t < half else (r, t)] = c
    return image


def _divide(low: dict[int, int], D: int) -> dict[int, int]:
    """low / (1 + x)^D for a Laurent polynomial in one variable, given as
    exponent -> coefficient: D divisions by 1 + x from the lowest term up,
    each exact or NotLaurent."""
    exps = [t for t, c in low.items() if c]
    if not exps:
        return {}
    lo = min(exps)
    a = [0] * (max(exps) - lo + 1)
    for t, c in low.items():
        a[t - lo] += c
    for _ in range(D):
        q, prev = [], 0
        for c in a[:-1]:
            prev = c - prev
            q.append(prev)
        if a[-1] != prev:
            raise NotLaurent("division is not exact")
        a = q
    return {lo + i: c for i, c in enumerate(a) if c}


# ------------------------------------------------------ Plucker relations


def three_term_relations(k: int, n: int):
    """All (a, b, c, d, S) with S a (k-2)-subset and a<b<c<d outside S;
    none when k < 2."""
    if k < 2:
        return
    for S in ksubsets(n, k - 2):
        rest = [x for x in range(1, n + 1) if x not in S]
        for a, b, c, d in combinations(rest, 4):
            yield (a, b, c, d, S)


def _with(S, x, y):
    return tuple(sorted(set(S) | {x, y}))


def plucker_verify(model: PlabicModel, rel) -> bool:
    """Check one three-term relation in both charts.

    The relation on (a, b, c, d, S) is
    D(Sac) D(Sbd) = D(Sab) D(Scd) + D(Sad) D(Sbc),
    with coordinates taken to be partition functions, then flow
    polynomials; subsets outside the positroid contribute zero.
    """
    a, b, c, d, S = rel
    for coord in (partition_function, flow_polynomial):
        ac, bd = coord(model, _with(S, a, c)), coord(model, _with(S, b, d))
        ab, cd = coord(model, _with(S, a, b)), coord(model, _with(S, c, d))
        ad, bc = coord(model, _with(S, a, d)), coord(model, _with(S, b, c))
        lhs = lp_mul(ac, bd)
        rhs = lp_add(lp_mul(ab, cd), lp_mul(ad, bc))
        if not lp_equal(lhs, rhs):
            return False
    return True
