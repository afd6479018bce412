"""Network-chart coordinates: partition functions, flow polynomials,
valuations, the birational X-mutation, and Plucker-relation checks.

Partition functions live in edge variables (one coordinate per edge of the
model); flow polynomials live in face variables away from the star face.
The two are tied together matching by matching: the face weight of a
matching is computed both from the dual-arrow linear system and from the
flow decomposition, and the two must agree.  Both routes of
``plabic.FaceGraph`` give the weights packed into one int, a field per
face in the flow polynomial's column order.

Both charts stay packed.  A model keeps its flow polynomials as one flow
table (``flow_table``), made in one pass over its matching table: per
boundary value the flow counts, packed weight -> number of matchings, and
the packed least weight.  A model without a matching table weighs only the
matchings of the value asked about (``flow_counts``), the rule
``plabic.masks_at`` follows.  The edge chart spreads each matching's edge
mask to 2-bit fields (``edge_counts``).  So every check compares packed
terms: the valuation is the packed least weight, X-mutation maps counts to
counts (``XStep``, ``x_mutate``), and a three-term relation multiplies
packed terms, one int addition per pair (``plucker_verify``); each
compares two dicts.  ``partition_function`` and ``flow_polynomial`` read
the packed keys as exponent tuples where a ``LaurentPoly`` is asked for:
to print it.  A face-weight violation names the boundary value and the
matching's edges.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations
from operator import add
from types import MappingProxyType

from .combinat import KSubset, format_ksubset, ksubsets
from .laurent import LaurentPoly, NotLaurent
from .plabic import (
    ModelInvariantError,
    PlabicModel,
    analyze,
    edge_names,
    enumerate_matchings,  # noqa: F401  re-exported: charts.enumerate_matchings
    face_graph,
    masks_at,
    matching_table,
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


def edge_counts(model: PlabicModel, I: KSubset) -> Mapping[int, int]:
    """The partition function of I as ``plucker_verify`` multiplies it: a
    read-only map from each matching's edge mask spread to 2-bit fields
    (edge i's exponent at bits 2i and 2i + 1 of the edge order) to its
    number of matchings, empty when I is not in the positroid.  Built once
    per model and I, from ``masks_at``."""
    I = tuple(I)
    return analyze(model).derive(("edge counts", I), lambda: _edge_counts(model, I))


def _edge_counts(model: PlabicModel, I: KSubset) -> Mapping[int, int]:
    # the binary digits of a mask read in base 4 put bit i at bit 2i
    return MappingProxyType(dict.fromkeys(
        (int(format(mask, "b"), 4) for mask in masks_at(model, I)), 1))


def partition_function(model: PlabicModel, I: KSubset) -> LaurentPoly:
    """Generating function of matchings with boundary value I, in edge
    variables, zero when I is not in the positroid: ``edge_counts`` read
    as exponent tuples, made once per model and I where a polynomial is
    asked for (printing)."""
    I = tuple(I)
    return analyze(model).derive(
        ("partition function", I), lambda: _partition_polynomial(model, I))


def _partition_polynomial(model: PlabicModel, I: KSubset) -> LaurentPoly:
    lattice = edge_lattice(model)
    fields = range(0, 2 * len(lattice), 2)
    return LaurentPoly.make(lattice, {tuple(s >> f & 3 for f in fields): c
                                      for s, c in edge_counts(model, I).items()})


# the flow counts and packed least weight of a value outside the positroid
_ZERO = (MappingProxyType({}), None)


def flow_table(model: PlabicModel) -> Mapping[KSubset, tuple[Mapping[int, int], int]]:
    """Every flow polynomial of the model, as the model keeps it: a
    read-only map from each boundary value of its positroid to (flow
    counts, packed least weight), made on the first request in one pass
    over the matching table, in positroid order, that weighs every
    matching and checks every value (``_weighed``)."""
    return analyze(model).derive("flow table", lambda: _flow_table(model))


def _flow_table(model: PlabicModel) -> Mapping[KSubset, tuple[Mapping[int, int], int]]:
    table, graph = matching_table(model), face_graph(model)
    groups = table.groups
    return MappingProxyType({I: _weighed(model, graph, I, groups[I]) for I in table.positroid})


def _flow_entry(model: PlabicModel, I: KSubset) -> tuple[Mapping[int, int], int | None]:
    """(flow counts, packed least weight) of I: read off the flow table
    when the model has its matching table, else weighed from I's own
    matchings once per model and I, the rule ``masks_at`` follows."""
    I = tuple(I)
    an = analyze(model)
    table = an.kept("flow table")
    if table is None:
        if an.kept("matching table") is None:
            return an.derive(("flow counts", I), lambda: _checked_flow_counts(model, I))
        table = flow_table(model)
    return table.get(I, _ZERO)


def flow_counts(model: PlabicModel, I: KSubset) -> Mapping[int, int]:
    """The flow polynomial of I as the model keeps it: a read-only map from
    each packed face weight (``plabic.FaceGraph``) to its number of
    matchings, empty when I is not in the positroid.  Its keys are the one
    place the face weights are kept."""
    return _flow_entry(model, I)[0]


def flow_least(model: PlabicModel, I: KSubset) -> int:
    """The leading exponent of the flow polynomial of I, packed: the
    coordinatewise least weight, which ``_weighed`` finds and checks to be
    a term.  Outside the positroid the polynomial is 0, which has none,
    and this raises ValueError."""
    least = _flow_entry(model, I)[1]
    if least is None:
        raise ValueError("zero polynomial has no valuation")
    return least


def _checked_flow_counts(model: PlabicModel, I: KSubset) -> tuple[Mapping[int, int], int | None]:
    """``_weighed`` on the matchings of I alone (``masks_at``)."""
    masks = masks_at(model, I)
    return _weighed(model, face_graph(model), I, masks) if masks else _ZERO


def _weighed(model: PlabicModel, graph, I: KSubset, masks) -> tuple[Mapping[int, int], int]:
    """The flow counts of I from its matchings' edge masks, and their
    packed least weight.

    Each matching is weighed by the dual-arrow system and independently by
    the flow decomposition (left-face counts), and the polynomial must have
    unique minimal and maximal exponents, both with coefficient 1
    (``flow-extremes``).  Weighing raises weight-negative on any face, so
    no exponent is negative."""
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
    extremes = graph.extremes(counts)
    for which, extreme in zip(("min", "max"), extremes):
        if counts.get(extreme) != 1:
            raise ModelInvariantError(
                "flow-extremes",
                f"{which} term of flow polynomial at {format_ksubset(I, model.n)}"
            )
    return MappingProxyType(counts), extremes[0]


def flow_polynomial(model: PlabicModel, I: KSubset) -> LaurentPoly:
    """Generating function of flows from I to the base boundary value, in
    face variables: ``flow_counts`` with each packed weight read as its
    exponent tuple, made once per model and I where a polynomial is asked
    for (printing)."""
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
    packed least weight (``flow_least``) read in the face lattice."""
    return dict(zip(face_lattice(model), face_graph(model).exponents(flow_least(model, I))))


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


def _multiply(f: Mapping[int, int], g: Mapping[int, int], bias: int, out: dict) -> dict:
    """Add the product of two packed polynomials, exponent -> coefficient,
    to ``out`` and return it.  Each exponent holds every field plus
    ``bias``, so the product of two terms is one int addition with the
    bias taken off once, from g's exponents; a field's sum must stay in
    its field, which the callers' bounds give.  Coefficients that cancel
    are kept as 0."""
    g = [(e - bias, c) for e, c in g.items()]
    get = out.get
    for e, c in f.items():
        for e2, c2 in g:
            e2 += e
            out[e2] = get(e2, 0) + c * c2
    return out


def _relation_holds(polys, bias: int) -> bool:
    ac, bd, ab, cd, ad, bc = polys
    return _multiply(ac, bd, bias, {}) == _multiply(ad, bc, bias, _multiply(ab, cd, bias, {}))


def plucker_verify(model: PlabicModel, rel) -> bool:
    """Check one three-term relation in both charts.

    The relation on (a, b, c, d, S) is
    D(Sac) D(Sbd) = D(Sab) D(Scd) + D(Sad) D(Sbc),
    with coordinates taken to be partition functions, then flow
    polynomials; subsets outside the positroid contribute zero.  Both sides
    are multiplied packed (``_multiply``) and compared as dicts; the counts
    are positive, so no coefficient cancels.  An edge field sums two
    exponents of 0 or 1, below its 4.  A face field sums two weights, each
    at most min(k, n - k), the number of paths of a flow; a model has F >=
    n faces, one per gap, so the sum is below 2F <= max(2F, E) <
    2^(width - 1), the field's bias (``plabic.FaceGraph``).
    """
    a, b, c, d, S = rel
    subsets = [_with(S, x, y) for x, y in ((a, c), (b, d), (a, b), (c, d), (a, d), (b, c))]
    return (_relation_holds([edge_counts(model, J) for J in subsets], 0)
            and _relation_holds([flow_counts(model, J) for J in subsets],
                                face_graph(model).bias))
