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
counts by the exchange step that A-mutation shares (``laurent._exchange``,
set up by ``XStep`` and keyed by ``x_mutate``), and a three-term relation
multiplies packed terms, one int addition per pair (``plucker_verify``);
each compares two dicts.  ``partition_function`` and ``flow_polynomial`` read
the packed keys as exponent tuples where a ``LaurentPoly`` is asked for:
to print it.  A face-weight violation names the boundary value and the
matching's edges.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations
from types import MappingProxyType

from .combinat import KSubset, format_ksubset, ksubsets
from .laurent import LaurentPoly, _exchange
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
    ``moved``, the model's square move at j, to the model's packing: the
    exchange step's parameters, made once per move for ``x_mutate``.

    The moved model's lattice must be the model quiver's with j renamed
    (``quiver-fz-mismatch`` otherwise).  The re-key (``Packing.rekey``)
    moves the face fields between j's column in the model and j''s in the
    moved packing one column over, drops j''s and the residual fields, and
    or-s in a biased 0 at j's and the model's residual fields.
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
        self.half = half = 1 << (W - 1)
        column = {x: W * p for p, x in enumerate(incoming)}
        p, p2 = old.index(j), incoming.index(extra[0])
        # E and a as ``x_mutate`` reads them; the star's weight is 0
        self.reads = (*((column[x], m, 0) for x, m in ins.items() if x in column),
                      *((column[x], -m, m) for x, m in outs.items() if x in column),
                      (W * p2, 0, -1))
        self.column = W * p  # j in the model's packing; y = x_j
        keep, between, up, down = graph.packing.rekey(p2, p)
        faces = graph.face_bits
        self.rekey = (keep & (1 << faces) - 1, between, up, down,
                      graph.bias >> faces << faces | half << self.column)


def x_mutate(step: XStep, counts: Mapping[int, int]) -> dict:
    """Pull the flow counts of the moved model back along ``step``: the
    packed X-mutation of their polynomial, keyed as ``flow_counts`` keys
    the model's, so it equals them exactly when the images agree.

    x_j inverts and every other x_i picks up x_j^max(-b_ij, 0) (1 +
    x_j)^b_ij: the exchange step (``laurent._exchange``) with y = x_j, no
    lift, E the sum of m_i e_i over the in-neighbours less that over the
    out-neighbours, m_i the multiplicity of i's arrow, and a the latter
    less e_j'.  Counts of another field width (a move can add edges) are
    re-packed at the model's first.  A term whose x_j exponent t is
    outside [0, 2^(width - 1)) is in no flow polynomial of the model; it
    is keyed (r, t), so that it still counts and never meets a packed key.
    """
    graph, moved = step.graph, step.moved_graph
    if moved.width != graph.width:
        counts = {graph.pack(moved.exponents(w)): c for w, c in counts.items()}
    column = step.column
    image, chains = _exchange(counts, graph.width, step.rekey, step.reads,
                              1 << column, 0, (column, 1))
    half, get = step.half, image.get
    for r, chain in chains.items():
        for t, c in chain.items():
            key = r + (t << column) if 0 <= t < half else (r, t)
            image[key] = get(key, 0) + c
    return {key: c for key, c in image.items() if c}


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
