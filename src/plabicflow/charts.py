"""Network-chart coordinates: partition functions, flow polynomials,
valuations, the birational X-mutation, and Plucker-relation checks.

Partition functions live in edge variables (one coordinate per edge of the
model); flow polynomials live in face variables away from the star face.
The two are tied together matching by matching: the face weight of a
matching is computed both from the dual-arrow linear system and from the
flow decomposition, and the two must agree.  Both routes of
``plabic.FaceGraph`` give the weights packed into one int, a field per
face in the flow polynomial's column order; a flow polynomial counts its
matchings by packed value and reads each exponent tuple off the packed
value once, so no weight list is built per matching.  A face-weight
violation names the boundary value and the matching's edges.  The
valuation of a flow polynomial is its leading exponent, read off its first
term, since a ``LaurentPoly`` keeps its terms sorted.
"""

from __future__ import annotations

from itertools import combinations

from .combinat import KSubset, format_ksubset, ksubsets
from .laurent import (
    LaurentPoly,
    Substitution,
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
from .seeds import Quiver, neighbours


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


def flow_polynomial(model: PlabicModel, I: KSubset) -> LaurentPoly:
    """Generating function of flows from I to the base boundary value, in
    face variables.

    Each matching with boundary value I contributes the monomial of its
    face weight, from the dual-arrow system and independently from the
    flow decomposition (left-face counts), and the polynomial must have unique
    minimal and maximal exponents, both with coefficient 1.  It is built
    and checked once per model and I, and its exponents are the one place
    the face weights are kept.
    """
    I = tuple(I)
    return analyze(model).derive(
        ("flow polynomial", I), lambda: _checked_flow_polynomial(model, I))


def _checked_flow_polynomial(model: PlabicModel, I: KSubset) -> LaurentPoly:
    # weighing raises weight-negative on any face, so no exponent is negative
    lattice = face_lattice(model)
    masks = masks_at(model, I)
    if not masks:
        return LaurentPoly.make(lattice, {})
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
                "flow-extremes", f"{which} term of flow polynomial at {I}"
            )
    exponents = graph.exponents
    return LaurentPoly.make(lattice, {exponents(w): c for w, c in counts.items()})


def valuation(f: LaurentPoly) -> dict[str, int]:
    """The leading exponent of f: its first term's, by name.

    The terms are sorted by exponent, and an exponent below another one
    coordinatewise also comes before it in lex order, so the first is a
    minimal exponent; of a flow polynomial it is the least one, which
    ``flow_polynomial`` checks is unique.  The zero polynomial has none and
    raises ValueError.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no valuation")
    return dict(zip(f.lattice, f.terms[0][0]))


# ------------------------------------------------------------ X-mutation


def x_mutate(q: Quiver, j: str, f: LaurentPoly) -> LaurentPoly:
    """Pull a Laurent polynomial on the seed mutated at j back to the seed
    of quiver q.

    The coordinate at the mutated vertex inverts, every other coordinate i
    picks up a factor (1 + x_j)^{b_ij} after clearing the monomial
    x_j^{max(-b_ij, 0)}: one substitution with the exchange binomial
    u = 1 + x_j.  The result lives on ``q.lattice``.
    The substitution is built once per quiver, j and f's lattice, and kept
    on the quiver.
    """
    key = (j, f.lattice)
    step = q._x_steps.get(key)
    if step is None:
        step = q._x_steps[key] = _x_step(q, j, f.lattice)
    return step.apply(f)


def _x_step(q: Quiver, j: str, incoming: tuple[str, ...]) -> Substitution:
    """The substitution of ``x_mutate`` at j for polynomials on the lattice
    ``incoming``, which must be q's lattice with j renamed: the lattice of
    the seed mutated at j."""
    ins, outs = neighbours(q, j)
    old = q.lattice
    extra = [x for x in incoming if x not in q.vertices]
    missing = [x for x in old if x not in incoming]
    if len(incoming) != len(old) or len(extra) != 1 or missing != [j]:
        raise ModelInvariantError(
            "quiver-fz-mismatch",
            f"lattice {list(incoming)} does not match quiver vertices at {j}",
        )
    images = {}
    for x in incoming:
        if x == extra[0]:
            images[x] = ({j: -1}, 0)
        else:
            bij = ins.get(x, 0) - outs.get(x, 0)
            images[x] = ({x: 1, j: max(-bij, 0)}, bij)
    one_plus_xj = lp_add(LaurentPoly.one(old), LaurentPoly.monomial(old, {j: 1}))
    return Substitution(incoming, images, one_plus_xj)


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
