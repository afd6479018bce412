"""The superpotential of the rectangles seed, in two coordinate systems.

The A-form lives in cluster variables p_v (one per face, plus q) and is a
sum of degree-0 ratios; the X-form lives in the simples variables x_v and
is assembled from quotient F-polynomials of uniserial modules, one group
per boundary vertex.  The change of basis between them is the dual of the
boundary matrix, and ``verify_wformula`` checks the two agree exactly.

Every change of variables is one ``lp_substitute`` call, a plain monomial
map (u = 1 over the codomain) but for A-mutation: x_u -> q^[u = corner] *
prod_v p_v^(-beta[u, v]) (the beta-dual image), p_star -> 1 (the A-form
side), and q -> prod_u y_u, p_v -> prod_u y_u^(kappa of label(u) at v)
(the g-vector cone)."""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone, grid_label, make_cone
from .laurent import (
    LaurentPoly,
    lp_add,
    lp_equal,
    lp_mul,
    lp_substitute,
)
from .plabic import ModelInvariantError
from .seeds import (
    Seed,
    beta_columns,
    kappa_vector,
    label_exchange,
    neighbours,
    rectangles_seed,
)


@dataclass
class SuperpotentialExpr:
    poly: LaurentPoly
    tag: str  # "A-form" | "X-form"


def _check_a_form(f: LaurentPoly, single_q: bool = False) -> None:
    """Check the cluster-chart shape: p-degree 0 per term, q-degree <= 1,
    at least one term carrying q.  The expression straight off the
    rectangles seed has exactly one q-term (``single_q``); mutated charts
    may split it into several.
    """
    qcount = 0
    qix = f.lattice.index("q")
    for exp, _c in f.terms:
        pdeg = sum(exp) - exp[qix]
        if pdeg != 0:
            raise ModelInvariantError(
                "superpotential-degree", f"term of p-degree {pdeg}"
            )
        if exp[qix]:
            if exp[qix] != 1:
                raise ModelInvariantError("superpotential-degree", "q-degree > 1")
            qcount += 1
    if qcount == 0 or (single_q and qcount != 1):
        raise ModelInvariantError(
            "superpotential-degree", f"{qcount} terms carry q"
        )


def w_rectangles(k: int, n: int) -> SuperpotentialExpr:
    """The superpotential of the rectangles seed in cluster variables.

    W = p_11/p_star
      + sum_{i<=k, 2<=j<=n-k} p_ij p_(i-1)(j-2) / (p_(i-1)(j-1) p_i(j-1))
      + q p_(k-1)(n-k-1) / p_k(n-k)
      + sum_{2<=i<=k, j<=n-k} p_ij p_(i-2)(j-1) / (p_(i-1)(j-1) p_(i-1)j)
    with p_0j = p_i0 = p_star.
    """
    s = rectangles_seed(k, n)
    star = s.quiver.star
    lattice = ("q",) + s.quiver.vertices
    w = n - k

    def P(i, j):
        return grid_label(k, n, i, j)  # index 0 names the star

    terms: dict[tuple, int] = {}

    def add(num, den, with_q=False):
        exp = {lab: 0 for lab in lattice}
        for lab in num:
            exp[lab] += 1
        for lab in den:
            exp[lab] -= 1
        if with_q:
            exp["q"] += 1
        key = tuple(exp[lab] for lab in lattice)
        terms[key] = terms.get(key, 0) + 1

    add([P(1, 1)], [star])
    for i in range(1, k + 1):
        for j in range(2, w + 1):
            add([P(i, j), P(i - 1, j - 2)], [P(i - 1, j - 1), P(i, j - 1)])
    add([P(k - 1, w - 1)], [P(k, w)], with_q=True)
    for i in range(2, k + 1):
        for j in range(1, w + 1):
            add([P(i, j), P(i - 2, j - 1)], [P(i - 1, j - 1), P(i - 1, j)])
    f = LaurentPoly.make(lattice, terms)
    if f.num_terms() != 2 + k * (w - 1) + (k - 1) * w:
        raise ModelInvariantError(
            "superpotential-degree",
            f"({k},{n}): {f.num_terms()} monomials after collection",
        )
    _check_a_form(f, single_q=True)
    return SuperpotentialExpr(f, "A-form")


def quotient_f_polynomial(factors, lattice) -> LaurentPoly:
    """F-polynomial of a uniserial module with the given composition
    factors (socle first): the quotients are the top segments, so
    1 + x^(top) + x^(top two) + ... + x^(all)."""
    terms: dict[tuple, int] = {}
    idx = {lab: i for i, lab in enumerate(lattice)}
    exp = [0] * len(lattice)
    terms[tuple(exp)] = 1
    for lab in reversed(list(factors)):
        exp[idx[lab]] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + 1
    return LaurentPoly.make(lattice, terms)


def boundary_vertex(k: int, n: int, s: int, star: str) -> str:
    """The face carrying the boundary simple of index s."""
    if s % n == 0:
        return star
    if s <= n - k:
        return grid_label(k, n, k, s)
    return grid_label(k, n, n - s, n - k)


def ext_factors(k: int, n: int, s: int) -> list[str]:
    """Composition factors (socle to top) of the Ext module at index s:
    a column below the top for 0 < s < n-k, a row for n-k < s < n,
    trivial at s = n-k and s = n."""
    w = n - k
    if 0 < s < w:
        return [grid_label(k, n, t, s) for t in range(1, k)]
    if w < s < n:
        return [grid_label(k, n, n - s, j) for j in range(1, w)]
    return []


def w_x_rectangles(k: int, n: int) -> SuperpotentialExpr:
    """The superpotential in simples variables.

    One group per boundary index s: the monomial at the carrying vertex
    times the quotient F-polynomial of the uniserial Ext module there.
    """
    s0 = rectangles_seed(k, n)
    star = s0.quiver.star
    lattice = s0.quiver.vertices
    total = LaurentPoly.zero(lattice)
    for s in range(1, n + 1):
        base = LaurentPoly.monomial(lattice, {boundary_vertex(k, n, s, star): 1})
        total = lp_add(
            total, lp_mul(base, quotient_f_polynomial(ext_factors(k, n, s), lattice))
        )
    return SuperpotentialExpr(total, "X-form")


# ------------------------------------------------------------ the duality


def _beta_dual_image(s: Seed, wx: LaurentPoly) -> LaurentPoly:
    """Map an X-form polynomial to cluster variables: x_u goes to
    q^[u = corner] times the product over non-star v of p_v^(-beta[u, v]),
    read off the sparse beta columns."""
    corner = grid_label(s.k, s.n, s.k, s.n - s.k)
    images = {u: ({}, 0) for u in wx.lattice}
    images[corner][0]["q"] = 1
    beta = beta_columns(s)
    for v in s.quiver.lattice:
        for u, c in beta[v].items():
            images[u][0][v] = -c
    return lp_substitute(wx, images, LaurentPoly.one(("q",) + s.quiver.lattice))


def wformula_sides(k: int, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(image of the X-form, A-form with the star variable set to 1)."""
    s = rectangles_seed(k, n)
    star = s.quiver.star
    lhs = _beta_dual_image(s, w_x_rectangles(k, n).poly)
    wa = w_rectangles(k, n).poly
    images = {lab: ({} if lab == star else {lab: 1}, 0) for lab in wa.lattice}
    rhs = lp_substitute(wa, images, LaurentPoly.one(("q",) + s.quiver.lattice))
    return lhs, rhs


def verify_wformula(k: int, n: int) -> bool:
    lhs, rhs = wformula_sides(k, n)
    return lp_equal(lhs, rhs)


# -------------------------------------------------------------- mutation


def a_mutate_w(s: Seed, W: SuperpotentialExpr, j: str) -> SuperpotentialExpr:
    """Rewrite an A-form superpotential in the cluster mutated at j.

    The exchange relation replaces p_j by
    (product over in-arrows + product over out-arrows) / p_j', and the
    result must again be a Laurent polynomial.  Its lattice is q and the
    vertices of ``mutate_labels(s, j)``, read off ``label_exchange``; the
    seed's own checks run in ``mutate_labels``.
    """
    if W.tag != "A-form":
        raise ValueError("a_mutate_w needs an A-form superpotential")
    j2, _labels, vertices = label_exchange(s, j)
    lattice2 = ("q",) + vertices
    images = {lab: ({lab: 1}, 0) for lab in W.poly.lattice if lab != j}
    images[j] = ({j2: -1}, 1)
    ins, outs = neighbours(s.quiver, j)
    binom = lp_add(LaurentPoly.monomial(lattice2, ins),
                   LaurentPoly.monomial(lattice2, outs))
    out = lp_substitute(W.poly, images, binom)
    _check_a_form(out)
    return SuperpotentialExpr(out, "A-form")


def gvector_cone_ineqs(k: int, n: int) -> Cone:
    """Inequalities of the g-vector cone, in the projectives basis.

    Each monomial of the cluster-variable superpotential gives a covector,
    its exponent under the weight maps q -> prod_u y_u (rank) and
    p_v -> prod_u y_u^(kappa of label(u) at v) (wt); W's coefficients are
    positive, so no two monomials cancel.
    """
    s = rectangles_seed(k, n)
    vertices = s.quiver.vertices
    images = {v: ({}, 0) for v in vertices}
    images["q"] = (dict.fromkeys(vertices, 1), 0)
    for u, J in zip(vertices, s.vertex_labels):
        for v, x in kappa_vector(s, J).items():
            images[v][0][u] = x
    wt = lp_substitute(w_rectangles(k, n).poly, images, LaurentPoly.one(vertices))
    return make_cone(vertices, [exp for exp, _c in wt.terms])
