"""The superpotential of the rectangles seed, in two coordinate systems.

The A-form lives in cluster variables p_v (one per face, plus q) and is a
sum of degree-0 ratios; the X-form lives in the simples variables x_v and
is assembled from quotient F-polynomials of uniserial modules, one group
per boundary vertex.  The change of basis between them is the dual of the
boundary matrix, and ``verify_wformula`` checks the two agree exactly.

Every change of variables but A-mutation is one ``lp_substitute`` call,
a monomial map: x_u -> q^[u = corner] * prod_v p_v^(-beta[u, v]) (the
beta-dual image), p_star -> 1 (the A-form side), and q -> prod_u y_u,
p_v -> prod_u y_u^(kappa of label(u) at v) (the g-vector cone).
A-mutation runs on packed terms (``PackedTerms``, in the one packed layout
of ``laurent.Packing``): the exchange step that X-mutation shares
(``laurent._exchange``), set up and keyed once per seed and vertex by
``a_mutate_w``, so a chain of mutations keeps W packed and its
``LaurentPoly`` is made only where it is read."""

from __future__ import annotations

from .cones import Cone, grid_label, make_cone
from .laurent import (
    LaurentPoly,
    Packing,
    _exchange,
    _field_size,
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


class PackedTerms:
    """An A-form's terms packed, exponent -> coefficient, one int per
    exponent over ``lattice`` (q first, then the seed's vertices).

    The exponents fill a ``Packing`` of fields of ``size`` bytes, q in
    field 0.  Above the fields sits the term's p-degree, the sum of its
    exponents less q's, unbiased: it is linear in the exponent like every
    field, so packed sums carry it along, and a term of p-degree 0 reads 0
    there.  Every |exponent| is at most ``top``, which keeps each field
    within its width (``_headroom``).
    """

    __slots__ = ("lattice", "size", "terms", "top")

    def __init__(self, lattice: tuple[str, ...], size: int, terms: dict[int, int], top: int):
        self.lattice, self.size, self.terms, self.top = lattice, size, terms, top

    @staticmethod
    def pack(f: LaurentPoly, size: int, top: int) -> "PackedTerms":
        """f packed at ``size`` bytes a field; ``top`` bounds its exponents."""
        packing = Packing(size, len(f.lattice))
        bits = packing.bits
        return PackedTerms(f.lattice, size, {
            packing.pack(exp) + (sum(exp) - exp[0] << bits): c
            for exp, c in f.terms}, top)

    def view(self) -> LaurentPoly:
        """The terms as a ``LaurentPoly``: each key's fields unpacked, the
        p-degree above them left out."""
        unpack = Packing(self.size, len(self.lattice)).unpack
        return LaurentPoly.make(self.lattice, {
            unpack(key): c for key, c in self.terms.items()})


def _headroom(top: int, m: int) -> int:
    """The largest |exponent| that a step with exchange multiplicities at
    most m writes when each of its input's is at most ``top``: an image
    term or a chain's representative (``a_mutate_w``)."""
    return top + (top + 1) * m


class SuperpotentialExpr:
    """A superpotential in the chart ``tag``, "A-form" or "X-form".

    An A-form that ``a_mutate_w`` made is kept as ``PackedTerms``, and
    ``poly`` is their ``LaurentPoly`` view, made on first request
    (printing, cones, ``lp_equal``); one made from a polynomial is packed
    on its first mutation (``_packed``).
    """

    __slots__ = ("tag", "_poly", "_packed")

    def __init__(self, poly: LaurentPoly | None, tag: str,
                 packed: PackedTerms | None = None):
        self.tag, self._poly, self._packed = tag, poly, packed

    @property
    def poly(self) -> LaurentPoly:
        if self._poly is None:
            self._poly = self._packed.view()
        return self._poly


def _packed(W: SuperpotentialExpr, m: int) -> PackedTerms:
    """W's packed terms, with room for a step of exchange multiplicities at
    most m: packed from W's polynomial on first use, and packed again from
    it, at the width its exact exponents need, when ``top`` leaves too
    little room."""
    p = W._packed
    if p is None or _headroom(p.top, m) >> (8 * p.size - 1):
        f = W.poly
        top = max((abs(e) for exp, _c in f.terms for e in exp), default=0)
        size = _field_size(_headroom(top, m))
        if size > 8:  # a wider field packs no exponent below 0
            raise OverflowError(f"exponents up to {top} need packed fields past 8 bytes")
        p = W._packed = PackedTerms.pack(f, size, top)
    return p


def _check_a_form(f: LaurentPoly, single_q: bool = False) -> None:
    """Check the cluster-chart shape: p-degree 0 per term, q-degree <= 1,
    at least one term carrying q.  The expression straight off the
    rectangles seed has exactly one q-term (``single_q``); mutated charts
    may split it into several.
    """
    qix = f.lattice.index("q")
    qcount = 0
    for exp, _c in f.terms:
        qdeg = exp[qix]
        pdeg = sum(exp) - qdeg
        if pdeg != 0:
            raise ModelInvariantError(
                "superpotential-degree", f"term of p-degree {pdeg}"
            )
        if qdeg:
            if qdeg != 1:
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
    images = {u: {} for u in wx.lattice}
    images[corner]["q"] = 1
    beta = beta_columns(s)
    for v in s.quiver.lattice:
        for u, c in beta[v].items():
            images[u][v] = -c
    return lp_substitute(wx, images, ("q",) + s.quiver.lattice)


def wformula_sides(k: int, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(image of the X-form, A-form with the star variable set to 1)."""
    s = rectangles_seed(k, n)
    star = s.quiver.star
    lhs = _beta_dual_image(s, w_x_rectangles(k, n).poly)
    wa = w_rectangles(k, n).poly
    images = {lab: {} if lab == star else {lab: 1} for lab in wa.lattice}
    rhs = lp_substitute(wa, images, ("q",) + s.quiver.lattice)
    return lhs, rhs


def verify_wformula(k: int, n: int) -> bool:
    lhs, rhs = wformula_sides(k, n)
    return lp_equal(lhs, rhs)


# -------------------------------------------------------------- mutation


def a_mutate_w(s: Seed, W: SuperpotentialExpr, j: str) -> SuperpotentialExpr:
    """Rewrite an A-form superpotential in the cluster mutated at j by the
    exchange step (``laurent._exchange``) on W's ``PackedTerms``, over q and
    the vertices of ``mutate_labels(s, j)``, read off ``label_exchange``
    (the seed's own checks run in ``mutate_labels``).

    p_j goes to (x^ins + x^outs) / p_j' = x^outs (1 + y) / p_j', the
    products over the in- and out-arrows: y = x^ins / x^outs, E = e_j, a =
    0, and the lift is 1 / p_j' less p_j's degree.  Each chain is then
    multiplied by (x^outs)^E, E read off p_j''s column, which keeps a
    chain's key within the headroom (``_headroom``).  The image is checked
    as an A-form on the packed terms (``_is_a_form``); where that fails,
    ``_check_a_form`` on their view names the first term at fault.
    """
    if W.tag != "A-form":
        raise ValueError("a_mutate_w needs an A-form superpotential")
    j2, _label, vertices = label_exchange(s, j)
    ins, outs = neighbours(s.quiver, j)
    # no vertex is both an in- and an out-neighbour
    y = {**ins, **{v: -m for v, m in outs.items()}}
    m = max(map(abs, y.values()))
    src = _packed(W, m)
    lattice = ("q",) + s.quiver.vertices
    if src.lattice != lattice:
        raise ValueError("a_mutate_w needs W over q and the seed's vertices")
    packing = Packing(src.size, len(lattice))
    width, unit = packing.width, 1 << packing.bits  # unit: a p-degree of 1
    half, mask = 1 << width - 1, (1 << width) - 1
    lattice2 = ("q",) + vertices
    # j's field p in W, j''s field p2 in the image: only the fields between
    # them move, one field towards j's
    p, p2 = lattice.index(j), lattice2.index(j2)
    at = {x: width * i for i, x in enumerate(lattice2)}  # field shifts

    def packed(mono) -> int:  # a monomial, its p-degree above the fields
        return sum(e * ((1 << at[x]) + unit) for x, e in mono.items())

    up_y, out, at_j2 = packed(y), packed(outs), at[j2]
    pivot, step = next(iter(y.items()))
    image, chains = _exchange(
        src.terms, width, (*packing.rekey(p, p2), half << at_j2),
        ((width * p, 1, 0),), up_y, -packed({j2: 1}) - unit, (at[pivot], step))
    get = image.get
    reach = 0  # the largest |E|
    for r, chain in chains.items():
        E = half - (r >> at_j2 & mask)
        if abs(E) > reach:
            reach = abs(E)
        r += E * out
        for t, c in chain.items():
            key = r + t * up_y
            image[key] = get(key, 0) + c
    result = PackedTerms(lattice2, src.size, {r: c for r, c in image.items() if c},
                         src.top + reach * m)
    if not _is_a_form(result.terms, packing.bits, mask, half):
        # the same check on the polynomial, in term order, which raises
        # naming the first term at fault
        _check_a_form(result.view())
    return SuperpotentialExpr(None, "A-form", result)


def _is_a_form(terms, bits: int, mask: int, half: int) -> bool:
    """Whether every packed term has p-degree 0 and q-degree 0 or 1, and
    at least one carries q: each reads 0 above its fields, at ``bits``,
    and the bias or the bias plus 1 in q's field, field 0."""
    carry_q = 0
    for key in terms:
        if key >> bits:
            return False
        h = (key & mask) - half
        if h == 1:
            carry_q += 1
        elif h:
            return False
    return carry_q > 0


def gvector_cone_ineqs(k: int, n: int) -> Cone:
    """Inequalities of the g-vector cone, in the projectives basis.

    Each monomial of the cluster-variable superpotential gives a covector,
    its exponent under the weight maps q -> prod_u y_u (rank) and
    p_v -> prod_u y_u^(kappa of label(u) at v) (wt); W's coefficients are
    positive, so no two monomials cancel.
    """
    s = rectangles_seed(k, n)
    vertices = s.quiver.vertices
    images = {v: {} for v in vertices}
    images["q"] = dict.fromkeys(vertices, 1)
    for u, J in zip(vertices, s.vertex_labels):
        for v, x in kappa_vector(s, J).items():
            images[v][u] = x
    wt = lp_substitute(w_rectangles(k, n).poly, images, vertices)
    return make_cone(vertices, [exp for exp, _c in wt.terms])
