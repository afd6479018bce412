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
A-mutation runs on packed terms (``PackedTerms``): one exchange step per
seed and vertex (``a_mutate_w``), so a chain of mutations keeps W packed
and its ``LaurentPoly`` is made only where it is read."""

from __future__ import annotations

import struct

from .cones import Cone, grid_label, make_cone
from .laurent import (
    LaurentPoly,
    _divide_chain,
    _pascal_row,
    lp_add,
    lp_equal,
    lp_mul,
    lp_substitute,
)
from .plabic import ModelInvariantError, _field_size
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

    Each coordinate is a field of ``size`` bytes holding its exponent plus
    a bias of 2^(width - 1), width = 8 * size bits, the first coordinate in
    the highest field, so int order is the exponent order of a
    ``LaurentPoly``.  Above the d fields sits the term's p-degree, the sum
    of its exponents less q's, unbiased: it is linear in the exponent like
    every field, so packed sums carry it along, and a term of p-degree 0
    with q-degree 0 or 1 reads the bias or the bias plus 1 above its d - 1
    lower fields.  Every |exponent| is at most ``top``, which keeps each
    field within its width (``_headroom``).
    """

    __slots__ = ("lattice", "size", "terms", "top")

    def __init__(self, lattice: tuple[str, ...], size: int, terms: dict[int, int], top: int):
        self.lattice, self.size, self.terms, self.top = lattice, size, terms, top

    @staticmethod
    def pack(f: LaurentPoly, size: int, top: int) -> "PackedTerms":
        """f packed at ``size`` bytes a field; ``top`` bounds its exponents."""
        d, width = len(f.lattice), 8 * size
        fmt, guards = _field_format(size, d), _guards(d, width)
        return PackedTerms(f.lattice, size, {
            (int.from_bytes(struct.pack(fmt, *exp), "big") ^ guards)
            + (sum(exp) - exp[0] << width * d): c for exp, c in f.terms}, top)

    def view(self) -> LaurentPoly:
        """The terms as a ``LaurentPoly``: one ``struct.unpack`` a term of
        the fields as signed exponents, the p-degree above them left out."""
        d, size = len(self.lattice), self.size
        width = 8 * size
        fmt, guards = _field_format(size, d), _guards(d, width)
        low, nbytes = (1 << width * d) - 1, size * d
        return LaurentPoly.make(self.lattice, {
            struct.unpack(fmt, ((key & low) ^ guards).to_bytes(nbytes, "big")): c
            for key, c in self.terms.items()})


# struct code of a signed field of each size in bytes
_SIGNED_CODE = {1: "b", 2: "h", 4: "i", 8: "q"}


def _field_format(size: int, d: int) -> str:
    """The struct format of d big-endian signed fields of ``size`` bytes,
    the first the highest."""
    return ">" + _SIGNED_CODE[size] * d


def _guards(d: int, width: int) -> int:
    """The top bit of each of d fields of ``width`` bits: XOR with it turns
    a field's two's complement into the exponent plus the bias."""
    return ((1 << width * d) - 1) // ((1 << width) - 1) << (width - 1)


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
        if size not in _SIGNED_CODE:
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
    _check_degrees(((sum(exp) - exp[qix], exp[qix]) for exp, _c in f.terms), single_q)


def _check_degrees(degrees, single_q: bool = False) -> None:
    """``_check_a_form`` on the (p-degree, q-degree) of each term, in term
    order."""
    qcount = 0
    for pdeg, qdeg in degrees:
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
    """Rewrite an A-form superpotential in the cluster mutated at j: one
    packed exchange step on W's ``PackedTerms``.

    The exchange relation replaces p_j by (x^ins + x^outs) / p_j', the
    products over the in- and out-arrows, and the result must again be a
    Laurent polynomial.  Its lattice is q and the vertices of
    ``mutate_labels(s, j)``, read off ``label_exchange``; the seed's own
    checks run in ``mutate_labels``.

    Re-keying carries the fields into the mutated vertex order: those
    between j's column and j''s move one column towards j's, and j' takes
    the column at the other end, with exponent 0; r is a term's exponent so
    carried.  With x^ins + x^outs = x^outs (1 + y),
    the term c p^e, x = e_j, goes to c p^r (x^outs / p_j')^x (1 + y)^x.  A
    term with x >= 0 expands in place along its chain in y.  The terms with
    x = -D < 0 fall into chains by D and by r less its multiple of y, which
    leaves the pivot coordinate (the first of y's) between 0 and its
    exponent in y; each chain, sum c y^t over its terms, must be a multiple
    of (1 + y)^D (``NotLaurent`` otherwise), and the quotient joins the
    image.  The step then checks the A-form on the packed terms: p-degree 0,
    q-degree 0 or 1 and at least one term carrying q, named as
    ``_check_a_form`` names them on the polynomial.
    """
    if W.tag != "A-form":
        raise ValueError("a_mutate_w needs an A-form superpotential")
    j2, _labels, vertices = label_exchange(s, j)
    ins, outs = neighbours(s.quiver, j)
    # y = x^ins / x^outs; no vertex is both an in- and an out-neighbour
    y = {**ins, **{v: -m for v, m in outs.items()}}
    m = max(map(abs, y.values()))
    src = _packed(W, m)
    lattice = ("q",) + s.quiver.vertices
    if src.lattice != lattice:
        raise ValueError("a_mutate_w needs W over q and the seed's vertices")
    size, d = src.size, len(lattice)
    width = 8 * size
    half, mask = 1 << width - 1, (1 << width) - 1
    lattice2 = ("q",) + vertices
    # j's column p in W, j''s column p2 in the image: only the columns
    # between them move, one column towards j's
    p, p2 = lattice.index(j), lattice2.index(j2)
    if lattice[:p] + lattice[p + 1:] != lattice2[:p2] + lattice2[p2 + 1:]:
        raise ValueError("a_mutate_w needs the seed's vertices in label order")
    at = {x: width * (d - 1 - i) for i, x in enumerate(lattice2)}  # field shifts
    unit = 1 << width * d  # a p-degree of 1

    def packed(mono) -> int:  # a monomial, its p-degree above the fields
        return sum(e * ((1 << at[x]) + unit) for x, e in mono.items())

    up_y, out = packed(y), packed(outs)
    # p_j^x goes to (x^outs / p_j')^x (1 + y)^x: a unit of x is lift, with
    # p_j's own degree taken off
    lift = out - packed({j2: 1}) - unit
    pivot, step = next(iter(y.items()))
    at_pivot = at[pivot]
    at_j = width * (d - 1 - p)
    lo, hi = sorted((p, p2))
    region = (1 << width * (d - lo)) - (1 << width * (d - 1 - hi))
    keep, between = ~region, region - (mask << at_j)
    up, down = (width, 0) if p2 > p else (0, width)
    renamed = half << at[j2]

    image: dict[int, int] = {}
    get = image.get
    # chain -> (D, y exponent -> coefficient) of the terms with x = -D < 0
    chains: dict[int, tuple[int, dict[int, int]]] = {}
    reach = 0  # the largest |x|
    for key, c in src.terms.items():
        x = (key >> at_j & mask) - half
        # ~region keeps every bit above the fields, so a p-degree below 0 stays
        r = key & keep | (key & between) << up >> down | renamed
        if not x:
            image[r] = get(r, 0) + c
            continue
        if x > 0:
            if x > reach:
                reach = x
            r += x * lift
            for b in _pascal_row(x):
                image[r] = get(r, 0) + b * c
                r += up_y
            continue
        if -x > reach:
            reach = -x
        # the chain: r less its multiple of y, times (p_j' / p_j)^D
        t = ((r >> at_pivot & mask) - half) // step
        r -= t * up_y - x * (lift - out)
        chain = chains.get(r)
        if chain is None:
            chain = chains[r] = (-x, {})
        low = chain[1]
        low[t] = low.get(t, 0) + c
    for chain, (D, low) in chains.items():
        base = chain - D * out
        for t, c in _divide_chain(low, D).items():
            r = base + t * up_y
            image[r] = get(r, 0) + c
    terms = {r: c for r, c in image.items() if c}
    at_q = width * (d - 1)
    if not _is_a_form(terms, at_q, half):
        # the same check in term order, which raises naming the first term
        # at fault as on the polynomial
        _check_degrees((r >> width * d, (r >> at_q & mask) - half)
                       for r in sorted(terms, key=(unit - 1).__and__))
    return SuperpotentialExpr(None, "A-form", PackedTerms(
        lattice2, size, terms, src.top + reach * m))


def _is_a_form(terms, at_q: int, half: int) -> bool:
    """Whether every packed term has p-degree 0 and q-degree 0 or 1, and
    at least one carries q: above q's field at ``at_q``, each reads the
    bias or the bias plus 1."""
    carry_q = 0
    for key in terms:
        h = (key >> at_q) - half
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
