from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from model_transforms import orbit
from substitution_oracle import BinomialSubstitution, binomial_substitute
from x_mutate_oracle import x_mutate
from plabicflow.laurent import (
    LaurentPoly,
    NotLaurent,
    lp_add,
    lp_equal,
    lp_exact_div,
    lp_mul,
    lp_substitute,
)
from plabicflow.charts import face_lattice, flow_polynomial
from plabicflow.plabic import build_rectangles_model, positroid, square_moves
from plabicflow.seeds import (
    exchange_pairs,
    label_exchange,
    rectangles_seed,
    seed_mutations,
    seed_of_model,
)
from plabicflow.superpot import a_mutate_w, w_rectangles

L3 = ("a", "b", "c")


def poly(terms):
    return LaurentPoly.make(L3, dict(terms))


def power(f, e):
    """f to the power e >= 0, one product at a time."""
    out = LaurentPoly.monomial(f.lattice, {})
    for _ in range(e):
        out = lp_mul(out, f)
    return out


polys = st.dictionaries(
    st.tuples(*(st.integers(-3, 3) for _ in L3)),
    st.integers(-5, 5),
    max_size=5,
).map(poly)


def test_make_drops_zero_terms():
    f = poly({(1, 0, 0): 0, (0, 1, 0): 2})
    assert f.num_terms() == 1
    assert poly({}).is_zero()


def test_monomial_and_pretty():
    m = LaurentPoly.monomial(("24", "34"), {"34": 1})
    f = lp_add(m, LaurentPoly.monomial(("24", "34"), {"24": 1, "34": 1}))
    assert f.pretty() == "y34*(1+y24)"
    minus_f = LaurentPoly.make(f.lattice, {e: -c for e, c in f.terms})
    assert lp_add(m, minus_f).pretty("y") == "-y24*y34"
    q = LaurentPoly.monomial(("q", "13", "34"), {"q": 1, "13": 1, "34": -1})
    assert q.pretty("p") == "q*p13*p34^-1"
    # a read-only name map (as a seed's labels are) is a name map too
    ro = LaurentPoly.monomial(("24", "34"), MappingProxyType({"34": 1, "24": 2}))
    assert ro.terms == (((2, 1), 1),)


@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert lp_equal(lp_add(f, g), lp_add(g, f))
    assert lp_equal(lp_mul(f, g), lp_mul(g, f))
    assert lp_equal(lp_mul(f, lp_add(g, h)),
                    lp_add(lp_mul(f, g), lp_mul(f, h)))
    assert lp_equal(lp_add(f, LaurentPoly.make(L3, {e: -c for e, c in f.terms})), poly({}))


@given(polys, polys)
@settings(max_examples=60)
def test_exact_division_inverts_multiplication(f, g):
    if g.is_zero():
        return
    assert lp_equal(lp_exact_div(lp_mul(f, g), g), f)


def test_exact_division_failure():
    f = poly({(1, 0, 0): 1, (0, 1, 0): 1})
    g = poly({(1, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(NotLaurent):
        lp_exact_div(f, g)


def quadratic_min_exponent(f):
    """The all-pairs search for a minimal exponent under the coordinatewise
    partial order: the lex-least minimal exponent, in lattice order."""
    exps = [e for e, _ in f.terms]
    return min(e for e in exps
               if not any(o != e and all(x <= y for x, y in zip(o, e)) for o in exps))


@st.composite
def nonzero_polys(draw):
    """Nonzero polynomials over 0-4 coordinates, exponents -3..3; with
    ``pad`` the coordinatewise min and max are added as terms, so both
    extremes are unique."""
    lattice = tuple("abcd"[:draw(st.integers(0, 4))])
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(-3, 3) for _ in lattice)),
        st.integers(-5, 5).filter(bool), min_size=1, max_size=8))
    if draw(st.booleans()):
        for pick in (min, max):
            terms.setdefault(tuple(map(pick, zip(*terms))) if lattice else (), 1)
    return LaurentPoly.make(lattice, terms)


@given(nonzero_polys())
@settings(max_examples=200)
def test_extremes_equal_quadratic_search(f):
    # terms are sorted by exponent, so the leading term is a minimal one
    assert quadratic_min_exponent(f) == f.terms[0][0]


@given(polys, polys)
@settings(max_examples=60)
def test_first_term_of_product_is_sum_of_first_terms(f, g):
    # lex order is a monomial order: the product of the two first terms is
    # the only one at its exponent, so no cancellation reaches it
    if f.is_zero() or g.is_zero():
        return
    (ef, cf), (eg, cg) = f.terms[0], g.terms[0]
    assert lp_mul(f, g).terms[0] == (tuple(x + y for x, y in zip(ef, eg)), cf * cg)


# a -> u*(1+v), b -> v, c -> 1 over (u, v): the image of b + c is the
# exchange binomial 1 + v itself, so any F * (b + c)^3 has a Laurent image
# although its terms carry a down to a^-3.
TARGET = ("u", "v")
BINOM = LaurentPoly.make(TARGET, {(0, 0): 1, (0, 1): 1})
IMAGES = {"a": ({"u": 1}, 1), "b": ({"v": 1}, 0), "c": ({}, 0)}
CLEAR = power(poly({(0, 1, 0): 1, (0, 0, 0): 1}), 3)


@given(polys, polys)
@settings(max_examples=60)
def test_substitute_is_a_homomorphism(F, G):
    f, g = lp_mul(F, CLEAR), lp_mul(G, CLEAR)
    sf = binomial_substitute(f, IMAGES, BINOM)
    sg = binomial_substitute(g, IMAGES, BINOM)
    assert lp_equal(binomial_substitute(lp_mul(f, g), IMAGES, BINOM), lp_mul(sf, sg))
    assert lp_equal(binomial_substitute(lp_add(f, g), IMAGES, BINOM), lp_add(sf, sg))


def test_substitute_requires_monomial_denominators():
    # a^-1 maps to (u*(1+v))^-1, which is not a Laurent polynomial
    f = poly({(-1, 0, 0): 1})
    with pytest.raises(NotLaurent):
        binomial_substitute(f, IMAGES, BINOM)
    assert lp_equal(
        binomial_substitute(lp_mul(f, CLEAR), IMAGES, BINOM),
        LaurentPoly.make(TARGET, {(-1, 0): 1, (-1, 1): 2, (-1, 2): 1}),
    )


def global_substitute(f, images, u):
    """The substitution route that dividing only the negative part replaced:
    clear every negative power of u with one global u^D, expand all of f,
    and divide the whole product by u^D."""
    col = {lab: i for i, lab in enumerate(u.lattice)}
    d = len(u.lattice)
    by_power = {}
    for exp, c in f.terms:
        mono = [0] * d
        E = 0
        for lab, x in zip(f.lattice, exp):
            m, e = images[lab]
            for y, v in m.items():
                mono[col[y]] += x * v
            E += x * e
        group = by_power.setdefault(E, {})
        group[tuple(mono)] = group.get(tuple(mono), 0) + c
    D = max(0, -min(by_power, default=0))
    total = LaurentPoly.zero(u.lattice)
    for E, group in by_power.items():
        total = lp_add(total, lp_mul(LaurentPoly.make(u.lattice, group), power(u, E + D)))
    return lp_exact_div(total, power(u, D)) if D else total


SOURCE = ("a", "b", "c", "d")
TARGET3 = ("x", "y", "z")
small_exps = st.tuples(*(st.integers(-2, 2) for _ in TARGET3))


@st.composite
def substitutions(draw):
    """(f, images, u): u = s*x^p + t*x^q a random binomial; b and c map to
    x^p and x^q, so s*b + t*c maps to u itself and f = F * (s*b + t*c)^h
    clears up to h negative powers of u; a and d map to random monomials
    times u^e with e of either sign."""
    p = draw(small_exps)
    q = draw(small_exps.filter(lambda e: e != p))
    s, t = (draw(st.sampled_from([-2, -1, 1, 3])) for _ in range(2))
    u = LaurentPoly.make(TARGET3, {p: s, q: t})
    images = {"b": (dict(zip(TARGET3, p)), 0), "c": (dict(zip(TARGET3, q)), 0)}
    for lab in ("a", "d"):
        images[lab] = (dict(zip(TARGET3, draw(small_exps))), draw(st.integers(-2, 2)))
    F = LaurentPoly.make(SOURCE, draw(st.dictionaries(
        st.tuples(*(st.integers(-2, 2) for _ in SOURCE)),
        st.integers(-4, 4).filter(bool), min_size=1, max_size=6)))
    if draw(st.integers(0, 9)) == 9:
        F = LaurentPoly.zero(SOURCE)
    H = LaurentPoly.make(SOURCE, {(0, 1, 0, 0): s, (0, 0, 1, 0): t})
    return lp_mul(F, power(H, draw(st.integers(0, 4)))), images, u


@given(substitutions())
@settings(max_examples=300)
def test_substitute_equals_global_division(case):
    # the same polynomial, or NotLaurent on both sides; the strategy gives
    # f = 0, images without negative powers of u (D = 0), and D > 0 both
    # divisible and not
    f, images, u = case
    try:
        want = global_substitute(f, images, u)
    except NotLaurent:
        with pytest.raises(NotLaurent):
            binomial_substitute(f, images, u)
        return
    assert binomial_substitute(f, images, u) == want


def rekeyed(f, images, codomain):
    """The per-term re-keying that the plain monomial maps of ``superpot``,
    ``cones`` and the CLI's ``--order`` once made by hand: each term's
    exponent read as a {label: exponent} map, and each codomain coordinate
    summed from it."""
    terms = {}
    for exp, coeff in f.terms:
        m = dict(zip(f.lattice, exp))
        key = tuple(sum(x * images[lab][0].get(y, 0) for lab, x in m.items())
                    for y in codomain)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly.make(codomain, terms)


@st.composite
def monomial_maps(draw):
    """(f, images, codomain) for a plain monomial map: u is 1 over the
    codomain and every power of u is 0.

    The shared labels x0, x1, ... map to themselves.  The codomain holds
    all of them (a permutation of the domain when nothing else is drawn),
    or a proper subset of them, each label left out mapping to a monomial
    over the other coordinates, or all of them and extra coordinates y0,
    y1, ... that no label feeds.  ``star`` may join the domain, mapping to
    {} and so dropped, as the star is.  ``q`` may join the codomain, fed
    only by the twisted labels t0, t1, ..., each mapping to q^a (a not 0
    or 1) times a monomial over the other coordinates, as the corner feeds
    q and the rank map feeds every coordinate."""
    shared = [f"x{i}" for i in range(draw(st.integers(0, 4)))]
    shape = draw(st.sampled_from(["permutation", "subset", "superset"]))
    kept = list(shared)
    if shape == "subset" and shared:
        kept = draw(st.permutations(shared))[:draw(st.integers(0, len(shared) - 1))]
    elif shape == "superset":
        kept += [f"y{i}" for i in range(draw(st.integers(1, 2)))]
    with_q = draw(st.booleans())
    codomain = tuple(draw(st.permutations(kept + ["q"] * with_q)))

    def monomial():
        return {y: draw(st.integers(-2, 2)) for y in codomain if y != "q"}

    images = {x: ({x: 1} if x in codomain else monomial(), 0) for x in shared}
    if draw(st.booleans()):
        images["star"] = ({}, 0)
    if with_q:
        for i in range(draw(st.integers(1, 2))):
            images[f"t{i}"] = ({**monomial(), "q": draw(st.sampled_from([-2, -1, 2, 3]))}, 0)
    lattice = tuple(draw(st.permutations(sorted(images))))
    f = LaurentPoly.make(lattice, draw(st.dictionaries(
        st.tuples(*(st.integers(-2, 2) for _ in lattice)),
        st.integers(-4, 4).filter(bool), max_size=6)))
    return f, images, codomain


@given(monomial_maps())
@settings(max_examples=300, deadline=None)
def test_plain_monomial_map_equals_rekeying(case):
    # u = 1 carries no power, so substitution is the re-keying of every term,
    # and the monomial map on the codomain is the binomial route with u = 1
    f, images, codomain = case
    one = LaurentPoly.monomial(codomain, {})
    got = lp_substitute(f, {lab: m for lab, (m, _e) in images.items()}, codomain)
    assert got == binomial_substitute(f, images, one) == global_substitute(f, images, one)
    assert got == rekeyed(f, images, codomain)


def one_shot_substitute(f, images, u):
    """The substitution before it was split into a build and an apply, and
    before plain labels were gathered: the image columns and the powers of
    u are made afresh for every f, and every label of every term adds its
    sparse column."""
    col = {lab: i for i, lab in enumerate(u.lattice)}
    sparse = []
    for lab in f.lattice:
        if lab not in images:
            raise ValueError(f"no image for label {lab!r}")
        m, e = images[lab]
        unknown = set(m) - set(col)
        if unknown:
            raise ValueError(f"image of {lab!r} uses {sorted(unknown)} outside the codomain")
        sparse.append(([(col[x], v) for x, v in m.items() if v], e))

    d = len(u.lattice)
    by_power = {}
    for exp, c in f.terms:
        mono = [0] * d
        E = 0
        for x, (pairs, e) in zip(exp, sparse):
            if x:
                for i, v in pairs:
                    mono[i] += x * v
                E += x * e
        group = by_power.setdefault(E, {})
        key = tuple(mono)
        group[key] = group.get(key, 0) + c

    D = max(0, -min(by_power, default=0))
    powers = [LaurentPoly.monomial(u.lattice, {})]

    def power(p):
        while len(powers) <= p:
            powers.append(lp_mul(powers[-1], u))
        return powers[p]

    def expand(negative):
        out = {}
        for E, group in by_power.items():
            if (E < 0) != negative:
                continue
            up = power(E + D if negative else E)
            for e1, c1 in group.items():
                for e2, c2 in up.terms:
                    key = tuple(x + y for x, y in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
        return out

    out = expand(negative=False)
    if D:
        quot = lp_exact_div(LaurentPoly.make(u.lattice, expand(negative=True)), power(D))
        for e, c in quot.terms:
            out[e] = out.get(e, 0) + c
    return LaurentPoly.make(u.lattice, out)


def lowest_power(f, images):
    """D of f: minus the lowest power of u among the images of its terms."""
    powers = [sum(x * images[lab][1] for lab, x in zip(f.lattice, exp))
              for exp, _ in f.terms]
    return max(0, -min(powers, default=0))


@st.composite
def substitution_runs(draw):
    """(images, u, fs): one substitution of the ``substitutions`` shape and
    several polynomials for it, ordered so that D rises and then falls, so a
    built step reuses its powers of u out of order.  a maps to a monomial
    over u, d to one over u^2, so each f reaches u^-D for D up to about 8."""
    p = draw(small_exps)
    q = draw(small_exps.filter(lambda e: e != p))
    s, t = (draw(st.sampled_from([-2, -1, 1, 3])) for _ in range(2))
    u = LaurentPoly.make(TARGET3, {p: s, q: t})
    images = {"b": (dict(zip(TARGET3, p)), 0), "c": (dict(zip(TARGET3, q)), 0),
              "a": (dict(zip(TARGET3, draw(small_exps))), -1),
              "d": (dict(zip(TARGET3, draw(small_exps))), -2)}
    H = LaurentPoly.make(SOURCE, {(0, 1, 0, 0): s, (0, 0, 1, 0): t})
    fs = []
    for _ in range(draw(st.integers(2, 7))):
        F = LaurentPoly.make(SOURCE, draw(st.dictionaries(
            st.tuples(*(st.integers(-2, 2) for _ in SOURCE)),
            st.integers(-4, 4).filter(bool), min_size=1, max_size=5)))
        fs.append(lp_mul(F, power(H, draw(st.integers(0, 5)))))
    fs.sort(key=lambda f: lowest_power(f, images))
    return images, u, fs[0::2] + fs[1::2][::-1]


@given(substitution_runs())
@settings(max_examples=120, deadline=None)
def test_built_substitution_equals_one_shot_route(case):
    # one step, many polynomials: the powers of u cached for a large D are
    # reused for the smaller ones after it; a polynomial whose image is not
    # Laurent raises on both routes and leaves the step usable
    images, u, fs = case
    step = BinomialSubstitution(SOURCE, images, u)
    for f in fs:
        try:
            want = one_shot_substitute(f, images, u)
        except NotLaurent:
            with pytest.raises(NotLaurent):
                step.apply(f)
            continue
        assert step.apply(f) == want
        assert binomial_substitute(f, images, u) == want


def test_built_substitution_raises_not_laurent_and_stays_usable():
    # a^-1 maps to (u*(1+v))^-1: not Laurent on either route; the same step
    # then carries a^-3 * (b + c)^3 as the one-shot route does
    step = BinomialSubstitution(L3, IMAGES, BINOM)
    bad = poly({(-1, 0, 0): 1})
    with pytest.raises(NotLaurent):
        one_shot_substitute(bad, IMAGES, BINOM)
    with pytest.raises(NotLaurent):
        step.apply(bad)
    good = lp_mul(poly({(-3, 0, 0): 1}), CLEAR)
    assert step.apply(good) == one_shot_substitute(good, IMAGES, BINOM)


def test_built_substitution_refuses_another_lattice():
    step = BinomialSubstitution(L3, IMAGES, BINOM)
    with pytest.raises(ValueError, match="lattice mismatch"):
        step.apply(LaurentPoly.monomial(SOURCE, {}))


def test_substitution_splits_plain_and_twisted_labels():
    # plain: one coordinate, exponent 1, no power of u, not taken before;
    # z is reached by no plain label and is fed the appended 0
    images = {"a": ({"x": 1}, 0), "b": ({"x": 1}, 0), "c": ({"y": 2}, 0),
              "d": ({"y": -1}, 0), "e": ({"y": 1}, 1), "f": ({"y": 1, "z": 0}, 0),
              "g": ({}, 0)}
    u = LaurentPoly.make(("x", "y", "z"), {(0, 0, 0): 1, (0, 0, 1): 1})
    step = BinomialSubstitution(tuple("abcdefg"), images, u)
    assert [step.lattice[t] for t, _pairs, _e in step._twisted] == ["b", "c", "d", "e", "g"]
    f = LaurentPoly.make(step.lattice, {(1, 1, 1, 1, 0, 1, 5): 3, (0, 0, 0, 0, -1, 0, 0): 1})
    for route in (step.apply, lambda f: one_shot_substitute(f, images, u)):
        with pytest.raises(NotLaurent):
            route(f)
    # e/f maps to u: times it, every term's power of u is at least 0
    f = lp_mul(f, LaurentPoly.make(step.lattice, {(0, 0, 0, 0, 1, -1, 0): 1}))
    want = LaurentPoly.make(u.lattice, {(0, -1, 0): 1, (2, 2, 0): 3, (2, 2, 1): 3})
    assert step.apply(f) == one_shot_substitute(f, images, u) == want


@st.composite
def gathered_substitutions(draw):
    """(lattice, images, u, fs) with plain and twisted labels mixed.

    The codomain has 0-4 coordinates x0, x1, ...  The carriers b and c map
    to the two terms of u = s*x^p + t*x^q, so f = F * (s*b + t*c)^h clears
    up to h negative powers of u; on the empty codomain u is the constant
    s and b alone maps to 1.  The labels p0, p1, ... map to a random
    partial permutation of the codomain, so some coordinates may be
    reached by no plain label; ``clash`` maps like a plain label onto a
    coordinate that one of them takes, so one of the two is twisted; the
    labels t0, t1, ... map to monomials with exponents -1..2 over the
    whole codomain times u^-2..u^2.  The labels come in a random order, and
    now and then f is 0."""
    d = draw(st.integers(0, 4))
    target = tuple(f"x{i}" for i in range(d))
    exps = st.tuples(*(st.integers(-2, 2) for _ in target))
    s, t = (draw(st.sampled_from([-2, -1, 1, 3])) for _ in range(2))
    if d:
        p = draw(exps)
        q = draw(exps.filter(lambda e: e != p))
        u = LaurentPoly.make(target, {p: s, q: t})
        images = {"b": (dict(zip(target, p)), 0), "c": (dict(zip(target, q)), 0)}
        carriers = {"b": s, "c": t}
    else:
        u = LaurentPoly.make((), {(): s})
        images = {"b": ({}, 0)}
        carriers = {"b": s}
    plain = draw(st.permutations(target))[:draw(st.integers(0, d))]
    for i, y in enumerate(plain):
        images[f"p{i}"] = ({y: 1}, 0)
    if plain and draw(st.booleans()):
        images["clash"] = ({draw(st.sampled_from(plain)): 1}, 0)
    for i in range(draw(st.integers(0, 3))):
        images[f"t{i}"] = ({y: draw(st.integers(-1, 2)) for y in target},
                           draw(st.integers(-2, 2)))
    lattice = tuple(draw(st.permutations(sorted(images))))
    H = LaurentPoly.make(lattice, {
        tuple(int(lab == b) for lab in lattice): c for b, c in carriers.items()})
    fs = []
    for _ in range(draw(st.integers(1, 4))):
        F = LaurentPoly.make(lattice, draw(st.dictionaries(
            st.tuples(*(st.integers(-2, 2) for _ in lattice)),
            st.integers(-4, 4).filter(bool), max_size=5)))
        fs.append(lp_mul(F, power(H, draw(st.integers(0, 4)))))
    return lattice, images, u, fs


@given(gathered_substitutions())
@settings(max_examples=300, deadline=None)
def test_gathered_substitution_equals_one_shot_route(case):
    # the same polynomial, or NotLaurent on all three routes
    lattice, images, u, fs = case
    step = BinomialSubstitution(lattice, images, u)
    for f in fs:
        try:
            want = one_shot_substitute(f, images, u)
        except NotLaurent:
            with pytest.raises(NotLaurent):
                step.apply(f)
            with pytest.raises(NotLaurent):
                binomial_substitute(f, images, u)
            continue
        assert step.apply(f) == want
        assert binomial_substitute(f, images, u) == want


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8)])
def test_x_mutate_equals_one_shot_route_on_orbits(k, n):
    # every flow polynomial of every model one square move from the orbit
    # to depth 1, pulled back through its move: the moved models make up
    # the orbit to depth 2
    checked = 0
    for m in orbit(build_rectangles_model(k, n), 1):
        q = seed_of_model(m).quiver
        for j, moved in square_moves(m):
            ins, outs = map(dict, exchange_pairs(q, j))
            images = {}
            for x in face_lattice(moved):
                if x in q.vertices:
                    bij = ins.get(x, 0) - outs.get(x, 0)
                    images[x] = ({x: 1, j: max(-bij, 0)}, bij)
                else:
                    images[x] = ({j: -1}, 0)
            u = LaurentPoly.make(q.lattice, {
                (0,) * len(q.lattice): 1,
                tuple(int(x == j) for x in q.lattice): 1})
            for I in positroid(moved):
                F = flow_polynomial(moved, I)
                got = x_mutate(q, j, F)
                assert (got.lattice, got.terms) == (q.lattice, one_shot_substitute(F, images, u).terms)
                checked += 1
    assert checked > 0


def _seed_orbit(s, W, depth):
    """(seed, vertex, A-form potential) for every seed mutation from the
    seed and every seed reached from it by up to ``depth - 1`` mutations."""
    if depth:
        for j, s2 in seed_mutations(s):
            yield s, j, W
            yield from _seed_orbit(s2, a_mutate_w(s, W, j), depth - 1)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8)])
def test_a_mutate_w_equals_one_shot_route_on_orbits(k, n):
    checked = 0
    for s, j, W in _seed_orbit(rectangles_seed(k, n), w_rectangles(k, n), 2):
        j2, _labels, vertices = label_exchange(s, j)
        lattice2 = ("q",) + vertices
        images = {lab: ({lab: 1}, 0) for lab in W.poly.lattice if lab != j}
        images[j] = ({j2: -1}, 1)
        ins, outs = map(dict, exchange_pairs(s.quiver, j))
        u = LaurentPoly.make(lattice2, {
            tuple(ins.get(x, 0) for x in lattice2): 1,
            tuple(outs.get(x, 0) for x in lattice2): 1})
        got = a_mutate_w(s, W, j).poly
        want = one_shot_substitute(W.poly, images, u)
        assert (got.lattice, got.terms) == (lattice2, want.terms)
        checked += 1
    assert checked > 0
