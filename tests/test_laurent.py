from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from plabicflow.laurent import (
    LaurentPoly,
    NotLaurent,
    lp_add,
    lp_equal,
    lp_exact_div,
    lp_min_exponent,
    lp_mul,
    lp_substitute,
    Substitution,
    vec_add,
)

L3 = ("a", "b", "c")


def poly(terms):
    return LaurentPoly.make(L3, dict(terms))


def power(f, e):
    """f to the power e >= 0, one product at a time."""
    out = LaurentPoly.one(f.lattice)
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
    # a read-only name map (as seeds.neighbours gives) is a name map too
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


def test_min_max_exponent():
    f = poly({(0, 1, 0): 1, (1, 1, 0): 2, (2, 0, 0): 1})
    # two incomparable minima: lex order picks (0,1,0), flag says non-unique
    assert lp_min_exponent(f) == ((0, 1, 0), False)
    g = poly({(0, 1, 0): 1, (1, 1, 0): 2})
    assert lp_min_exponent(g) == ((0, 1, 0), True)
    with pytest.raises(ValueError):
        lp_min_exponent(poly({}))


def quadratic_min_exponent(f):
    """The all-pairs search that the coordinatewise fast path replaced; the
    lex-minimal minimal exponent, in lattice order, when none is unique."""
    exps = [e for e, _ in f.terms]
    minimal = [e for e in exps
               if not any(o != e and all(x <= y for x, y in zip(o, e)) for o in exps)]
    below_all = [e for e in minimal if all(all(x <= y for x, y in zip(e, o)) for o in exps)]
    if len(minimal) == 1 and below_all:
        return minimal[0], True
    return min(minimal), False


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
    assert lp_min_exponent(f) == quadratic_min_exponent(f)


@given(polys, polys)
@settings(max_examples=60)
def test_min_exponent_additive_for_positive_polys(f, g):
    fp = LaurentPoly.make(L3, {e: abs(c) for e, c in f.terms})
    gp = LaurentPoly.make(L3, {e: abs(c) for e, c in g.terms})
    if fp.is_zero() or gp.is_zero():
        return
    ef, _ = lp_min_exponent(fp)
    eg, _ = lp_min_exponent(gp)
    eh, _ = lp_min_exponent(lp_mul(fp, gp))
    assert eh == tuple(x + y for x, y in zip(ef, eg))


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
    sf = lp_substitute(f, IMAGES, BINOM)
    sg = lp_substitute(g, IMAGES, BINOM)
    assert lp_equal(lp_substitute(lp_mul(f, g), IMAGES, BINOM), lp_mul(sf, sg))
    assert lp_equal(lp_substitute(lp_add(f, g), IMAGES, BINOM), lp_add(sf, sg))


def test_substitute_requires_monomial_denominators():
    # a^-1 maps to (u*(1+v))^-1, which is not a Laurent polynomial
    f = poly({(-1, 0, 0): 1})
    with pytest.raises(NotLaurent):
        lp_substitute(f, IMAGES, BINOM)
    assert lp_equal(
        lp_substitute(lp_mul(f, CLEAR), IMAGES, BINOM),
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
            lp_substitute(f, images, u)
        return
    assert lp_substitute(f, images, u) == want


def one_shot_substitute(f, images, u):
    """The substitution before it was split into a build and an apply: the
    image columns and the powers of u are made afresh for every f."""
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
    powers = [LaurentPoly.one(u.lattice)]

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
                    key = vec_add(e1, e2)
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
    step = Substitution(SOURCE, images, u)
    for f in fs:
        try:
            want = one_shot_substitute(f, images, u)
        except NotLaurent:
            with pytest.raises(NotLaurent):
                step.apply(f)
            continue
        assert step.apply(f) == want
        assert lp_substitute(f, images, u) == want


def test_built_substitution_raises_not_laurent_and_stays_usable():
    # a^-1 maps to (u*(1+v))^-1: not Laurent on either route; the same step
    # then carries a^-3 * (b + c)^3 as the one-shot route does
    step = Substitution(L3, IMAGES, BINOM)
    bad = poly({(-1, 0, 0): 1})
    with pytest.raises(NotLaurent):
        one_shot_substitute(bad, IMAGES, BINOM)
    with pytest.raises(NotLaurent):
        step.apply(bad)
    good = lp_mul(poly({(-3, 0, 0): 1}), CLEAR)
    assert step.apply(good) == one_shot_substitute(good, IMAGES, BINOM)


def test_built_substitution_refuses_another_lattice():
    step = Substitution(L3, IMAGES, BINOM)
    with pytest.raises(ValueError, match="lattice mismatch"):
        step.apply(LaurentPoly.one(SOURCE))
