"""The packed A-mutation (``superpot.a_mutate_w``) against the exchange-
binomial substitution of ``substitution_oracle`` (``full_seed_a_mutate_w``):
the same verdict (an image, no Laurent polynomial, or a
``superpotential-degree`` violation with its message) and, where there is an
image, the same image.  The potentials come from seeded walks of rectangles
seeds, as they are and with injected faults: a term dropped, a coefficient
scaled, a term moved by a monomial of p-degree 0 or 1, or times q."""

import random

import pytest
from hypothesis import event, given, settings, strategies as st

from test_superpot import full_seed_a_mutate_w
from plabicflow.laurent import LaurentPoly, NotLaurent
from plabicflow.plabic import ModelInvariantError
from plabicflow.seeds import (
    Seed,
    exchange_pairs,
    label_exchange,
    mutate_labels,
    rectangles_seed,
    seed_mutations,
)
from plabicflow.superpot import PackedTerms, SuperpotentialExpr, a_mutate_w, w_rectangles


def verdict(step, s, W, j):
    try:
        out = step(s, W, j).poly
    except NotLaurent as exc:
        return "not Laurent", str(exc)
    except ModelInvariantError as exc:
        return "invariant", str(exc)
    return "image", out.lattice, out.terms


def moved(f: LaurentPoly, i: int, by: dict) -> LaurentPoly:
    """f with its i-th term's monomial multiplied by ``by``."""
    terms = dict(f.terms)
    e, c = f.terms[i]
    del terms[e]
    e = tuple(x + by.get(lab, 0) for lab, x in zip(f.lattice, e))
    terms[e] = terms.get(e, 0) + c
    return LaurentPoly.make(f.lattice, terms)


def drop(f, j, rng):
    i = rng.randrange(f.num_terms())
    return LaurentPoly.make(f.lattice, dict(f.terms[:i] + f.terms[i + 1:]))


def scale(f, j, rng):
    i = rng.randrange(f.num_terms())
    e, c = f.terms[i]
    return LaurentPoly.make(f.lattice, {**dict(f.terms), e: c * rng.choice((2, 3, -1))})


def over_j(f, j, rng):
    # p-degree 0: one more p_j in the denominator, which the exchange
    # binomial must divide
    v = rng.choice([x for x in f.lattice if x not in ("q", j)])
    return moved(f, rng.randrange(f.num_terms()), {v: 1, j: -1})


def p_degree_1(f, j, rng):
    return moved(f, rng.randrange(f.num_terms()), {rng.choice(f.lattice[1:]): 1})


def times_q(f, j, rng):
    return moved(f, rng.randrange(f.num_terms()), {"q": 1})


FAULTS = (drop, scale, over_j, p_degree_1, times_q)


@given(st.sampled_from([(3, 7), (4, 8), (3, 10)]), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_walks_with_injected_faults_get_the_oracle_verdict(kn, seed):
    # (3,10) has two-digit labels, where string order is not subset order;
    # the walk goes on from the packed image, whose view is read only here
    rng = random.Random(seed)
    s, W = rectangles_seed(*kn), w_rectangles(*kn)
    for _ in range(5):
        j, s2 = rng.choice(list(seed_mutations(s)))
        fault = rng.choice(FAULTS)
        bad = SuperpotentialExpr(fault(W.poly, j, rng), "A-form")
        got = verdict(a_mutate_w, s, bad, j)
        assert got == verdict(full_seed_a_mutate_w, s, bad, j)
        event(f"{fault.__name__}: {got[0]}")
        out = a_mutate_w(s, W, j)
        want = full_seed_a_mutate_w(s, W, j).poly
        assert (out.poly.lattice, out.poly.terms) == (want.lattice, want.terms)
        s, W = s2, out


@pytest.mark.parametrize("kn, seed", [((3, 7), 1), ((4, 8), 2), ((4, 9), 3), ((6, 12), 4)])
def test_there_and_back_returns_w_term_for_term(kn, seed):
    # twelve mutations out, then each undone at the label it exchanged to
    rng = random.Random(seed)
    s0, W0 = rectangles_seed(*kn), w_rectangles(*kn)
    s, W, back = s0, W0, []
    for _ in range(12):
        j, s2 = rng.choice(list(seed_mutations(s)))
        back.append(label_exchange(s, j)[0])
        s, W = s2, a_mutate_w(s, W, j)
    for j2 in reversed(back):
        s, W = mutate_labels(s, j2), a_mutate_w(s, W, j2)
    assert s.labels == s0.labels
    assert (W.poly.lattice, W.poly.terms) == (W0.poly.lattice, W0.poly.terms)


def test_an_inexact_division_is_not_laurent_on_both_routes():
    # a term with p_124 in its denominator scaled: its chain along y is no
    # longer a multiple of the exchange binomial's power
    s, W = rectangles_seed(3, 6), w_rectangles(3, 6).poly
    j = "124"
    col = W.lattice.index(j)
    i = next(i for i, (e, _c) in enumerate(W.terms) if e[col] < 0)
    e, c = W.terms[i]
    bad = SuperpotentialExpr(LaurentPoly.make(W.lattice, {**dict(W.terms), e: 2 * c}), "A-form")
    want = ("not Laurent", "division is not exact")
    assert verdict(a_mutate_w, s, bad, j) == verdict(full_seed_a_mutate_w, s, bad, j) == want


def spread(f: LaurentPoly, factor: dict, E: int) -> LaurentPoly:
    """f with every term times ``factor`` to the power E."""
    return LaurentPoly.make(f.lattice, {
        tuple(x + E * factor.get(lab, 0) for lab, x in zip(f.lattice, e)): c
        for e, c in f.terms})


def test_exponents_past_the_narrowest_field_are_repacked():
    # W times (p_j p_b / (p_c p_d))^E, b an out-neighbour of j and c, d no
    # neighbours: every exponent is at most E + 1, and mutating at j takes
    # b's to about 2E.  At E = 32 W fits 8-bit fields (the headroom
    # (E + 1) + 2(E + 1) + 1 < 128 for the exchange multiplicities of 1
    # here) but its image does not:
    # the way back packs the image again, at 16 bits.  At E = 100 W needs
    # them from the start
    s = rectangles_seed(3, 6)
    j = "124"
    ins, outs = map(dict, exchange_pairs(s.quiver, j))
    assert set(ins.values()) == set(outs.values()) == {1}
    b = next(iter(outs))
    c, d = [v for v in s.quiver.vertices if v not in ins and v not in outs and v != j][-2:]
    W0 = w_rectangles(3, 6).poly
    for E, sizes in ((32, (1, 2)), (100, (2, 2))):
        f = spread(W0, {j: 1, b: 1, c: -1, d: -1}, E)
        W = SuperpotentialExpr(f, "A-form")
        W2 = a_mutate_w(s, W, j)
        want = full_seed_a_mutate_w(s, W, j).poly
        assert (W2.poly.lattice, W2.poly.terms) == (want.lattice, want.terms)
        assert max(abs(x) for e, _c in W2.poly.terms for x in e) >= 2 * E
        s2 = mutate_labels(s, j)
        W3 = a_mutate_w(s2, W2, label_exchange(s, j)[0])
        assert (W._packed.size, W2._packed.size) == sizes
        assert W3.poly == f
    # p_c / p_d leaves the exponents as they are: 32-bit fields throughout
    f = spread(W0, {c: 1, d: -1}, 20000)
    W = SuperpotentialExpr(f, "A-form")
    W2 = a_mutate_w(s, W, j)
    assert W2.poly == full_seed_a_mutate_w(s, W, j).poly
    assert W._packed.size == W2._packed.size == 4
    with pytest.raises(OverflowError, match="past 8 bytes"):
        a_mutate_w(s, SuperpotentialExpr(spread(W0, {c: 1, d: -1}, 2**62), "A-form"), j)


def test_a_chain_makes_no_polynomial_until_one_is_read(monkeypatch):
    views = []
    real = PackedTerms.view

    def counted(self):
        views.append(self)
        return real(self)

    monkeypatch.setattr(PackedTerms, "view", counted)
    rng = random.Random(5)
    s, W = rectangles_seed(4, 9), w_rectangles(4, 9)
    chain = []
    for _ in range(10):
        j, s2 = rng.choice(list(seed_mutations(s)))
        s, W = s2, a_mutate_w(s, W, j)
        chain.append(W)
    assert views == []
    poly = W.poly
    assert views == [W._packed] and W.poly is poly
    assert all(V._poly is None for V in chain[:-1])


def test_a_potential_off_its_seed_is_refused():
    # the step re-keys W's columns for the seed's vertex order: W of another
    # seed, and a seed whose vertices are out of label order (456 and 567
    # swapped, away from 124's neighbours), are refused, not mis-keyed
    s = rectangles_seed(3, 7)
    with pytest.raises(ValueError, match="over q and the seed's vertices"):
        a_mutate_w(s, w_rectangles(3, 6), "124")
    labels = dict(s.labels)
    labels["456"], labels["567"] = labels["567"], labels["456"]
    swapped = Seed(s.k, s.n, s.quiver, labels)
    with pytest.raises(ValueError, match="in label order"):
        a_mutate_w(swapped, w_rectangles(3, 7), "124")
