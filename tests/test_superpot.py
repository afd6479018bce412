import contextlib
import hashlib
import io
import random
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from plabicflow import cli, seeds, superpot
from plabicflow.cones import (
    cone_contains,
    cone_from_tropical,
    gt_inequalities,
    lattice_points,
    make_cone,
)
from plabicflow.laurent import LaurentPoly, lp_add, lp_equal, lp_substitute
from plabicflow.plabic import NotPlabicMutable
from plabicflow.seeds import (
    mutable_vertices,
    mutate_labels,
    neighbours,
    rectangles_seed,
    trop_a_mutate,
)
from plabicflow.superpot import (
    SuperpotentialExpr,
    _check_a_form,
    a_mutate_w,
    boundary_vertex,
    ext_factors,
    gvector_cone_ineqs,
    quotient_f_polynomial,
    verify_wformula,
    w_rectangles,
    w_x_rectangles,
    wformula_sides,
)
from test_seeds import flat_wt


def terms_as_set(poly):
    out = set()
    for exp, coeff in poly.terms:
        nz = tuple(
            sorted((lab, e) for lab, e in zip(poly.lattice, exp) if e)
        )
        out.add((nz, coeff))
    return out


W24_TERMS = {
    ((("12", -1), ("13", 1)), 1),
    ((("13", -1), ("23", 1)), 1),
    ((("13", -1), ("14", 1)), 1),
    ((("12", 1), ("13", -1), ("14", -1), ("34", 1)), 1),
    ((("12", 1), ("13", -1), ("23", -1), ("34", 1)), 1),
    ((("13", 1), ("34", -1), ("q", 1)), 1),
}

WX24_TERMS = {
    ((("34", 1),), 1),
    ((("23", 1),), 1),
    ((("14", 1),), 1),
    ((("13", 1), ("23", 1)), 1),
    ((("13", 1), ("14", 1)), 1),
    ((("12", 1),), 1),
}


def test_w_rectangles_24_pinned():
    W = w_rectangles(2, 4)
    assert W.tag == "A-form"
    assert W.poly.lattice == ("q", "12", "13", "14", "23", "34")
    assert terms_as_set(W.poly) == W24_TERMS


def test_w_x_rectangles_24_pinned():
    WX = w_x_rectangles(2, 4)
    assert WX.tag == "X-form"
    assert WX.poly.lattice == ("12", "13", "14", "23", "34")
    assert terms_as_set(WX.poly) == WX24_TERMS


def test_term_counts():
    # 2 + k(n-k-1) + (k-1)(n-k) monomials
    for k, n, count in [(2, 4, 6), (2, 5, 9), (3, 6, 14), (3, 7, 19)]:
        assert w_rectangles(k, n).poly.num_terms() == count


def test_a_form_shape():
    W = w_rectangles(2, 5).poly
    qix = W.lattice.index("q")
    qterms = 0
    for exp, coeff in W.terms:
        assert coeff == 1
        assert sum(e for i, e in enumerate(exp) if i != qix) == 0
        qterms += exp[qix]
    assert qterms == 1


def test_boundary_vertex_and_ext_factors():
    star = rectangles_seed(2, 5).quiver.star
    assert boundary_vertex(2, 5, 5, star) == star
    assert boundary_vertex(2, 5, 1, star) == "23"  # bottom row, column 1
    assert boundary_vertex(2, 5, 4, star) == "15"  # right column
    assert ext_factors(2, 5, 3) == []  # s = n-k is trivial
    assert ext_factors(2, 5, 5) == []  # s = n is trivial
    assert ext_factors(2, 5, 1) == ["13"]
    assert ext_factors(2, 5, 4) == ["13", "14"]
    assert ext_factors(3, 6, 4) == ["134", "145"]


def test_quotient_f_polynomial():
    lattice = ("a", "b", "c")
    f = quotient_f_polynomial(["a", "b"], lattice)
    # 1 + x_b + x_a x_b: quotients are taken from the top
    assert terms_as_set(f) == {
        ((), 1),
        ((("b", 1),), 1),
        ((("a", 1), ("b", 1)), 1),
    }
    assert quotient_f_polynomial([], lattice).terms == (((0, 0, 0), 1),)


def test_verify_wformula():
    for k, n in [(1, 2), (2, 4), (2, 5), (3, 6)]:
        assert verify_wformula(k, n)


def test_wformula_sides_agree():
    lhs, rhs = wformula_sides(2, 4)
    assert lp_equal(lhs, rhs)
    assert lhs.lattice == rhs.lattice


def test_a_mutate_w_roundtrip():
    s = rectangles_seed(2, 4)
    W = w_rectangles(2, 4)
    W2 = a_mutate_w(s, W, "13")
    assert "24" in W2.poly.lattice and "13" not in W2.poly.lattice
    s2 = mutate_labels(s, "13")
    W3 = a_mutate_w(s2, W2, "24")
    assert lp_equal(W3.poly, W.poly)


def test_a_mutate_w_splits_the_q_term():
    # one mutation can write the q-monomial as a sum; the Laurent property
    # and the per-term degrees survive
    s = rectangles_seed(2, 4)
    W2 = a_mutate_w(s, w_rectangles(2, 4), "13").poly
    qix = W2.lattice.index("q")
    qterms = sum(1 for exp, _c in W2.terms if exp[qix])
    assert qterms == 2


def test_a_mutate_w_guards():
    s = rectangles_seed(2, 4)
    W = w_rectangles(2, 4)
    with pytest.raises(NotPlabicMutable):
        a_mutate_w(s, W, "12")
    with pytest.raises(ValueError):
        a_mutate_w(s, w_x_rectangles(2, 4), "13")


def full_seed_a_mutate_w(s, W, j):
    """The potential step on a whole seed mutation, which gives the
    partner's name and the vertex order: the reference for ``a_mutate_w``,
    which reads both off ``seeds.label_exchange``."""
    if W.tag != "A-form":
        raise ValueError("a_mutate_w needs an A-form superpotential")
    s2 = mutate_labels(s, j)
    (j2,) = set(s2.labels) - set(s.labels)
    lattice2 = ("q",) + s2.quiver.vertices
    images = {lab: ({lab: 1}, 0) for lab in W.poly.lattice if lab != j}
    images[j] = ({j2: -1}, 1)
    ins, outs = neighbours(s.quiver, j)
    binom = lp_add(LaurentPoly.monomial(lattice2, ins),
                   LaurentPoly.monomial(lattice2, outs))
    out = lp_substitute(W.poly, images, binom)
    _check_a_form(out)
    return SuperpotentialExpr(out, "A-form")


@given(st.sampled_from([(3, 7), (4, 8), (3, 10)]), st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_a_mutate_w_equals_the_full_seed_step(kn, seed):
    # (3,10) has two-digit labels, where string order is not subset order
    k, n = kn
    rng = random.Random(seed)
    s, W = rectangles_seed(k, n), w_rectangles(k, n)
    steps = 0
    for _try in range(60):
        if steps == 4:
            break
        j = rng.choice(mutable_vertices(s.quiver))
        try:
            want = full_seed_a_mutate_w(s, W, j)
        except NotPlabicMutable:
            with pytest.raises(NotPlabicMutable):
                a_mutate_w(s, W, j)
            continue
        got = a_mutate_w(s, W, j)
        assert (got.poly.lattice, got.poly.terms) == (want.poly.lattice, want.poly.terms)
        s, W = mutate_labels(s, j), got
        steps += 1
    assert steps == 4


def test_superpotential_mutates_the_seed_once_per_step(monkeypatch, capsys):
    calls = []
    real = seeds.mutate_labels

    def counted(s, j):
        calls.append(j)
        return real(s, j)

    for module in (seeds, superpot, cli):
        if getattr(module, "mutate_labels", None) is real:
            monkeypatch.setattr(module, "mutate_labels", counted)
    rc = cli.main(["superpotential", "--kn", "4,8", "--mutations", "1245,1237,1256"])
    assert rc == 0 and capsys.readouterr().out
    assert calls == ["1245", "1237", "1256"]


def test_tropicalized_w_equals_gt_cone():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        s = rectangles_seed(k, n)
        cw = cone_from_tropical(w_rectangles(k, n).poly, s.quiver.star)
        assert cw == gt_inequalities(k, n)


def test_trop_membership_preserved_under_mutation():
    s = rectangles_seed(2, 4)
    W = w_rectangles(2, 4)
    W2 = a_mutate_w(s, W, "13")
    s2 = mutate_labels(s, "13")
    cone_old = cone_from_tropical(W.poly, s.quiver.star)
    cone_new = cone_from_tropical(W2.poly, s2.quiver.star)
    star = s.quiver.star

    samples = []
    rng = random.Random(7)
    for _ in range(200):
        v = {x: rng.randint(-3, 3) for x in s.quiver.vertices}
        v[star] = 0
        samples.append((rng.randint(0, 3), v))
    gt = gt_inequalities(2, 4)
    for r in (1, 2):
        for pt in lattice_points(gt, r):
            v = dict(zip(gt.ambient[1:], pt[1:]))
            v[star] = 0
            samples.append((r, v))

    inside = 0
    for r, v in samples:
        mv = trop_a_mutate(s.quiver, "13", v)
        renamed = {("24" if a == "13" else a): b for a, b in mv.items()}
        old_pt = (r, *(v[a] for a in cone_old.ambient[1:]))
        new_pt = (r, *(renamed[a] for a in cone_new.ambient[1:]))
        in_old = cone_contains(cone_old, old_pt)
        assert in_old == cone_contains(cone_new, new_pt)
        inside += in_old
    assert inside >= len(samples) - 200  # the appended lattice points are inside


def test_gvector_cone_is_wt_image_of_gt():
    for k, n in [(2, 4), (2, 5)]:
        s = rectangles_seed(k, n)
        gv = gvector_cone_ineqs(k, n)
        gt = gt_inequalities(k, n)
        wtm = flat_wt(s)
        star = s.quiver.star
        composed = []
        for cov in gt.ineqs:
            m = dict(zip(gt.ambient, cov))
            composed.append({
                u: m.get("r", 0) + sum(
                    m.get(v, 0) * wtm.get((v, u), 0)
                    for v in s.quiver.vertices
                    if v != star
                )
                for u in s.quiver.vertices
            })
        assert make_cone(gv.ambient, composed) == gv


# sha256 of the outputs of the seed layer's beta and wt, pinned before beta
# and wt were read by column: (exit code, stdout) of two suites, and the
# g-vector cones as repr((ambient, ineqs))
SUITE_PINS = {
    "verify exact-seq --kn 6,12 --format pretty":
        (0, "f2f7296054f500a008b0b27b95f6e60821cc19526f81f97ab02a37d570b741c1"),
    "verify wformula --kn 4,9 --format json":
        (0, "d00c9585768f8fbe71f00e548c3319e38fdcde0363c10b3d539d3559a66242dc"),
}
GVECTOR_PINS = {
    (3, 6): "25b677100d7adb13baa0d125cc8918704ed3aeabf01e2d27617cc6ca1dbd18b4",
    (3, 7): "9f77328bbc6e1f2457d0a744278a12f0fd3713bee395089736a4cc82403d6856",
    (4, 8): "b900235bdbc2e8ffd5104bfa9949181698956aa9cf9eeb6b17894abdd2bcbdab",
}


@pytest.mark.parametrize("command", sorted(SUITE_PINS))
def test_beta_and_wt_suites_are_byte_identical(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(shlex.split(command))
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (rc, digest) == SUITE_PINS[command]


@pytest.mark.parametrize("kn", sorted(GVECTOR_PINS))
def test_gvector_cone_is_pinned(kn):
    c = gvector_cone_ineqs(*kn)
    digest = hashlib.sha256(repr((c.ambient, c.ineqs)).encode()).hexdigest()
    assert digest == GVECTOR_PINS[kn]
