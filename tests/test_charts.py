import pytest

from model_transforms import orbit
from plabicflow import charts
from plabicflow.cli import load_any_model
from plabicflow.combinat import ksubsets
from plabicflow.laurent import LaurentPoly, lp_equal
from plabicflow.plabic import (
    ModelInvariantError,
    build_rectangles_model,
    positroid,
    shark_model,
    square_move,
)
from plabicflow.charts import (
    edge_lattice,
    face_lattice,
    flow_polynomial,
    partition_function,
    plucker_verify,
    three_term_relations,
    valuation,
    x_mutate,
)
from plabicflow.seeds import kappa_vector, seed_of_model


def test_edge_and_face_lattices():
    m = shark_model()
    assert edge_lattice(m) == (
        "B1B2", "B1B3", "B1B5", "B3B4", "B4B5",
        "E1", "E2", "E3", "E4", "E5",
    )
    # star face 12 is omitted from the face lattice
    assert face_lattice(m) == ("14", "15", "23", "24", "34")


@pytest.mark.parametrize("spec,depth", [
    ("rect:2,5", 0), ("rect:3,6", 0), ("rect:3,7", 3), ("rect:4,8", 0),
    ("rect:4,9", 0), ("rect:2,10", 0), ("rect:3,10", 0), ("shark", 0),
])
def test_face_lattice_is_the_seed_lattice(spec, depth):
    # flow polynomials live on the face lattice and X-mutation reads the
    # seed's, so the two must name the same faces in the same order
    for m in orbit(load_any_model(spec), depth):
        assert face_lattice(m) == seed_of_model(m).quiver.lattice


def test_partition_function_single_matching():
    # exactly one matching of the shark has boundary value 35; its edge set
    # pins the monomial
    p = partition_function(shark_model(), (3, 5))
    assert p.pretty("") == "B1B5*E2*E3*E5"
    assert p.terms == (((0, 0, 1, 0, 0, 0, 1, 1, 0, 1), 1),)


def test_partition_function_outside_positroid_is_zero():
    m = shark_model()
    assert (4, 5) not in positroid(m)
    assert partition_function(m, (4, 5)).terms == ()


def test_partition_function_counts_matchings():
    m = shark_model()
    total = sum(
        sum(c for _e, c in partition_function(m, I).terms)
        for I in ksubsets(5, 2)
    )
    assert total == 11


def test_flow_polynomial_shark_25():
    f = flow_polynomial(shark_model(), (2, 5))
    assert f.pretty() == "y34*(1+y24)"
    assert f.lattice == ("14", "15", "23", "24", "34")
    assert f.terms == (((0, 0, 0, 0, 1), 1), ((0, 0, 0, 1, 1), 1))


def test_flow_polynomial_base_is_one():
    # the base boundary value flows trivially
    m = build_rectangles_model(2, 4)
    f = flow_polynomial(m, (3, 4))
    assert f.terms == (((0,) * len(f.lattice), 1),)


def test_flow_polynomial_rect24_pinned():
    f = flow_polynomial(build_rectangles_model(2, 4), (1, 3))
    assert f.pretty() == "y14*y23*y34*(1+y13)"


def test_valuation_equals_kappa_rect24():
    m = build_rectangles_model(2, 4)
    s = seed_of_model(m)
    star = s.quiver.star
    for I in ksubsets(4, 2):
        f = flow_polynomial(m, I)
        val = valuation(f)
        kap = kappa_vector(s, I)
        assert val == {v: c for v, c in kap.items() if v != star}


def test_valuation_equals_kappa_shark():
    m = shark_model()
    s = seed_of_model(m)
    star = s.quiver.star
    for I in positroid(m):
        val = valuation(flow_polynomial(m, I))
        assert val == {v: c for v, c in kappa_vector(s, I).items() if v != star}


def test_valuation_equals_kappa_after_square_move():
    m = square_move(build_rectangles_model(2, 4), (1, 3))
    s = seed_of_model(m)
    star = s.quiver.star
    for I in ksubsets(4, 2):
        val = valuation(flow_polynomial(m, I))
        assert val == {v: c for v, c in kappa_vector(s, I).items() if v != star}


@pytest.mark.parametrize("spec,depth", [
    ("shark", 2), ("rect:2,5", 2), ("rect:3,6", 2), ("rect:3,7", 2), ("rect:4,8", 2),
])
def test_valuation_is_the_coordinatewise_least_exponent_on_orbits(spec, depth):
    # the leading term is the least exponent of every flow polynomial, as
    # the coordinatewise minimum over all its exponents says
    for m in orbit(load_any_model(spec), depth):
        for I in positroid(m):
            f = flow_polynomial(m, I)
            least = tuple(map(min, zip(*(e for e, _ in f.terms))))
            assert valuation(f) == dict(zip(f.lattice, least)), (spec, I)


def test_flow_extremes_unique():
    # minimal and maximal exponents of every flow polynomial are unique
    # with coefficient one (checked again here from the outside)
    m = build_rectangles_model(2, 5)
    for I in ksubsets(5, 2):
        f = flow_polynomial(m, I)
        terms = dict(f.terms)
        for pick in (min, max):
            assert terms.get(tuple(map(pick, zip(*terms)))) == 1


def test_x_mutate_direction():
    # mutation pulls the flow polynomial on the moved model back to the
    # polynomial on the original model
    m = build_rectangles_model(2, 4)
    q = seed_of_model(m).quiver
    m2 = square_move(m, (1, 3))
    for I in ksubsets(4, 2):
        got = x_mutate(q, "13", flow_polynomial(m2, I))
        assert lp_equal(got, flow_polynomial(m, I))


def test_x_mutate_involution():
    # the moved model's dual quiver pulls back in the other direction
    m = build_rectangles_model(2, 4)
    m2 = square_move(m, (1, 3))
    q2 = seed_of_model(m2).quiver
    for I in ksubsets(4, 2):
        got = x_mutate(q2, "24", flow_polynomial(m, I))
        assert lp_equal(got, flow_polynomial(m2, I))


def test_x_mutate_lattice_mismatch():
    q = seed_of_model(build_rectangles_model(2, 4)).quiver
    bad = LaurentPoly.make(("13", "99"), {(1, 0): 1})
    with pytest.raises(ModelInvariantError):
        x_mutate(q, "13", bad)


def test_x_mutate_checks_each_lattice_once_per_quiver():
    # a step built for one lattice at j does not serve another: a lattice
    # that does not fit the quiver fails its own build, after a good one
    # and again on a second try, since a build that raises keeps nothing
    m = build_rectangles_model(2, 4)
    q = seed_of_model(m).quiver
    good = flow_polynomial(square_move(m, (1, 3)), (1, 2))
    assert lp_equal(x_mutate(q, "13", good), flow_polynomial(m, (1, 2)))
    bad = LaurentPoly.make(("13", "99"), {(1, 0): 1})
    for _ in range(2):
        with pytest.raises(ModelInvariantError, match="quiver-fz-mismatch"):
            x_mutate(q, "13", bad)
    assert list(q._x_steps) == [("13", good.lattice)]


def test_three_term_relation_count():
    # one relation per (k-2)-subset and 4-subset of the complement
    rels = list(three_term_relations(2, 5))
    assert len(rels) == 5
    rels36 = list(three_term_relations(3, 6))
    assert len(rels36) == 6 * 5  # 6 singletons, C(5,4) quadruples each


def test_plucker_relations_rect():
    m = build_rectangles_model(2, 4)
    for rel in three_term_relations(2, 4):
        assert plucker_verify(m, rel)


def test_plucker_relations_shark():
    # the shark misses the boundary value 45, so the relations degenerate
    # but still hold with those coordinates set to zero
    m = shark_model()
    for rel in three_term_relations(2, 5):
        assert plucker_verify(m, rel)


def test_plucker_fails_in_either_chart(monkeypatch):
    # every relation is checked in both charts, so one wrong chart fails it:
    # with every coordinate 1 the relation reads 1 = 2
    m = build_rectangles_model(2, 4)
    rel = next(iter(three_term_relations(2, 4)))
    assert plucker_verify(m, rel)
    for chart in ("partition_function", "flow_polynomial"):
        with monkeypatch.context() as patch:
            patch.setattr(charts, chart, lambda model, I: LaurentPoly.one(("x",)))
            assert not plucker_verify(m, rel)
