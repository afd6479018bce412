import pytest

from model_transforms import orbit
from plabicflow import charts
from plabicflow.cli import load_any_model
from plabicflow.combinat import ksubsets
from plabicflow.plabic import (
    ModelInvariantError,
    build_rectangles_model,
    face_graph,
    positroid,
    shark_model,
    square_move,
)
from plabicflow.charts import (
    XStep,
    edge_lattice,
    face_lattice,
    flow_counts,
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
        val = valuation(m, I)
        kap = kappa_vector(s, I)
        assert val == {v: c for v, c in kap.items() if v != star}


def test_valuation_equals_kappa_shark():
    m = shark_model()
    s = seed_of_model(m)
    star = s.quiver.star
    for I in positroid(m):
        val = valuation(m, I)
        assert val == {v: c for v, c in kappa_vector(s, I).items() if v != star}


def test_valuation_equals_kappa_after_square_move():
    m = square_move(build_rectangles_model(2, 4), (1, 3))
    s = seed_of_model(m)
    star = s.quiver.star
    for I in ksubsets(4, 2):
        val = valuation(m, I)
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
            assert valuation(m, I) == dict(zip(f.lattice, least)), (spec, I)


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
    # mutation pulls the flow counts of the moved model back to the counts
    # of the original model, packed alike
    m = build_rectangles_model(2, 4)
    m2 = square_move(m, (1, 3))
    step = XStep(m, "13", m2)
    for I in ksubsets(4, 2):
        assert x_mutate(step, flow_counts(m2, I)) == flow_counts(m, I)


def test_x_mutate_involution():
    # the moved model's dual quiver pulls back in the other direction
    m = build_rectangles_model(2, 4)
    m2 = square_move(m, (1, 3))
    step = XStep(m2, "24", m)
    for I in ksubsets(4, 2):
        assert x_mutate(step, flow_counts(m, I)) == flow_counts(m2, I)


def test_x_mutate_lattice_mismatch():
    # a "move" that renames no face, or renames another one than j
    m = build_rectangles_model(2, 4)
    with pytest.raises(ModelInvariantError, match="quiver-fz-mismatch"):
        XStep(m, "13", m)
    m = build_rectangles_model(3, 6)
    with pytest.raises(ModelInvariantError, match="quiver-fz-mismatch"):
        XStep(m, "124", square_move(m, (1, 2, 5)))


def test_x_mutate_checks_each_lattice_once_per_quiver():
    # a step checks its lattice where it is built, once per move, and then
    # serves every boundary value; a move that does not fit fails its own
    # build, after a good one and again on a second try
    m = build_rectangles_model(2, 4)
    m2 = square_move(m, (1, 3))
    step = XStep(m, "13", m2)
    for I in ksubsets(4, 2):
        assert x_mutate(step, flow_counts(m2, I)) == flow_counts(m, I)
    for _ in range(2):
        with pytest.raises(ModelInvariantError, match="quiver-fz-mismatch"):
            XStep(m, "13", m)


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
    # with every coordinate 1 (the packed zero exponent, the bias in the face
    # chart) the relation reads 1 = 2
    m = build_rectangles_model(2, 4)
    rel = next(iter(three_term_relations(2, 4)))
    assert plucker_verify(m, rel)
    one = {"edge_counts": {0: 1}, "flow_counts": {face_graph(m).bias: 1}}
    for chart, coordinate in one.items():
        with monkeypatch.context() as patch:
            patch.setattr(charts, chart, lambda model, I, c=coordinate: c)
            assert not plucker_verify(m, rel)
