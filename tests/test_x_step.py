"""The packed X-mutation (``charts.XStep`` and ``charts.x_mutate``) against
the generic one of ``x_mutate_oracle``: the same verdict (the image agrees
with the model's flow polynomial, disagrees, or is no Laurent polynomial)
and, where the image is a Laurent polynomial, the same image.  Flow counts
come from the square moves of small orbits, as they are and with injected
faults: coefficients scaled or dropped, and terms added, which give
inexact divisions and exponents below 0 or past a field's range."""

from functools import lru_cache

import pytest
from hypothesis import event, given, settings, strategies as st

from model_transforms import orbit
from x_mutate_oracle import x_mutate as oracle_x_mutate
from plabicflow import plabic
from plabicflow.charts import XStep, face_lattice, flow_counts, flow_polynomial, x_mutate
from plabicflow.cli import load_any_model
from plabicflow.laurent import LaurentPoly, NotLaurent
from plabicflow.plabic import build_rectangles_model, face_graph, positroid, square_move
from plabicflow.seeds import exchange_pairs, seed_of_model

SPECS = ("shark", "rect:2,5", "rect:3,6", "rect:3,7", "rect:4,8")


@lru_cache(maxsize=None)
def moves(spec: str) -> list:
    """(model, j, moved) for every square move of the orbit to depth 1."""
    return [(m, j, moved) for m in orbit(load_any_model(spec), 1)
            for j, moved in plabic.square_moves(m)]


def as_poly(step: XStep, model, image: dict) -> LaurentPoly:
    """A packed image as a polynomial on the model's face lattice; a key
    (r, t) is r with t in j's column."""
    graph, terms = face_graph(model), {}
    p = step.column // graph.width
    for key, c in image.items():
        if isinstance(key, tuple):
            r, t = key
            e = list(graph.exponents(r))
            e[p] = t
            terms[tuple(e)] = c
        else:
            terms[graph.exponents(key)] = c
    return LaurentPoly.make(face_lattice(model), terms)


def outcomes(model, j, moved, I, counts: dict):
    """(verdict, image) of the packed step and of the oracle on counts in
    the moved model's packing: the verdict True or False as the image
    equals the model's flow polynomial at I, or "not Laurent"."""
    step = XStep(model, j, moved)
    try:
        image = x_mutate(step, counts)
        packed = (image == flow_counts(model, I), as_poly(step, model, image))
    except NotLaurent as exc:
        packed = ("not Laurent", str(exc))
    moved_graph = face_graph(moved)
    f = LaurentPoly.make(face_lattice(moved),
                         {moved_graph.exponents(w): c for w, c in counts.items()})
    try:
        image = oracle_x_mutate(seed_of_model(model).quiver, j, f)
        oracle = (image == flow_polynomial(model, I), image)
    except NotLaurent as exc:
        oracle = ("not Laurent", str(exc))
    return packed, oracle


@pytest.mark.parametrize("spec", SPECS)
def test_every_move_of_the_orbit_agrees_with_the_oracle(spec):
    checked = 0
    for model, j, moved in moves(spec):
        for I in positroid(model):
            packed, oracle = outcomes(model, j, moved, I, dict(flow_counts(moved, I)))
            assert packed == oracle == (True, flow_polynomial(model, I)), (spec, j, I)
            checked += 1
    assert checked > 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_injected_faults_get_the_oracle_verdict(data):
    model, j, moved = data.draw(st.sampled_from(moves(data.draw(st.sampled_from(SPECS)))))
    I = data.draw(st.sampled_from(positroid(model)))
    counts = dict(flow_counts(moved, I))
    keys = sorted(counts)
    for i, factor in data.draw(st.lists(st.tuples(st.integers(0, len(keys) - 1),
                                                   st.sampled_from((-1, 0, 2, 3))),
                                        max_size=2)):
        counts[keys[i]] *= factor
    graph = face_graph(moved)
    width = len(face_lattice(moved))
    for exp, c in data.draw(st.lists(st.tuples(
            st.lists(st.integers(0, 6), min_size=width, max_size=width),
            st.sampled_from((-2, -1, 1, 2))), max_size=2)):
        w = graph.pack(exp)
        counts[w] = counts.get(w, 0) + c
    counts = {w: c for w, c in counts.items() if c}
    packed, oracle = outcomes(model, j, moved, I, counts)
    assert packed == oracle
    event(f"verdict {packed[0]}")
    if packed[0] != "not Laurent" and any(min(e) < 0 for e, _ in packed[1].terms):
        event("an exponent below 0")


def single_term(model, j, moved, fields: dict) -> dict:
    """Counts of one term in the moved packing, its exponents given by
    name (every other one 0)."""
    lattice = face_lattice(moved)
    return {face_graph(moved).pack([fields.get(x, 0) for x in lattice]): 1}


def renamed_face(model, j, moved) -> str:
    """The name of the face that the move at j renamed."""
    q = seed_of_model(model).quiver
    return next(x for x in face_lattice(moved) if x not in q.vertices)


def rect_36_move():
    model = build_rectangles_model(3, 6)
    return model, "125", square_move(model, (1, 2, 5))


def test_an_inexact_division_is_not_laurent_on_both_routes():
    # one term with E = -1: x^a / (1 + x_j) is no Laurent polynomial
    model, j, moved = rect_36_move()
    _ins, outs = map(dict, exchange_pairs(seed_of_model(model).quiver, j))
    out = next(x for x in outs if x in face_lattice(moved))
    counts = single_term(model, j, moved, {out: 1})
    packed, oracle = outcomes(model, j, moved, (1, 2, 3), counts)
    assert packed == oracle == ("not Laurent", "division is not exact")


def test_exponents_below_0_and_past_the_field_keep_their_terms():
    # x_j' alone maps to x_j^-5; two in- and two out-neighbours at 100 give
    # E = 0 and x_j^200, past the 8-bit field's 127: both keyed (r, t)
    model, j, moved = rect_36_move()
    ins, outs = map(dict, exchange_pairs(seed_of_model(model).quiver, j))
    renamed = renamed_face(model, j, moved)
    assert face_graph(model).width == 8
    assert len(ins) == len(outs) == 2 and set(ins.values()) == set(outs.values()) == {1}
    for fields, t in (({renamed: 5}, -5), ({**dict.fromkeys(ins, 100),
                                             **dict.fromkeys(outs, 100)}, 200)):
        counts = single_term(model, j, moved, fields)
        step = XStep(model, j, moved)
        (key, c), = x_mutate(step, counts).items()
        assert isinstance(key, tuple) and key[1] == t and c == 1
        packed, oracle = outcomes(model, j, moved, (1, 2, 3), counts)
        assert packed == oracle and packed[0] is False


@pytest.mark.parametrize("wide", ["moved", "model"])
def test_a_move_to_another_field_width_is_repacked(monkeypatch, wide):
    # a move can add edges and so widen the fields (rect (7,14) has E = 123);
    # here one of the two face graphs is built 16 bits wide instead of 8
    model, j, moved = rect_36_move()
    real = plabic._field_size
    monkeypatch.setattr(plabic, "_field_size", lambda top: 2 * real(top))
    face_graph({"moved": moved, "model": model}[wide])
    monkeypatch.undo()
    assert {face_graph(model).width, face_graph(moved).width} == {8, 16}
    step = XStep(model, j, moved)
    for I in positroid(model):
        assert x_mutate(step, flow_counts(moved, I)) == flow_counts(model, I), I
    back = XStep(moved, renamed_face(model, j, moved), model)
    for I in positroid(model):
        assert x_mutate(back, flow_counts(model, I)) == flow_counts(moved, I), I
