"""The packed charts against their slow routes: the packed product
(``charts._multiply``) against ``lp_mul`` of the polynomials it packs, the
packed three-term check against the dense one of ``plucker_oracle`` on
every relation of small models and their square-move orbits, as they are
and with a fault injected in either chart, and the flow table against the
per-boundary-value route."""

from functools import lru_cache

import pytest
from hypothesis import event, given, settings, strategies as st

from model_transforms import orbit
from plucker_oracle import plucker_verify as dense_verify
from plabicflow import charts
from plabicflow.charts import flow_counts, flow_table, plucker_verify, three_term_relations
from plabicflow.cli import load_any_model
from plabicflow.combinat import ksubsets
from plabicflow.laurent import LaurentPoly, lp_mul
from plabicflow.plabic import analyze, face_graph, matching_table, positroid


def packing(width: int, fields: int, bias: bool):
    """(pack, unpack, bias) for ``fields`` fields of ``width`` bits, each
    holding its value plus 2^(width - 1) when ``bias``; Python's ints let a
    field hold a negative value there, borrowed from the bias."""
    off = sum(1 << (width * i + width - 1) for i in range(fields)) if bias else 0
    half = 1 << (width - 1) if bias else 0
    top = (1 << width) - 1

    def pack(e):
        return off + sum(x << width * i for i, x in enumerate(e))

    def unpack(w):
        return tuple((w >> width * i & top) - half for i in range(fields))

    return pack, unpack, off


@st.composite
def packed_pairs(draw):
    """(width, fields, bias, f, g): two polynomials as exponent tuple ->
    coefficient whose product stays in its fields, in the face chart's
    biased layout or the edge chart's 2-bit one."""
    fields = draw(st.integers(1, 5))
    if draw(st.booleans()):
        width, bias = 2, False  # the edge chart: exponents 0 and 1
        exponent = st.integers(0, 1)
    else:
        width, bias = draw(st.sampled_from((8, 16))), True
        # two exponents sum to at least -2^(width - 1) and below it
        lo, hi = -(1 << width - 2), (1 << width - 2) - 1
        exponent = st.one_of(st.integers(-3, 3), st.sampled_from((lo, lo + 1, hi - 1, hi)))
    poly = st.dictionaries(st.tuples(*[exponent] * fields),
                           st.integers(-3, 3).filter(bool), max_size=6)
    return width, fields, bias, draw(poly), draw(poly)


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packed_product_is_lp_mul(case):
    width, fields, bias, f, g = case
    pack, unpack, off = packing(width, fields, bias)
    product = charts._multiply({pack(e): c for e, c in f.items()},
                               {pack(e): c for e, c in g.items()}, off, {})
    lattice = tuple(f"x{i}" for i in range(fields))
    want = lp_mul(LaurentPoly.make(lattice, f), LaurentPoly.make(lattice, g))
    assert LaurentPoly.make(lattice, {unpack(w): c for w, c in product.items() if c}) == want


def test_products_accumulate_into_one_dict():
    pack, unpack, off = packing(8, 2, True)
    f = {pack((1, -2)): 2}
    out = charts._multiply(f, {pack((0, 3)): 1}, off, {})
    out = charts._multiply(f, {pack((0, 3)): -1, pack((1, 1)): 1}, off, out)
    assert {unpack(w): c for w, c in out.items()} == {(1, 1): 0, (2, -1): 2}


SPECS = ("rect:2,4", "rect:2,5", "rect:3,6", "rect:3,7", "rect:4,8", "shark")
ORBITS = ("shark", "rect:2,5", "rect:3,6", "rect:3,7")


def relations(model):
    return list(three_term_relations(model.k, model.n))


@pytest.mark.parametrize("spec", SPECS)
def test_packed_and_dense_agree_on_every_relation(spec):
    model = load_any_model(spec)
    matching_table(model)
    assert all(plucker_verify(model, rel) is dense_verify(model, rel) is True
               for rel in relations(model))


@pytest.mark.parametrize("spec", ORBITS)
def test_packed_and_dense_agree_on_orbits(spec):
    models = list(orbit(load_any_model(spec), 2))
    assert len(models) > 1
    for model in models:
        matching_table(model)
        for rel in relations(model):
            assert plucker_verify(model, rel) is dense_verify(model, rel) is True, rel


@lru_cache(maxsize=None)
def fault_models():
    """(spec, index in its depth-1 orbit) of the models a fault is drawn on."""
    return [(spec, i) for spec in ORBITS
            for i, _ in enumerate(orbit(load_any_model(spec), 1))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_fault_in_either_chart_gets_the_dense_verdict(data):
    spec, i = data.draw(st.sampled_from(fault_models()))
    # a fresh model: the views are made from the faulty counts
    model = list(orbit(load_any_model(spec), 1))[i]
    P = positroid(model)
    chart = data.draw(st.sampled_from(("edge_counts", "flow_counts")))
    J = data.draw(st.sampled_from(P))
    real = getattr(charts, chart)
    counts = dict(real(model, J))
    keys = sorted(counts)
    kind = data.draw(st.sampled_from(("scale", "drop", "add")))
    if kind == "add":
        if chart == "edge_counts":
            edges = len(analyze(model).edges)
            bits = data.draw(st.lists(st.integers(0, 1), min_size=edges, max_size=edges))
            key = sum(b << 2 * e for e, b in enumerate(bits))
        else:
            lattice = len(charts.face_lattice(model))
            key = face_graph(model).pack(data.draw(
                st.lists(st.integers(0, 3), min_size=lattice, max_size=lattice)))
        counts[key] = counts.get(key, 0) + data.draw(st.integers(1, 2))
    else:
        key = data.draw(st.sampled_from(keys))
        counts[key] *= 0 if kind == "drop" else data.draw(st.integers(2, 3))
        counts = {e: c for e, c in counts.items() if c}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charts, chart,
                      lambda model, I: counts if tuple(I) == J else real(model, I))
        verdicts = [(plucker_verify(model, rel), dense_verify(model, rel))
                    for rel in relations(model)]
    assert all(packed is dense for packed, dense in verdicts)
    event(f"{kind} fault caught: {not all(dense for _, dense in verdicts)}")


@pytest.mark.parametrize("spec", ORBITS + ("rect:4,8",))
def test_flow_table_is_the_per_value_route(spec):
    for model in orbit(load_any_model(spec), 1):
        an = analyze(model)
        assert an.kept("matching table") is None
        # with no matching table, each value is weighed from its own matchings
        per_value = {I: (flow_counts(model, I), an.kept(("flow counts", I))[1])
                     for I in ksubsets(model.n, model.k)}
        table = flow_table(model)
        assert list(table) == list(matching_table(model).positroid)
        for I, (counts, least) in per_value.items():
            if I in table:
                assert table[I] == (counts, least)
                assert face_graph(model).extremes(counts)[0] == least
            else:
                assert (counts, least) == ({}, None)
