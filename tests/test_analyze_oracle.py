"""The dart route of ``plabic.analyze`` against its keyed oracle.

``analyze_oracle`` is the route ``analyze`` took before it ran over integer
darts.  On the square-move orbits of rectangles models and the shark both
routes must give every field of the analysis alike, and on a model that
breaks an invariant both must raise the same violation with the same
detail.  The fuzzed model texts of ``test_trip_labels`` are compared the
same way there.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analyze_oracle import analyze_oracle

import plabicflow
from plabicflow import plabic, seeds
from plabicflow.plabic import (
    ModelInvariantError,
    NotPlabicMutable,
    PlabicModel,
    analyze,
    build_rectangles_model,
    load_model,
    shark_model,
)

MODELS = Path(__file__).parent / "models"

FIELDS = ("faces", "label_to_face", "star", "edges", "black_white", "arrows",
          "anticlockwise", "lattice")


def bare(model):
    """A copy of ``model`` that was never analysed."""
    return PlabicModel(model.k, model.n, model.colors, model.edges, model.rot)


def assert_routes_agree(model):
    got, want = analyze(bare(model)), analyze_oracle(bare(model))
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    # the map in the same order too, so that listing it reads alike
    assert list(got.label_to_face.items()) == list(want.label_to_face.items())
    for name in ("nbrs", "around", "edges_at"):
        assert getattr(got.adjacency, name) == getattr(want.adjacency, name), name


BASES = {kn: build_rectangles_model(*kn) for kn in [(2, 5), (3, 6), (3, 7), (4, 8)]}
BASES["shark"] = shark_model()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BASES, key=str)),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=5))
def test_square_move_orbits_analyse_alike(base, picks):
    model = BASES[base]
    assert_routes_agree(model)
    for pick in picks:
        faces = seeds.mutable_vertices(seeds.seed_of_model(model).quiver)
        for i in range(len(faces)):
            j = faces[(pick + i) % len(faces)]
            try:
                model = plabic.square_move(model, seeds.seed_of_model(model).labels[j])
            except NotPlabicMutable:
                continue
            break
        assert_routes_agree(model)


@pytest.mark.parametrize("k,n", [(1, 2), (1, 5), (4, 5), (2, 4), (2, 10), (3, 11), (5, 10)])
def test_rectangles_and_stars_analyse_alike(k, n):
    assert_routes_agree(build_rectangles_model(k, n))


@pytest.mark.parametrize("mark", ["!", "'", '"', "\\", "\t", "é"])
def test_edge_ids_that_sort_apart_under_str_analyse_alike(mark):
    # faces are numbered in the str order of ("e", id), which can differ from
    # the order of the ids: "e!" sorts before "e" under str, after it plainly
    base = build_rectangles_model(3, 6)
    name = {e: "e" + mark * i for i, e in enumerate(sorted(base.edges))}
    assert_routes_agree(PlabicModel(
        base.k, base.n, base.colors, {name[e]: ends for e, ends in base.edges.items()},
        {v: tuple(map(name.__getitem__, r)) for v, r in base.rot.items()}))


@pytest.mark.parametrize("base", ["shark", (3, 6)])
def test_edges_written_end_first_analyse_alike(base):
    # every edge with its ends swapped: each stub names its tip first
    model = BASES[base]
    assert_routes_agree(PlabicModel(
        model.k, model.n, model.colors, {e: (b, a) for e, (a, b) in model.edges.items()},
        model.rot))


def edited(base, colors=(), edges=(), rot=(), k=None, n=None):
    """``base`` with some of its entries replaced."""
    return PlabicModel(k or base.k, n or base.n, {**base.colors, **dict(colors)},
                       {**base.edges, **dict(edges)}, {**base.rot, **dict(rot)})


def shark_with(**edits):
    return edited(shark_model(), **edits)


BROKEN = {
    "bad-color": shark_with(colors={"B3": "green"}),
    "rotation-coverage": shark_with(colors={"X": "white"}),
    "unknown-node": shark_with(edges={"E9": (("n", "B9"), ("t", 2))}),
    "bad-boundary-labels": shark_with(edges={"E1": (("n", "B5"), ("t", 7))}),
    "bad-end": shark_with(edges={"E1": (("n", "B5"), ("q", 1))}),
    "bipartite": shark_with(edges={"B1B2": (("n", "B2"), ("n", "B3"))}),
    "edge-both-boundary": shark_with(edges={"E1": (("t", 1), ("t", 2))}),
    "rotation-mismatch": shark_with(rot={"B1": ("B1B5", "B1B2", "B3B4")}),
    "rotation-mismatch, repeated": shark_with(rot={"B1": ("B1B5", "B1B2", "B1B2")}),
    "disconnected": shark_with(
        colors={"X": "white", "Y": "black", "Z": "black"},
        edges={"XY": (("n", "X"), ("n", "Y")), "XZ": (("n", "X"), ("n", "Z"))},
        rot={"X": ("XY", "XZ"), "Y": ("XY",), "Z": ("XZ",)}),
    "disconnected, a bare node": shark_with(colors={"X": "white"}, rot={"X": ()}),
    # connectivity is checked before the boundary labels
    "disconnected, and a tip twice": shark_with(
        colors={"X": "white", "Y": "black"}, rot={"X": ("XY",), "Y": ("XY",)},
        edges={"XY": (("n", "X"), ("n", "Y")), "E1": (("n", "B5"), ("t", 2))}),
    "duplicate-boundary-label": shark_with(edges={"E1": (("n", "B5"), ("t", 2))}),
    "bad-boundary-labels, missing": shark_with(n=6),
    "gap-structure": shark_with(rot={"B2": ("E5", "B1B2", "E4")}),
    "bad-label": shark_with(k=3),
    "bad-label, a rotation reversed": edited(
        build_rectangles_model(2, 5), rot={"A1_1": ("c1_2", "r1_1", "d1_1")}),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_models_raise_alike(case):
    model = BROKEN[case]
    with pytest.raises(ModelInvariantError) as got:
        analyze(bare(model))
    with pytest.raises(ModelInvariantError) as want:
        analyze_oracle(bare(model))
    assert (got.value.violation, got.value.detail) == (want.value.violation, want.value.detail)
    assert got.value.violation == case.split(",")[0]


def test_a_huge_n_is_refused_before_anything_is_built_per_label():
    # the kn line bounds n by nothing: the label check comes before any array
    # over the tips or arcs is made
    model = shark_with(n=10 ** 6)
    tracemalloc.start()
    try:
        with pytest.raises(ModelInvariantError) as err:
            analyze(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "bad-boundary-labels: have [1, 2, 3, 4, 5], expected 1..1000000"
    assert peak < 10 ** 6
    with pytest.raises(ModelInvariantError) as want:
        analyze_oracle(model)
    assert str(want.value) == str(err.value)


@pytest.mark.parametrize("name, message", [
    ("floating", "disconnected: missing [('n', 'X'), ('n', 'Y'), ('n', 'Z')]"),
    ("foreign_rot", "rotation-mismatch: node B1: rot ('B1B5', 'B1B2', 'B3B4') "
                    "vs incident ['B1B2', 'B1B3', 'B1B5']"),
])
def test_text_models_raise_alike(name, message):
    text = (MODELS / f"{name}.plabic").read_text()
    with pytest.raises(ModelInvariantError) as got:
        load_model(text)
    with mock.patch.object(plabic, "analyze", analyze_oracle):
        with pytest.raises(ModelInvariantError) as want:
            load_model(text)
    assert str(got.value) == str(want.value) == message


def test_the_disconnected_detail_does_not_depend_on_the_hash_seed():
    # the missing vertices used to be printed as a set, whose order changes
    # with the hash seed: on Python 3.11, seeds 1 and 3 listed them apart
    env = dict(os.environ, PYTHONPATH=str(Path(plabicflow.__file__).parents[1]))
    runs = [subprocess.run(
        [sys.executable, "-m", "plabicflow", "kappa", str(MODELS / "floating.plabic"), "13"],
        capture_output=True, text=True, env=dict(env, PYTHONHASHSEED=seed))
        for seed in ("1", "2", "3")]
    assert [r.returncode for r in runs] == [3, 3, 3]
    assert runs[0].stderr == runs[1].stderr == runs[2].stderr
    assert "disconnected: missing [" in runs[0].stderr
    assert "Traceback" not in runs[0].stderr
