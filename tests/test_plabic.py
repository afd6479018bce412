import hashlib
import re
from collections import Counter

import pytest

from plabicflow import seeds
from plabicflow.combinat import format_ksubset, ksubsets
from plabicflow.plabic import (
    MatchingTable,
    ModelInvariantError,
    NotPlabicMutable,
    SHARK_TEXT,
    ParseError,
    PlabicModel,
    analyze,
    base_matching,
    boundary_value,
    build_rectangles_model,
    enumerate_matchings,
    flow_weight,
    load_model,
    positroid,
    save_model,
    shark_model,
    square_move,
    square_moves,
)
from plabicflow.seeds import mutable_vertices

# the full matching table of the 5-node fixture: boundary value -> edge sets
SHARK_MATCHINGS = [
    ("12", ("B1B2", "B3B4", "E1")),
    ("13", ("B1B2", "E1", "E2", "E3")),
    ("14", ("B1B3", "E1", "E2", "E4")),
    ("15", ("B1B3", "E1", "E2", "E5")),
    ("23", ("B1B2", "B4B5", "E3")),
    ("24", ("B1B3", "B4B5", "E4")),
    ("24", ("B1B5", "B3B4", "E4")),
    ("25", ("B1B3", "B4B5", "E5")),
    ("25", ("B1B5", "B3B4", "E5")),
    ("34", ("B1B5", "E2", "E3", "E4")),
    ("35", ("B1B5", "E2", "E3", "E5")),
]


def test_shark_shape():
    m = shark_model()
    an = analyze(m)
    assert len(m.colors) == 5
    assert len([f for f in an.faces]) == 6
    labels = sorted(format_ksubset(f.label, 5) for f in an.faces)
    assert labels == ["12", "14", "15", "23", "24", "34"]
    assert format_ksubset(an.faces[an.star].label, 5) == "12"


def test_shark_matchings_and_positroid():
    m = shark_model()
    got = sorted(
        (format_ksubset(boundary_value(m, x), 5), tuple(sorted(x)))
        for x in enumerate_matchings(m)
    )
    assert got == SHARK_MATCHINGS
    pos = [format_ksubset(I, 5) for I in positroid(m)]
    assert pos == ["12", "13", "14", "15", "23", "24", "25", "34", "35"]
    assert "45" not in pos


def test_shark_base_matching():
    m = shark_model()
    mstar = base_matching(m)
    assert tuple(sorted(mstar)) == ("B1B5", "E2", "E3", "E5")
    assert format_ksubset(boundary_value(m, mstar), 5) == "35"


def test_shark_flow_weight_figure():
    # the two 25-matchings carry the two terms of the flow polynomial
    m = shark_model()

    def named(match):
        w = flow_weight(m, frozenset(match))
        return {format_ksubset(I, 5): v for I, v in w.items() if v}

    assert named({"B1B5", "B3B4", "E5"}) == {"34": 1}
    assert named({"B1B3", "B4B5", "E5"}) == {"24": 1, "34": 1}


def test_save_load_roundtrip():
    # the builders' models and the square-move orbits of the shark and of
    # rect (2,5)-(3,7) to depth 2: a moved model's star line names the face
    # between stubs n and 1 too
    def orbit(model, depth):
        yield model
        for _, moved in square_moves(model) if depth else ():
            yield from orbit(moved, depth - 1)

    starts = [shark_model()] + [build_rectangles_model(k, n)
                                for k, n in [(2, 5), (2, 6), (3, 6), (3, 7)]]
    models = [build_rectangles_model(2, 4)]
    models += [m for start in starts for m in orbit(start, 2)]
    for model in models:
        text = save_model(model)
        again = load_model(text)
        assert save_model(again) == text
        assert positroid(again) == positroid(model)
        an, an_again = analyze(model), analyze(again)
        assert an_again.faces[an_again.star].label == an.faces[an.star].label


@pytest.mark.parametrize("line", ["star E1", "star E4,E5"])  # no face, face 15
def test_load_refuses_a_star_line_off_the_face_between_n_and_1(line):
    with pytest.raises(ModelInvariantError) as err:
        load_model(SHARK_TEXT.replace("star B1B2,B1B5,E1,E5", line))
    assert str(err.value) == (f"star-mismatch: {line}, "
                              "the face between stubs 5 and 1 is B1B2,B1B5,E1,E5")


def test_load_reads_the_star_ids_in_any_order():
    text = SHARK_TEXT.replace("star B1B2,B1B5,E1,E5", "star E5,E1,B1B5,B1B2")
    assert save_model(load_model(text)) == save_model(shark_model())


def test_load_errors():
    with pytest.raises(ParseError):
        load_model("plabic v1\nkn 2\n")
    with pytest.raises(ParseError):
        load_model("nonsense v9\n")
    # duplicated boundary label
    bad = (
        "plabic v1\nkn 1 2\nnode C black\n"
        "edge E1 n:C b:1\nedge E2 n:C b:1\nrot C E2 E1\n"
        "label E1,E2 1\nstar E1,E2\n"
    )
    with pytest.raises((ParseError, ModelInvariantError)):
        load_model(bad)
    # a second kn line, the same or another: the label lines before it were
    # read under the first n
    lines = SHARK_TEXT.splitlines()
    for repeat in ("kn 2 5", "kn 3 5"):
        text = "\n".join(lines + [repeat]) + "\n"
        with pytest.raises(ParseError, match="duplicate kn line") as err:
            load_model(text)
        assert err.value.line_no == len(lines) + 1


# an id with a ',' in it: label and star lines join edge ids with ','
COMMA_TEXTS = {
    "node": (re.sub(r"\bB1\b", "B,1", SHARK_TEXT), "node B,1 white"),
    "edge": (re.sub(r"\bB1B2\b", "B1,B2", SHARK_TEXT), "edge B1,B2 n:B1 n:B2"),
}


@pytest.mark.parametrize("kind", sorted(COMMA_TEXTS))
def test_load_refuses_a_comma_in_an_id(kind):
    text, line = COMMA_TEXTS[kind]
    with pytest.raises(ParseError, match=f"{kind} id") as err:
        load_model(text)
    assert err.value.line_no == text.splitlines().index(line) + 1


def _renamed(model, node=None, edge=None):
    """The model with one node or one edge renamed."""
    v = lambda x: node[1] if node and x == node[0] else x
    e = lambda x: edge[1] if edge and x == edge[0] else x
    end = lambda t: ("n", v(t[1])) if t[0] == "n" else t
    return PlabicModel(
        model.k, model.n,
        {v(x): c for x, c in model.colors.items()},
        {e(x): (end(a), end(b)) for x, (a, b) in model.edges.items()},
        {v(x): tuple(map(e, r)) for x, r in model.rot.items()},
    )


def test_save_refuses_a_comma_in_an_id():
    node = _renamed(shark_model(), node=("B1", "B,1"))
    edge = _renamed(shark_model(), edge=("B1B2", "B1,B2"))
    # the moved model names its new edges after the nodes: sq_B,1_B5 ...
    moved = square_move(node, (2, 4))
    assert any("," in x for x in moved.edges)
    for model in (node, edge, moved):
        assert positroid(model) == positroid(shark_model())
        with pytest.raises(ModelInvariantError, match="unrepresentable"):
            save_model(model)


def test_invariant_errors():
    # same-color edge
    bad = (
        "plabic v1\nkn 2 4\nnode A black\nnode B black\n"
        "edge E1 n:A b:1\nedge E2 n:A b:2\nedge E3 n:B b:3\nedge E4 n:B b:4\n"
        "edge M n:A n:B\nrot A E1 E2 M\nrot B E3 E4 M\n"
        "label E1,E2 12\nstar E1,E2\n"
    )
    with pytest.raises(ModelInvariantError) as err:
        enumerate_matchings(load_model(bad))
    assert "bipartite" in str(err.value)


def test_rectangles_24():
    m = build_rectangles_model(2, 4)
    an = analyze(m)
    labels = sorted(format_ksubset(f.label, 4) for f in an.faces)
    assert labels == ["12", "13", "14", "23", "34"]
    assert format_ksubset(an.faces[an.star].label, 4) == "12"
    assert positroid(m) == tuple(ksubsets(4, 2))
    assert mutable_vertices(seeds.seed_of_model(m).quiver) == ["13"]


def test_rectangles_labels_formula():
    m = build_rectangles_model(3, 7)
    an = analyze(m)
    labels = {format_ksubset(f.label, 7) for f in an.faces}
    assert "156" in labels  # the (2,3) rectangle
    for k, n in [(2, 5), (3, 6), (4, 9)]:
        an = analyze(build_rectangles_model(k, n))
        labels = {f.label for f in an.faces}
        assert tuple(range(n - k + 1, n + 1)) in labels
        assert len(labels) == k * (n - k) + 1


def test_rectangles_matching_counts():
    assert len(enumerate_matchings(build_rectangles_model(2, 5))) == 14
    assert len(enumerate_matchings(build_rectangles_model(2, 6))) == 25
    assert len(enumerate_matchings(build_rectangles_model(3, 6))) == 42


def test_rectangles_full_positroid():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        assert positroid(build_rectangles_model(k, n)) == tuple(ksubsets(n, k))


def test_square_move_24():
    m = build_rectangles_model(2, 4)
    m2 = square_move(m, (1, 3))
    labels = sorted(format_ksubset(f.label, 4) for f in analyze(m2).faces)
    assert labels == ["12", "14", "23", "24", "34"]
    assert positroid(m2) == positroid(m)
    # moving back gives the original label set
    m3 = square_move(m2, (2, 4))
    labels3 = sorted(format_ksubset(f.label, 4) for f in analyze(m3).faces)
    assert labels3 == ["12", "13", "14", "23", "34"]
    assert positroid(m3) == positroid(m)


def test_square_move_guards():
    m = build_rectangles_model(2, 4)
    with pytest.raises(NotPlabicMutable):
        square_move(m, (1, 2))  # frozen boundary face
    m36 = build_rectangles_model(3, 6)
    with pytest.raises(NotPlabicMutable):
        square_move(m36, (1, 4, 5))  # hexagonal face


def test_square_move_rejects_labels_that_contradict_the_quiver():
    # swapping the labels 14 and 24 contradicts the trips, so the file is
    # refused on load, before any move could read the wrong labels
    text = SHARK_TEXT.replace(" 14\n", " @\n").replace(" 24\n", " 14\n")
    with pytest.raises(ModelInvariantError) as err:
        load_model(text.replace(" @\n", " 24\n"))
    assert err.value.violation == "label-mismatch"


def test_shark_square_move():
    m = shark_model()
    m2 = square_move(m, (2, 4))
    labels = sorted(format_ksubset(f.label, 5) for f in analyze(m2).faces)
    assert labels == ["12", "13", "14", "15", "23", "34"]
    # the move contracts the square's corner pair: one node fewer
    assert len(m2.colors) == len(m.colors) - 1
    assert positroid(m2) == positroid(m)


@pytest.mark.parametrize("mult", [0, 2])
def test_square_move_checks_the_quiver_against_fz_mutate(monkeypatch, mult):
    # a matrix mutation that drops one arrow at j (mult 0), or raises its
    # multiplicity by one (mult 2), is not the moved model's dual quiver
    real = seeds.fz_mutate

    def perturbed(q, j):
        out = real(q, j)
        u, v, m = next(a for a in out.arrows if j in a[:2])
        assert m == 1
        counts = {(a, b): c for a, b, c in out.arrows}
        counts[(u, v)] = mult
        return seeds.make_quiver(out.vertices, out.frozen, out.star, counts)

    monkeypatch.setattr(seeds, "fz_mutate", perturbed)
    with pytest.raises(ModelInvariantError) as err:
        square_move(build_rectangles_model(2, 5), (1, 3))
    assert err.value.violation == "quiver-fz-mismatch"


def test_boundary_size_is_checked_on_both_routes():
    # the shark cuts no 2-subset out of the boundary when no stub is used
    with pytest.raises(ModelInvariantError) as err:
        boundary_value(shark_model(), set())
    assert err.value.violation == "boundary-size"
    with pytest.raises(ModelInvariantError) as err:
        MatchingTable(shark_model(), [0])
    assert err.value.violation == "boundary-size"


# (start model, depth): every model reached by up to ``depth`` successive
# square moves, 171 moves in all
ORBIT_WALKS = (("shark", 3), ("rect:2,5", 3), ("rect:2,6", 3), ("rect:3,6", 3),
               ("rect:3,7", 2), ("rect:4,8", 2))
ORBIT_SHA256 = "982dcb651008e91f22b140309b3f23e42a47ee40da9fba3ba256c4824cf0abc5"


def _corner_cases(model, j):
    """What the square move at face j does at each corner: keep its leg to
    the new corner ("leg"), hand its one other edge, a boundary stub, to
    the new corner ("stub"), or merge into that edge's internal node
    ("merge")."""
    an = analyze(model)
    face = an.faces[an.label_to_face[seeds.seed_of_model(model).labels[j]]]
    sides = {e for (_, e), _ in face.darts}
    for (_, e), d in face.darts:
        c = model.edges[e][1 - d][1]
        others = [g for g in model.rot[c] if g not in sides]
        if len(others) != 1:
            yield "leg"
        elif any(end[0] == "t" for end in model.edges[others[0]]):
            yield "stub"
        else:
            yield "merge"


def test_square_move_orbit_models_are_pinned():
    # the text of every moved model, its path included, is pinned, and the
    # walk reaches every corner case of the move
    digest = hashlib.sha256()
    cases = Counter()

    def walk(model, depth, path):
        for j, moved in square_moves(model) if depth else ():
            cases.update(_corner_cases(model, j))
            digest.update(f"{path}{j}\n{save_model(moved)}".encode())
            walk(moved, depth - 1, f"{path}{j} ")

    for spec, depth in ORBIT_WALKS:
        if spec == "shark":
            start = shark_model()
        else:
            start = build_rectangles_model(*map(int, spec[5:].split(",")))
        walk(start, depth, f"{spec} ")
    assert sum(cases.values()) == 4 * 171
    assert cases == {"leg": 246, "stub": 179, "merge": 259}
    assert digest.hexdigest() == ORBIT_SHA256


def test_degenerate_two_face_disc():
    # n = 2: both faces share the same bounding edges, so the text format
    # cannot name them, but ``analyze`` tells the star apart by its gap
    m = build_rectangles_model(1, 2)
    an = analyze(m)
    assert sorted(format_ksubset(f.label, 2) for f in an.faces) == ["1", "2"]
    assert len(enumerate_matchings(m)) == 2
    assert positroid(m) == ((1,), (2,))
    with pytest.raises(ModelInvariantError) as err:
        save_model(m)
    assert "unrepresentable" in str(err.value)


def test_star_models():
    # k = 1 and k = n-1 are single-node fans
    for k, n in [(1, 4), (3, 4), (1, 5), (4, 5)]:
        m = build_rectangles_model(k, n)
        assert len(m.colors) == 1
        assert positroid(m) == tuple(ksubsets(n, k))
