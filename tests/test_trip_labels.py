"""Face labels are read off the trips (Postnikov's target labelling).

The rectangles builder, the star models and the square move state no labels
of their own; these tests pin the derived labels against the labels those
routes used to state: the rectangle formula, the labels written in the shark
file, and labels carried through a square move along the surviving darts.
Model files must agree with the trips, and any line edit of a model file
either loads, saving back to a fixed point, or is refused with a named error,
alike on ``analyze`` and on its keyed oracle.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analyze_oracle import analyze_oracle

from plabicflow import cli, plabic, seeds
from plabicflow.combinat import format_ksubset, ksubsets, parse_ksubset, rectangle_label
from plabicflow.plabic import (
    SHARK_TEXT,
    ModelInvariantError,
    NotPlabicMutable,
    ParseError,
    analyze,
    build_rectangles_model,
    load_model,
    save_model,
    square_move,
)

SWAPPED_SHARK = (SHARK_TEXT.replace(" 14\n", " @\n").replace(" 24\n", " 14\n")
                 .replace(" @\n", " 24\n"))

RECT = [(k, n) for n in range(2, 11) for k in range(1, n)] + [(3, 11)]


def grid_face_edges(k, n, t, s):
    """The edges bounding the (t, s) face of the rectangles grid, as the
    builder names them."""
    w = n - k
    out = set()
    if s <= w - 1:
        out.add(f"r{t}_{s}")
    if s >= 2:
        out.add(f"r{t}_{s - 1}")
    if t <= k - 1:
        out.add(f"c{t}_{s}")
    if t >= 2:
        out.add(f"c{t - 1}_{s}")
    if t <= k - 1 and s <= w - 1:
        out.add(f"d{t}_{s}")
    if t >= 2 and s >= 2:
        out.add(f"d{t - 1}_{s - 1}")
    out |= {(1, 1): {"istar"}, (k, 1): {"scol"}, (1, w): {"srow"}}.get((t, s), set())
    return frozenset(out)


@pytest.mark.parametrize("k,n", RECT)
def test_rectangles_faces_carry_rectangle_labels(k, n):
    an = analyze(build_rectangles_model(k, n))
    want = {rectangle_label(k, n, t, s) for t in range(1, k + 1) for s in range(1, n - k + 1)}
    star = tuple(range(1, k + 1))
    assert set(an.lattice) == want | {star}
    assert an.faces[an.star].label == star
    if 2 <= k <= n - 2:  # a grid, not a single-node star
        label_of = {f.edge_ids: f.label for f in an.faces}
        for t in range(1, k + 1):
            for s in range(1, n - k + 1):
                assert label_of[grid_face_edges(k, n, t, s)] == rectangle_label(k, n, t, s)
        assert label_of[frozenset({"istar", "scol", "srow"})] == star


def test_shark_labels_are_the_file_labels():
    model = load_model(SHARK_TEXT)
    label_of = {f.edge_ids: f.label for f in analyze(model).faces}
    stated = {}
    for line in SHARK_TEXT.splitlines():
        if line.startswith("label "):
            _, spec, lab = line.split()
            stated[frozenset(spec.split(","))] = parse_ksubset(lab, 5)
    assert label_of == stated


def carried_labels_agree(model, moved, face_label):
    """Every face of the moved model that keeps a dart of an unmoved face
    carries that face's label, and the one face keeping none carries the
    exchange partner of the moved label."""
    an, an2 = analyze(model), analyze(moved)
    face_of_dart = {d: f.index for f in an.faces for d in f.darts}
    moved_face = an.label_to_face[face_label]
    seed = seeds.seed_of_model(model)
    partner = seeds.exchange_label(seed.quiver, seed.labels, format_ksubset(face_label, model.n))
    fresh = []
    for f in an2.faces:
        hits = {an.faces[face_of_dart[d]].label for d in f.darts
                if d in face_of_dart and face_of_dart[d] != moved_face}
        if hits:
            assert hits == {f.label}
        else:
            fresh.append(f.label)
    assert fresh == [partner]


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (2, 10), (3, 11)])
def test_square_move_orbits_keep_carried_labels(k, n):
    rng = random.Random(k * 100 + n)
    model = build_rectangles_model(k, n)
    moves = 0
    for _ in range(6):
        faces = seeds.mutable_vertices(seeds.seed_of_model(model).quiver)
        rng.shuffle(faces)
        for j in faces:
            label = seeds.seed_of_model(model).labels[j]
            try:
                moved = square_move(model, label)
            except NotPlabicMutable:
                continue
            carried_labels_agree(model, moved, label)
            model, moves = moved, moves + 1
            break
    assert moves == 6


def test_shark_square_move_keeps_carried_labels():
    model = load_model(SHARK_TEXT)
    carried_labels_agree(model, square_move(model, (2, 4)), (2, 4))


def test_square_move_rejects_a_perturbed_exchange_partner(monkeypatch):
    real = seeds.exchange_label

    def perturbed(q, labels, j):
        partner = real(q, labels, j)
        k, n = len(partner), max(max(I) for I in labels.values())
        return next(I for I in ksubsets(n, k)
                    if I != partner and I not in labels.values())

    monkeypatch.setattr(seeds, "exchange_label", perturbed)
    with pytest.raises(ModelInvariantError) as err:
        square_move(build_rectangles_model(2, 5), (1, 3))
    assert err.value.violation == "exchange-mismatch"


@pytest.mark.parametrize("argv", [
    ["flow", "{}", "25"], ["kappa", "{}", "25"], ["valuation", "{}", "25"],
    ["matchings", "{}"], ["xcheck", "{}"],
])
def test_mislabelled_file_exits_3(tmp_path, capsys, argv):
    path = tmp_path / "swapped.plabic"
    path.write_text(SWAPPED_SHARK)
    rc = cli.main([a.format(path) for a in argv])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "label-mismatch" in captured.err


def test_every_face_needs_a_label_line():
    text = SHARK_TEXT.replace("label E4,E5 15\n", "")
    with pytest.raises(ModelInvariantError) as err:
        load_model(text)
    assert err.value.violation == "unlabeled-face"


# ------------------------------------------------------------- fuzzing


FUZZ_BASES = [SHARK_TEXT, save_model(build_rectangles_model(3, 6))]


@st.composite
def edited_model_text(draw):
    lines = draw(st.sampled_from(FUZZ_BASES)).splitlines()
    tokens = sorted({tok for line in lines for tok in line.split()})
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "copy", "swap", "token", "drop-token"]))
        if op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i].split():
            parts = lines[i].split()
            p = draw(st.integers(0, len(parts) - 1))
            if op == "drop-token":
                del parts[p]
            else:
                parts[p] = draw(st.sampled_from(tokens) | st.from_regex(
                    r"[0-9nb:,A-Za-z]{1,6}", fullmatch=True))
            lines[i] = " ".join(parts)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(edited_model_text())
def test_load_model_edits_load_or_raise_named_errors(text):
    try:
        model = load_model(text)
    except (ParseError, ModelInvariantError):
        return
    saved = save_model(model)
    assert save_model(load_model(saved)) == saved


def load_outcome(text):
    """What loading ``text`` comes to: the model saved back, or the type,
    violation and message of the error that refuses it."""
    try:
        return save_model(load_model(text))
    except (ParseError, ModelInvariantError) as exc:
        return type(exc), getattr(exc, "violation", None), str(exc)


@settings(max_examples=400, deadline=None)
@given(edited_model_text())
def test_load_model_edits_come_out_alike_on_the_keyed_route(text):
    got = load_outcome(text)
    with mock.patch.object(plabic, "analyze", analyze_oracle):
        assert load_outcome(text) == got
