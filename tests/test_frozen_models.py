"""Models and seeds are immutable, and each per-model quantity is derived
once, through ``Analysis.derive``."""

import dataclasses

import pytest

from plabicflow import charts, cli, cones, plabic, seeds
from plabicflow.plabic import analyze, build_rectangles_model, shark_model


def test_model_fields_cannot_be_rebound():
    model = shark_model()
    for field, value in [("k", 3), ("edges", {}), ("rot", {})]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, field, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        analyze(model).faces[0].label = (1, 2)


def test_an_analysis_refuses_every_edit():
    # the frontier is built first: it copies the boundary orientation, so
    # an edit that went through would be silently ignored from here on
    model = shark_model()
    plabic.matching_masks(model)
    an = analyze(model)
    base = plabic.base_value(model)
    with pytest.raises(AttributeError):
        an.anticlockwise.add(2)
    with pytest.raises(TypeError):
        an.faces[0] = an.faces[1]
    with pytest.raises(TypeError):
        an.arrows[0] = an.arrows[1]
    with pytest.raises(TypeError):
        an.label_to_face[an.lattice[0]] = 1
    with pytest.raises(TypeError):
        an.adjacency.nbrs[0] = ()
    with pytest.raises(TypeError):
        an.adjacency.around[0] = 0
    with pytest.raises(TypeError):
        an.adjacency.edges_at[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        an.adjacency.around = (0,) * len(an.faces)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del an.adjacency.nbrs
    with pytest.raises(dataclasses.FrozenInstanceError):
        an.anticlockwise = frozenset({2})
    assert base == plabic.base_value(model) == (3, 5)


@pytest.mark.parametrize("field", ["colors", "edges", "rot"])
def test_model_maps_are_read_only(field):
    model = shark_model()
    mapping = getattr(model, field)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        del mapping[key]


def test_a_model_keeps_its_own_copy_of_the_maps():
    built = build_rectangles_model(2, 4)
    colors, edges, rot = dict(built.colors), dict(built.edges), dict(built.rot)
    model = plabic.PlabicModel(2, 4, colors, edges, rot)
    text = plabic.save_model(model)
    for mapping in (colors, edges, rot):
        mapping.clear()
    assert plabic.save_model(model) == text
    assert plabic.save_model(plabic.load_model(text)) == text


def test_seed_fields_and_labels_are_read_only():
    s = seeds.seed_of_model(shark_model())
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.quiver = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.labels = {}
    with pytest.raises(TypeError):
        s.labels["24"] = (1, 3)


def test_the_shared_rectangles_seed_cannot_be_corrupted(capsys):
    # rectangles_seed hands every caller the same seed
    with pytest.raises(TypeError):
        seeds.rectangles_seed(2, 4).labels["13"] = (2, 4)
    assert cli.main(["verify", "trop-a", "--kn", "2,4"]) == 0
    assert capsys.readouterr().out.startswith("PASS trop-a")


def test_the_shared_kappa_table_is_read_only():
    table = cones.kappa_table(2, 4)
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = (3, 4)


def test_per_model_quantities_are_derived_once():
    model = build_rectangles_model(3, 6)
    assert seeds.seed_of_model(model) is seeds.seed_of_model(model)
    assert charts.face_lattice(model) is charts.face_lattice(model)
    assert plabic.matching_table(model) is plabic.matching_table(model)
    assert plabic.face_graph(model) is plabic.face_graph(model)
    # two models built alike share nothing
    other = build_rectangles_model(3, 6)
    assert seeds.seed_of_model(other) is not seeds.seed_of_model(model)
    assert seeds.seed_of_model(other) == seeds.seed_of_model(model)


def test_a_failed_build_is_not_kept():
    an = analyze(shark_model())
    builds = []

    def boom():
        builds.append(1)
        raise KeyError("boom")

    for _ in range(2):
        with pytest.raises(KeyError, match="boom"):
            an.derive("probe", boom)
    assert len(builds) == 2
    assert an.derive("probe", lambda: 7) == 7
    assert an.derive("probe", boom) == 7
    assert len(builds) == 2


def test_xcheck_builds_one_quiver_per_model_and_per_fz_mutation(monkeypatch, capsys):
    quivers, fz = [], []
    real_make, real_fz = seeds.make_quiver, seeds.fz_mutate

    def make(*args):
        quivers.append(args[0])
        return real_make(*args)

    def mutate(q, j):
        fz.append(j)
        return real_fz(q, j)

    monkeypatch.setattr(seeds, "make_quiver", make)
    monkeypatch.setattr(seeds, "fz_mutate", mutate)
    rc = cli.main(["xcheck", "rect:3,6", "--mutations", "124,145"])
    assert rc == 0 and capsys.readouterr().out.count("PASS") == 2
    # the model and its two moves, one square move per face name
    assert fz == ["124", "145"]
    assert len(quivers) == 3 + len(fz)
