import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from plabicflow import charts, combinat, seeds
from plabicflow.combinat import format_ksubset, ksubsets
from plabicflow.plabic import (
    ModelInvariantError,
    NotPlabicMutable,
    build_rectangles_model,
    shark_model,
    square_move,
    square_moves,
)
from plabicflow.seeds import (
    Quiver,
    Seed,
    beta_columns,
    exact_sequence_checks,
    exchange_label,
    fz_mutate,
    kappa_vector,
    make_quiver,
    mutable_vertices,
    mutate_labels,
    rectangles_seed,
    seed_mutations,
    seed_of_model,
    trop_a_mutate,
)
from plabicflow.superpot import a_mutate_w, w_rectangles
from test_combinat import cell_set_max_diag

# dual quiver of the (2,4) rectangles model
Q24_ARROWS = (
    ("12", "14", 1), ("12", "23", 1), ("13", "12", 1), ("13", "34", 1),
    ("14", "13", 1), ("23", "13", 1), ("34", "14", 1), ("34", "23", 1),
)

# MaxDiag table of the (2,4) seed: I -> vector over the five labels
KAPPA24 = {
    "12": {"12": 0, "13": 1, "14": 1, "23": 1, "34": 2},
    "13": {"12": 0, "13": 0, "14": 1, "23": 1, "34": 1},
    "14": {"12": 0, "13": 0, "14": 0, "23": 1, "34": 1},
    "23": {"12": 0, "13": 0, "14": 1, "23": 0, "34": 1},
    "24": {"12": 0, "13": 0, "14": 0, "23": 0, "34": 1},
    "34": {"12": 0, "13": 0, "14": 0, "23": 0, "34": 0},
}

# beta of the (2,4) seed as (row, column) -> entry, nonzero entries only
BETA24 = {
    ("12", "12"): 1, ("12", "13"): -1, ("13", "12"): 1, ("13", "14"): -1,
    ("13", "23"): -1, ("13", "34"): 1, ("14", "12"): -1, ("14", "13"): 1,
    ("14", "14"): 1, ("14", "34"): -1, ("23", "12"): -1, ("23", "13"): 1,
    ("23", "23"): 1, ("23", "34"): -1, ("34", "13"): -1, ("34", "34"): 1,
}


def flat(columns) -> dict:
    """A map column -> row -> entry flattened to (row, column) -> entry,
    nonzero entries only."""
    return {(row, col): c for col, colmap in columns.items()
            for row, c in colmap.items() if c}


def flat_beta(s: Seed) -> dict:
    return flat(beta_columns(s))


def flat_wt(s: Seed) -> dict:
    """wt as (row, column) -> entry: the column at u is the kappa vector of
    label(u), read in vertex order."""
    return flat({u: kappa_vector(s, s.labels[u]) for u in s.quiver.vertices})


def test_quiver_of_rect24():
    q = seed_of_model(build_rectangles_model(2, 4)).quiver
    assert q.arrows == Q24_ARROWS
    assert q.star == "12"
    assert sorted(q.frozen) == ["12", "14", "23", "34"]
    assert mutable_vertices(q) == ["13"]


def test_make_quiver_guards():
    with pytest.raises(ModelInvariantError):
        make_quiver(["a"], ["a"], "a", {("a", "a"): 1})  # loop
    with pytest.raises(ModelInvariantError):
        # two-cycle with a mutable endpoint
        make_quiver(["a", "b"], ["a"], "a", {("a", "b"): 1, ("b", "a"): 1})
    # frozen-frozen two-cycles are legitimate (degenerate duals)
    q = make_quiver(["a", "b"], ["a", "b"], "a", {("a", "b"): 1, ("b", "a"): 1})
    assert len(q.arrows) == 2


def test_fz_mutate_24():
    q = seed_of_model(build_rectangles_model(2, 4)).quiver
    q2 = fz_mutate(q, "13")
    # arrows at 13 reverse; composite arrows through 13 cancel against the
    # existing frozen-frozen arrows, which are copied through untouched
    assert q2.arrows == (
        ("12", "13", 1), ("12", "14", 1), ("12", "23", 1), ("13", "14", 1),
        ("13", "23", 1), ("34", "13", 1), ("34", "14", 1), ("34", "23", 1),
    )
    # involution on the tracked entries, the arrows at 13
    q3 = fz_mutate(q2, "13")
    at13 = lambda q: {a for a in q.arrows if "13" in a[:2]}
    assert at13(q3) == at13(q)
    with pytest.raises(NotPlabicMutable):
        fz_mutate(q, "12")


def dense_fz_mutate(q, j):
    """The matrix rule over every vertex pair, which the neighbourhood rule
    of ``fz_mutate`` replaced."""
    b = {}
    for u, v, mult in q.arrows:
        b[(u, v)] = b.get((u, v), 0) + mult
        b[(v, u)] = b.get((v, u), 0) - mult
    counts = {}
    for u in q.vertices:
        for v in q.vertices:
            if u == v or (u in q.frozen and v in q.frozen):
                continue
            buv = b.get((u, v), 0)
            if u == j or v == j:
                nb = -buv
            else:
                buj = b.get((u, j), 0)
                bjv = b.get((j, v), 0)
                sgn = (buj > 0) - (buj < 0)
                nb = buv + sgn * max(buj * bjv, 0)
            if nb > 0:
                counts[(u, v)] = nb
    for u, v, mult in q.arrows:
        if u in q.frozen and v in q.frozen:
            counts[(u, v)] = mult
    return make_quiver(q.vertices, q.frozen, q.star, counts)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8), (4, 9)])
def test_fz_mutate_equals_dense_rule_on_random_walks(k, n):
    # seeded walks of mutations at any mutable vertex, never straight back,
    # leave the plabic seeds; at k = 4 (infinite type) arrows of
    # multiplicity above 1 occur along them
    rng = random.Random(0)
    top = 1
    for _walk in range(4):
        q, last = rectangles_seed(k, n).quiver, None
        for _step in range(25):
            for j in mutable_vertices(q):
                assert fz_mutate(q, j) == dense_fz_mutate(q, j)
            last = rng.choice([j for j in mutable_vertices(q) if j != last])
            q = fz_mutate(q, last)
            top = max([top] + [m for _u, _v, m in q.arrows])
    assert top > 1 or k < 4


def test_mutate_labels_builds_one_quiver(monkeypatch):
    # one Quiver per mutation and no make_quiver over every arrow: the
    # arrows checked are those within j's neighbourhood, renamed at j, and
    # every other arrow is the parent's
    s = rectangles_seed(3, 7)
    built, checked, made = [], [], []
    real_make, real_check, real_quiver = seeds.make_quiver, seeds._checked_arrows, seeds.Quiver
    monkeypatch.setattr(seeds, "make_quiver", lambda *a: built.append(a) or real_make(*a))
    monkeypatch.setattr(seeds, "_checked_arrows",
                        lambda order, frozen, counts: checked.append(dict(counts))
                        or real_check(order, frozen, counts))
    monkeypatch.setattr(seeds, "Quiver", lambda *a: made.append(a) or real_quiver(*a))
    for j, _moved in seed_mutations(s):
        built.clear(), checked.clear(), made.clear()
        moved = seeds.mutate_labels(s, j)
        assert built == [] and len(made) == 1 and len(checked) == 1
        (new,) = set(moved.labels) - set(s.labels)
        ins, outs = seeds.exchange_pairs(s.quiver, j)
        near = {j, *dict(ins), *dict(outs)}
        renamed = {new if v == j else v for v in near}
        assert checked[0] and all({u, v} <= renamed for u, v in checked[0])
        assert ({a for a in s.quiver.arrows if not {a[0], a[1]} <= near}
                == {a for a in moved.quiver.arrows if not {a[0], a[1]} <= renamed})


def test_every_exchange_step_reads_the_arrows_at_j_through_exchange_pairs(monkeypatch):
    # exchange_pairs is the one read of j's arrows: each step at 124 of
    # rect:3,6 asks for (its quiver, 124) in the module that runs it, and
    # for nothing else.  Each seed step runs on a seed made afresh, so that
    # no memo of the quiver's pairs or of the seed's exchange hides a read
    assert not hasattr(seeds, "neighbours")
    real = seeds.exchange_pairs
    asked = []
    binders = [m for name, m in sys.modules.items()
               if name.startswith("plabicflow") and getattr(m, "exchange_pairs", None) is real]
    assert {m.__name__ for m in binders} >= {"plabicflow.seeds", "plabicflow.charts",
                                             "plabicflow.superpot"}
    for m in binders:
        monkeypatch.setattr(m, "exchange_pairs", lambda q, j, m=m: asked.append(
            (m.__name__.rpartition(".")[2], q, j)) or real(q, j))

    def fresh() -> Seed:
        s = rectangles_seed(3, 6)
        q = s.quiver
        return Seed(s.k, s.n, Quiver(q.vertices, q.frozen, q.star, q.arrows), s.labels)

    j = "124"
    model = build_rectangles_model(3, 6)
    moved = square_move(model, (1, 2, 4))  # the move reads the model's seed too
    steps = [
        ("mutate_labels", lambda s: mutate_labels(s, j), {"seeds"}),
        ("fz_mutate", lambda s: fz_mutate(s.quiver, j), {"seeds"}),
        ("a_mutate_w", lambda s: a_mutate_w(s, w_rectangles(3, 6), j), {"seeds", "superpot"}),
        ("XStep", lambda s: charts.XStep(model, j, moved), {"charts"}),
        ("trop_a_mutate", lambda s: trop_a_mutate(s.quiver, j, dict.fromkeys(s.quiver.vertices, 0)),
         {"seeds"}),
        ("trop_a_column", lambda s: seeds.trop_a_column(
            s.quiver, j, dict.fromkeys(s.quiver.vertices, (0,))), {"seeds"}),
    ]
    for name, step, readers in steps:
        s = seed_of_model(model) if name == "XStep" else fresh()
        asked.clear()
        step(s)
        assert {(reader, q is s.quiver, v) for reader, q, v in asked} == {
            (reader, True, j) for reader in readers}, name


def test_seed_and_mutate_labels():
    s = rectangles_seed(2, 4)
    assert s.labels["13"] == (1, 3)
    s2 = mutate_labels(s, "13")
    assert sorted(s2.labels) == ["12", "14", "23", "24", "34"]
    assert s2.labels["24"] == (2, 4)
    # mutating back restores the original label set
    s3 = mutate_labels(s2, "24")
    assert sorted(s3.labels) == sorted(s.labels)
    with pytest.raises(NotPlabicMutable):
        mutate_labels(s, "34")


def test_exchange_label_patterns():
    s = rectangles_seed(2, 5)
    assert exchange_label(s.quiver, s.labels, "13") == (2, 4)
    assert exchange_label(s.quiver, s.labels, "14") == (3, 5)
    # hexagonal vertex of (3,6) has no quadrilateral exchange
    s36 = rectangles_seed(3, 6)
    with pytest.raises(NotPlabicMutable):
        exchange_label(s36.quiver, s36.labels, "145")


def swapped_labels(s: Seed, u: str, v: str) -> Seed:
    """s with the labels of vertices u and v swapped: still k-subsets, so
    the seed is made, but perhaps no longer a seed of a model."""
    labels = dict(s.labels)
    labels[u], labels[v] = labels[v], labels[u]
    return Seed(s.k, s.n, s.quiver, labels)


def test_label_exchange_refuses_a_neighborhood_of_no_exchange():
    # at 13 of rect:2,5 the in-neighbours 14, 23 and out-neighbours 12, 34
    # share S = {} and the quadruple 1234, and 13 exchanges to 24
    s = rectangles_seed(2, 5)
    assert seeds.label_exchange(s, "13")[0] == "24"
    # out-neighbour 34 labelled 45: the outs span 1245, not 1234
    with pytest.raises(NotPlabicMutable) as err:
        mutate_labels(swapped_labels(s, "34", "45"), "13")
    assert str(err.value) == "neighbor labels of 13 do not share a quadruple"
    # 13 labelled 15, which the quadruple 1234 does not contain
    with pytest.raises(NotPlabicMutable) as err:
        mutate_labels(swapped_labels(s, "13", "15"), "13")
    assert str(err.value) == "label of 13 does not match its neighborhood"
    # no swap of labels gives a duplicate: a neighborhood that passes needs
    # all six S + two of its quadruple as labels, two of which cross, and a
    # swap keeps the weakly separated label set.  So the frozen 15, outside
    # the neighborhood, is labelled 24, the partner of 13
    labels = {**s.labels, "15": (2, 4)}
    with pytest.raises(ModelInvariantError) as err:
        mutate_labels(Seed(s.k, s.n, s.quiver, labels), "13")
    assert (err.value.violation, err.value.detail) == ("duplicate-label", "24 already a label")


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 8)])
def test_seed_mutations_skips_refused_vertices(k, n):
    s = rectangles_seed(k, n)
    want = []
    for j in mutable_vertices(s.quiver):
        try:
            want.append((j, mutate_labels(s, j)))
        except NotPlabicMutable:
            continue
    got = list(seed_mutations(s))
    assert [j for j, _ in got] == [j for j, _ in want]
    assert all(a.labels == b.labels and a.quiver == b.quiver
               for (_, a), (_, b) in zip(got, want))
    # (3,6) and (4,8) have hexagonal vertices, refused and skipped; at
    # (4,8) an exchangeable vertex follows them
    assert len(got) < len(mutable_vertices(s.quiver)) or k == 2


# -------------------------------------------------------- weak separation


def mask(J) -> int:
    """The bitmask of J, bit x for each element x: what the weak-separation
    test compares, and the key of J in a MaxDiag row."""
    return sum(1 << x for x in J)


def refuse_pair(monkeypatch, I, J):
    """Make the pair test of ``combinat`` refuse the pair I, J (either
    way round) and answer every other pair as before."""
    real = combinat._separated
    refused = {mask(I), mask(J)}
    monkeypatch.setattr(combinat, "_separated",
                        lambda a, b: {a, b} != refused and real(a, b))


def test_seed_of_model_refuses_crossing_labels(monkeypatch, capsys):
    refuse_pair(monkeypatch, (1, 3), (2, 3))
    model = build_rectangles_model(2, 4)
    for _ in range(2):  # a refused build keeps nothing, so it is refused again
        with pytest.raises(ModelInvariantError) as err:
            seed_of_model(model)
        assert err.value.violation == "labels-not-weakly-separated"
        # the refused pair is named
        assert "13" in err.value.detail and "23" in err.value.detail
    monkeypatch.undo()
    assert sorted(seed_of_model(model).labels) == ["12", "13", "14", "23", "34"]


def unasked(s: Seed) -> Seed:
    """s made again, with no exchange found yet: a seed keeps the exchange
    it finds at a vertex, so only such a seed reads a patched
    ``exchange_label``."""
    return Seed(s.k, s.n, s.quiver, s.labels)


def test_mutate_labels_refuses_a_crossing_exchanged_label(monkeypatch):
    s = rectangles_seed(2, 5)
    # 25 crosses 13 and 14 on the 5-cycle
    monkeypatch.setattr(seeds, "exchange_label", lambda q, labels, j: (2, 5))
    with pytest.raises(ModelInvariantError) as err:
        mutate_labels(unasked(s), "13")
    assert err.value.violation == "labels-not-weakly-separated"
    # 13 itself is exchanged away, so 14 is the first crossing partner
    assert err.value.detail == "after exchanging 13 -> 25, which crosses 14"
    monkeypatch.undo()
    # the real partner 24, with one of its m - 1 pairs refused
    refuse_pair(monkeypatch, (2, 4), (1, 5))
    with pytest.raises(ModelInvariantError) as err:
        mutate_labels(s, "13")
    assert err.value.detail == "after exchanging 13 -> 24, which crosses 15"


def test_a_seed_step_and_its_potential_step_find_the_exchange_once(monkeypatch):
    # every walk of the potential pairs mutate_labels(s, j) with
    # a_mutate_w(s, W, j); the two share the exchange the seed found
    calls = []
    real = seeds.exchange_label
    monkeypatch.setattr(seeds, "exchange_label",
                        lambda q, labels, j: calls.append(j) or real(q, labels, j))
    s, W = unasked(rectangles_seed(4, 8)), w_rectangles(4, 8)
    j = next(j for j, _ in seed_mutations(rectangles_seed(4, 8)))
    child = mutate_labels(s, j)
    a_mutate_w(s, W, j)
    assert calls == [j]
    # the child finds its own, once
    j2 = seeds.label_exchange(s, j)[0]
    mutate_labels(child, j2)
    seeds.label_exchange(child, j2)
    assert calls == [j, j2]
    # a refusal is not kept: each request is refused anew
    hexagon = next(v for v in mutable_vertices(s.quiver) if v not in (j, j2)
                   and sum(m for _u, m in seeds.exchange_pairs(s.quiver, v)[0]) != 2)
    for _ in range(2):
        with pytest.raises(NotPlabicMutable):
            mutate_labels(s, hexagon)
    assert calls == [j, j2, hexagon, hexagon]


def test_one_mutation_tests_the_exchanged_label_only(monkeypatch):
    calls = []
    real = combinat._separated
    monkeypatch.setattr(combinat, "_separated",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    model = build_rectangles_model(6, 12)
    s = seed_of_model(model)
    m = len(s.quiver.vertices)
    assert (m, len(calls)) == (37, 666)  # every pair, once per model
    seed_of_model(model)
    assert len(calls) == 666
    j = next(j for j, _ in seed_mutations(s))
    calls.clear()
    moved = mutate_labels(s, j)
    assert len(calls) == m - 1 == 36
    new = (set(moved.labels.values()) - set(s.labels.values())).pop()
    assert {a for a, _ in calls} == {mask(new)}


def full_pair_check(s: Seed, j: str) -> bool:
    """The check ``mutate_labels`` made before it tested one label: every
    pair of the labels after the exchange at j."""
    _name, label, _vertices = seeds.label_exchange(s, j)
    labels = [lab for v, lab in s.labels.items() if v != j] + [label]
    return combinat.crossing_pair(map(mask, labels)) is None


def passes_separation(s: Seed, j: str) -> bool:
    """Whether ``mutate_labels`` at j gets past its weak-separation check; a
    violation found after it (the corner rule) still means it did."""
    try:
        mutate_labels(s, j)
    except ModelInvariantError as exc:
        return exc.violation != "labels-not-weakly-separated"
    return True


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["shark", (3, 6), (3, 7), (4, 8)]), st.integers(0, 2**32),
       st.integers(0, 5))
def test_one_label_check_equals_the_full_pair_check_on_walks(start, seed, steps):
    # at every exchangeable vertex of every seed of the walk, with its real
    # exchange partner and with a random k-subset in its place, which the
    # full check often refuses
    rng = random.Random(seed)
    s0 = seed_of_model(shark_model()) if start == "shark" else rectangles_seed(*start)
    for s in walked_seeds(s0, rng, steps):
        assert combinat.crossing_pair(s.masks) is None
        for j in mutable_vertices(s.quiver):
            try:
                real = exchange_label(s.quiver, s.labels, j)
            except NotPlabicMutable:
                continue
            for partner in (real, tuple(sorted(rng.sample(range(1, s.n + 1), s.k)))):
                if partner in s.labels.values():  # refused as duplicate-label
                    continue
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(seeds, "exchange_label", lambda q, labels, v: partner)
                    t = unasked(s)
                    want = full_pair_check(t, j)
                    assert want or partner != real
                    assert passes_separation(t, j) is want


def test_kappa_table_24():
    s = rectangles_seed(2, 4)
    got = {
        format_ksubset(I, 4): dict(sorted(kappa_vector(s, I).items()))
        for I in ksubsets(4, 2)
    }
    assert got == KAPPA24


def test_kappa_star_always_zero():
    for k, n in [(2, 5), (3, 6)]:
        s = rectangles_seed(k, n)
        for I in ksubsets(n, k):
            assert kappa_vector(s, I)[s.quiver.star] == 0


def test_kappa_russian_figure():
    s = rectangles_seed(4, 9)
    kv = kappa_vector(s, (1, 4, 5, 7))
    named = {lab: v for lab, v in kv.items()}
    assert named[s.quiver.star] == 0
    assert named["1235"] == 0        # the (1,1) rectangle
    assert named["6789"] == 3        # the (4,5) rectangle
    assert max(named.values()) == 3


def test_kappa_injective_49():
    s = rectangles_seed(4, 9)
    seen = {}
    for I in ksubsets(9, 4):
        key = tuple(sorted(kappa_vector(s, I).items()))
        assert key not in seen
        seen[key] = I
    assert len(seen) == 126


def test_beta_matrix_24():
    s = rectangles_seed(2, 4)
    assert flat_beta(s) == BETA24
    # the columns in vertex order, each holding its nonzero entries only
    cols = beta_columns(s)
    assert list(cols) == list(s.quiver.vertices)
    assert all(all(colmap.values()) for colmap in cols.values())


def test_beta_unbalanced_outside_scope():
    # the shark seed is not reachable from a rectangles seed; its columns
    # do not annihilate the all-ones vector
    s = seed_of_model(shark_model())
    with pytest.raises(ModelInvariantError) as err:
        beta_columns(s)
    assert "beta-unbalanced" in str(err.value)


def test_exact_sequence_identities():
    for k, n in [(1, 2), (2, 4), (2, 5), (2, 6), (3, 6), (4, 9), (5, 10)]:
        assert exact_sequence_checks(rectangles_seed(k, n))


def test_exact_sequence_rejects_swapped_labels():
    # swapping the labels of two mutable vertices keeps the quiver and beta
    # but breaks wt . beta = -1 away from the star
    s = rectangles_seed(3, 6)
    a, b = mutable_vertices(s.quiver)[:2]
    assert (a, b) == ("124", "125")
    labels = dict(s.labels)
    labels[a], labels[b] = labels[b], labels[a]
    swapped = Seed(s.k, s.n, s.quiver, labels)
    assert exact_sequence_checks(s)
    assert not exact_sequence_checks(swapped)


def test_exact_sequence_checks_diagonal_and_off_diagonal():
    # swapping the frozen labels 15 and 34 of (2,5) keeps every diagonal
    # entry of wt . beta at -1 and breaks only an off-diagonal one
    s = rectangles_seed(2, 5)
    labels = dict(s.labels)
    labels["15"], labels["34"] = labels["34"], labels["15"]
    assert not exact_sequence_checks(Seed(s.k, s.n, s.quiver, labels))
    # one label everywhere: wt is 0, so only the diagonal entries fail
    s = rectangles_seed(2, 4)
    same = {v: s.labels[s.quiver.star] for v in s.quiver.vertices}
    assert flat_wt(Seed(s.k, s.n, s.quiver, same)) == {}
    assert not exact_sequence_checks(Seed(s.k, s.n, s.quiver, same))


def test_exact_sequence_after_mutation():
    s = mutate_labels(rectangles_seed(2, 5), "13")
    assert exact_sequence_checks(s)


def test_mutated_quiver_matches_square_moved_model():
    # seed-level mutation reproduces the dual quiver of the square-moved
    # model exactly, frozen-frozen arrows included
    def key(q):
        return (tuple(sorted(q.vertices)), tuple(sorted(q.frozen)), q.star,
                tuple(sorted(q.arrows)))

    for k, n in [(2, 4), (2, 5), (3, 6)]:
        model = build_rectangles_model(k, n)
        s = seed_of_model(model)
        for j, moved in square_moves(model):
            s2 = mutate_labels(s, j)
            smod = seed_of_model(moved)
            assert key(s2.quiver) == key(smod.quiver)
            assert s2.labels == smod.labels
            assert exact_sequence_checks(s2)


def test_wt_matrix_is_kappa_columns():
    # wt's column at u is the kappa column of label(u), read in vertex order
    s = rectangles_seed(2, 4)
    wt = flat_wt(s)
    for u in s.quiver.vertices:
        col = seeds._kappa_column(s, s.labels[u])
        for v, c in zip(s.quiver.vertices, col):
            # the flattened wt stores nonzero entries only
            assert wt.get((v, u), 0) == c == KAPPA24[u][v]


def test_trop_a_mutate_kappa_compat():
    s = rectangles_seed(2, 4)
    s2 = mutate_labels(s, "13")
    for I in ksubsets(4, 2):
        moved = trop_a_mutate(s.quiver, "13", kappa_vector(s, I))
        want = kappa_vector(s2, I)
        want = {"13" if a == "24" else a: b for a, b in want.items()}
        assert moved == want


@given(st.dictionaries(
    st.sampled_from(["12", "13", "14", "23", "34"]),
    st.integers(-8, 8),
))
def test_trop_a_mutate_involution(partial):
    s = rectangles_seed(2, 4)
    v = {x: partial.get(x, 0) for x in s.quiver.vertices}
    assert trop_a_mutate(s.quiver, "13", trop_a_mutate(s.quiver, "13", v)) == v


def test_degenerate_seed():
    s = rectangles_seed(1, 2)
    assert sorted(s.labels) == ["1", "2"]
    assert s.quiver.star == "1"
    assert mutable_vertices(s.quiver) == []
    b = flat_beta(s)
    assert b == {("1", "1"): 1, ("2", "1"): -1,
                 ("1", "2"): -1, ("2", "2"): 1}


# ------------------------------------- the kappa memo and the wt . beta check

# the walks of the property tests below: instances, longest walk
WALK_INSTANCES = [(3, 6), (3, 7), (4, 8), (4, 9)]
WALK_STEPS = 6


def random_walk_seed(k: int, n: int, rng: random.Random, steps: int) -> Seed:
    """The seed after ``steps`` random accepted ``mutate_labels`` moves from
    the rectangles seed; a refused vertex is passed over."""
    s = rectangles_seed(k, n)
    for _ in range(steps):
        vertices = mutable_vertices(s.quiver)
        for j in rng.sample(vertices, len(vertices)):
            try:
                s = mutate_labels(s, j)
            except NotPlabicMutable:
                continue
            break
    return s


walks = st.tuples(st.sampled_from(WALK_INSTANCES), st.integers(0, 2**32),
                  st.integers(0, WALK_STEPS))


@settings(max_examples=30, deadline=None)
@given(walks)
def test_kappa_vector_equals_cell_sets_on_random_walks(walk):
    (k, n), seed, steps = walk
    rng = random.Random(seed)
    s = random_walk_seed(k, n, rng, steps)
    subsets = ksubsets(n, k)
    for I in rng.sample(subsets, 12):
        kv = kappa_vector(s, I)
        assert list(kv) == list(s.quiver.vertices)  # vertex order
        assert kv == {v: cell_set_max_diag(s.labels[v], I, n) for v in kv}
        assert kappa_vector(s, list(I)) == kv  # any sequence, same memo


def test_kappa_vector_bad_subset_raises_every_time_and_is_not_memoised():
    s = rectangles_seed(3, 6)
    kappa_vector(s, (1, 2, 4))  # a memoised row to compare against
    rows = {key: dict(row) for key, row in seeds._KAPPA_ROWS.items()}
    for bad in [(2, 1, 4), (1, 2, 7), (0, 1, 2), (1, 1, 2), (1, 2), (1, 2, 3, 4)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                kappa_vector(s, bad)
    assert {key: dict(row) for key, row in seeds._KAPPA_ROWS.items()} == rows


def test_max_diag_row_rejects_bad_subsets_and_labels(monkeypatch):
    # the rows live in seeds, keyed by (I, n), and hold an entry per mask of
    # a label that a seed asked for, walked from the seed's own masks
    monkeypatch.setattr(seeds, "_KAPPA_ROWS", {})
    s = rectangles_seed(2, 4)
    kappa_vector(s, (1, 3))
    row = seeds._KAPPA_ROWS[((1, 3), 4)]
    assert row == {mask(J): cell_set_max_diag(J, (1, 3), 4) for J in s.vertex_labels}
    assert row[mask((1, 2))] == 0 and row[mask((3, 4))] == 1
    kappa_vector(s, [1, 3])
    assert seeds._KAPPA_ROWS[((1, 3), 4)] is row
    # a bad I raises on every call and leaves no row behind
    for _ in range(2):
        for bad in [(3, 1), (1, 5), (0, 3)]:
            with pytest.raises(ValueError):
                kappa_vector(s, bad)
            assert (bad, 4) not in seeds._KAPPA_ROWS
    # a bad label never reaches a row: the seed that would hold it is refused
    for bad in [(1, 2, 3), (1, 5), (3, 1)]:  # another size, out of range, unsorted
        with pytest.raises(ValueError):
            Seed(s.k, s.n, s.quiver, {**s.labels, "13": bad})
    assert set(row) == set(s.masks)


def test_a_star_label_with_nonzero_kappa_is_refused():
    # the star's label 12 swapped with 34: kappa of 12 at the star is
    # MaxDiag(34, 12) = 2, so both kappa_vector and the wt . beta check,
    # whose column of 34 is that kappa vector, raise bad-label
    s = rectangles_seed(2, 4)
    labels = dict(s.labels)
    labels["12"], labels["34"] = labels["34"], labels["12"]
    swapped = Seed(s.k, s.n, s.quiver, labels)
    assert kappa_vector(swapped, (3, 4))["12"] == 0
    for check in (lambda t: kappa_vector(t, (1, 2)), exact_sequence_checks,
                  dict_product_exact_sequence_checks):
        with pytest.raises(ModelInvariantError) as err:
            check(swapped)
        assert err.value.violation == "bad-label"


def dict_product_exact_sequence_checks(s: Seed) -> bool:
    """The exact-sequence check as a product of sparse (row, column) maps,
    the reference route for ``exact_sequence_checks``."""
    q = s.quiver
    beta = flat_beta(s)
    colsum = {}
    for (_row, col), c in beta.items():
        colsum[col] = colsum.get(col, 0) + c
    if any(c != 0 for c in colsum.values()):
        return False
    beta_rows = {}
    for (w, v), c in beta.items():
        beta_rows.setdefault(w, []).append((v, c))
    prod = {}
    for (i, w), a in flat_wt(s).items():
        for v, c in beta_rows.get(w, ()):
            prod[(i, v)] = prod.get((i, v), 0) + a * c
    if any(prod.get((v, v), 0) != -1 for v in q.vertices if v != q.star):
        return False
    return all(
        c == 0 for (i, v), c in prod.items()
        if i != v and q.star not in (i, v)
    )


def exact_sequence_outcome(check, s: Seed):
    """True, False, or the name of the invariant the check raised on."""
    try:
        return check(s)
    except ModelInvariantError as exc:
        return exc.violation


@settings(max_examples=30, deadline=None)
@given(walks)
def test_exact_sequence_checks_equal_dict_product_on_random_walks(walk):
    (k, n), seed, steps = walk
    rng = random.Random(seed)
    s = random_walk_seed(k, n, rng, steps)
    assert exact_sequence_checks(s) is True
    assert dict_product_exact_sequence_checks(s) is True
    # two labels swapped: the same quiver, so beta still balances
    a, b = rng.sample(list(s.quiver.vertices), 2)
    labels = dict(s.labels)
    labels[a], labels[b] = labels[b], labels[a]
    swapped = Seed(k, n, s.quiver, labels)
    got = exact_sequence_outcome(exact_sequence_checks, swapped)
    assert got == exact_sequence_outcome(dict_product_exact_sequence_checks, swapped)
    assert got in (False, "bad-label")
    # one arrow dropped: an arrow's ends lose their balance
    arrows = list(s.quiver.arrows)
    del arrows[rng.randrange(len(arrows))]
    q = s.quiver
    dropped = Seed(k, n, Quiver(q.vertices, q.frozen, q.star, tuple(arrows)), s.labels)
    got = exact_sequence_outcome(exact_sequence_checks, dropped)
    assert got == exact_sequence_outcome(dict_product_exact_sequence_checks, dropped)
    assert got in (False, "beta-unbalanced")


def test_exact_sequence_column_sums_see_the_row_wt_cannot():
    # kappa of the full-rectangle label 45 is the zero vector, so wt . beta
    # cannot see row 45 of beta.  After the mutation at 14 the frozen arrow
    # 15 -> 45 puts -1 in column 15 of that row alone.  Moving it to
    # 23 -> 45 keeps every row sum and wt . beta = -id away from the star;
    # only the column sums (+1 at 15, -1 at 23) reject the seed.
    s = mutate_labels(rectangles_seed(2, 5), "14")
    assert exact_sequence_checks(s)
    assert not any(kappa_vector(s, (4, 5)).values())
    q = s.quiver
    counts = {(u, v): m for u, v, m in q.arrows}
    assert counts.pop(("15", "45")) == 1 and ("23", "45") not in counts
    counts["23", "45"] = 1
    moved = Seed(s.k, s.n, make_quiver(q.vertices, q.frozen, q.star, counts), s.labels)
    beta = flat_beta(moved)  # the rows still balance
    colsum = {}
    for (_row, col), c in beta.items():
        colsum[col] = colsum.get(col, 0) + c
    assert {col: c for col, c in colsum.items() if c} == {"15": 1, "23": -1}
    wt = flat_wt(moved)
    for v in q.vertices:
        if v == q.star:
            continue
        for i in q.vertices:
            entry = sum(wt.get((i, w), 0) * beta.get((w, v), 0) for w in q.vertices)
            assert entry == (-1 if i == v else 0)
    assert not exact_sequence_checks(moved)
    assert not dict_product_exact_sequence_checks(moved)


# ------------------------- the mask-keyed kappa route against its tuple route


class TupleRow(dict):
    """The tuple-keyed MaxDiag row: J -> max_diag(J, I, n), filled on first
    request of each J."""

    def __init__(self, I, n):
        super().__init__()
        self.I, self.n = I, n

    def __missing__(self, J):
        value = self[J] = combinat.max_diag(J, self.I, self.n)
        return value


TUPLE_ROWS: dict = {}


def tuple_kappa_column(s: Seed, I) -> tuple:
    """The kappa column read label by label off a row keyed by the label
    tuples: the reference route for ``seeds._kappa_column``."""
    I = tuple(I)
    if len(I) != s.k:
        raise ValueError(f"size mismatch: {I} is not a {s.k}-subset")
    row = TUPLE_ROWS.get((I, s.n))
    if row is None:
        combinat.check_ksubset(I, s.n)
        row = TUPLE_ROWS[(I, s.n)] = TupleRow(I, s.n)
    col = tuple(map(row.__getitem__, s.vertex_labels))
    if row[s.labels[s.quiver.star]]:
        raise ModelInvariantError(
            "bad-label", f"star label {s.labels[s.quiver.star]} has nonzero kappa"
        )
    return col


def tuple_wt_matrix(s: Seed) -> dict:
    out = {}
    for u in s.quiver.vertices:
        for v, c in zip(s.quiver.vertices, tuple_kappa_column(s, s.labels[u])):
            if c:
                out[(v, u)] = c
    return out


def tuple_exact_sequence_checks(s: Seed) -> bool:
    """``exact_sequence_checks`` over ``tuple_kappa_column``, on dense
    columns: the reference route for the packed columns."""
    return tuple_exact_sequence_witness(s) is None


def tuple_exact_sequence_witness(s: Seed) -> str | None:
    """``seeds._exact_sequence_witness`` with column v of wt . beta built as
    a dense list over all m vertices, one list comprehension per entry of
    beta."""
    q = s.quiver
    cols = seeds.beta_columns(s)
    for v, colmap in cols.items():
        if total := sum(colmap.values()):
            return f"beta column {v} sums to {total}, not 0"
    wt = {v: tuple_kappa_column(s, J) for v, J in zip(q.vertices, s.vertex_labels)}
    m = len(q.vertices)
    for i, v in enumerate(q.vertices):
        if v == q.star:
            continue
        col = [0] * m  # column v of wt . beta, plus e_v
        col[i] = 1
        for w, c in cols[v].items():
            col = [a + c * x for a, x in zip(col, wt[w])]
        for r, a in enumerate(col):
            if a:
                want = -1 if r == i else 0
                return (f"wt.beta column {v}, row {q.vertices[r]} is "
                        f"{a + want}, not {want}")
    return None


def genexpr_trop_a_mutate(q: Quiver, j: str, v: dict) -> dict:
    """``trop_a_mutate`` with generator sums: its reference route."""
    ins, outs = seeds.exchange_pairs(q, j)
    s_in = sum(mult * v[u] for u, mult in ins)
    s_out = sum(mult * v[w] for w, mult in outs)
    out = dict(v)
    out[j] = min(s_in, s_out) - v[j]
    return out


def outcome(f, *args):
    """What f returns, or the violation name or type of what it raises."""
    try:
        return f(*args)
    except ModelInvariantError as exc:
        return exc.violation
    except ValueError as exc:
        return ("ValueError", str(exc))


def walked_seeds(start: Seed, rng: random.Random, steps: int) -> list[Seed]:
    """The seeds of a seeded walk of up to ``steps`` accepted mutations from
    ``start``; a vertex that mutation refuses is passed over."""
    out = [start]
    for _ in range(steps):
        s = out[-1]
        vertices = mutable_vertices(s.quiver)
        for j in rng.sample(vertices, len(vertices)):
            try:
                out.append(mutate_labels(s, j))
            except (NotPlabicMutable, ModelInvariantError):
                continue
            break
    return out


def assert_kappa_reader(s: Seed) -> None:
    """The seed's kappa reader is over its masks: the getter reads them in
    vertex order, the star mask is the star's, and the masks a row is
    filled with first are none for a seed made from its labels and the new
    label's alone for a mutated seed."""
    get, star, new = s._kappa
    assert get({m: i for i, m in enumerate(s.masks)}) == tuple(range(len(s.masks)))
    assert star == s.masks[s.quiver.vertices.index(s.quiver.star)]
    assert len(new) <= 1 and set(new) <= set(s.masks)


MASK_WALK_STARTS = [(2, 5), (3, 6), (3, 7), (4, 8), (4, 9), (3, 10), "shark"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MASK_WALK_STARTS), st.integers(0, 2**32), st.integers(0, 5))
def test_mask_kappa_route_equals_tuple_route_on_walks(start, seed, steps):
    rng = random.Random(seed)
    if start == "shark":
        s0, n = seed_of_model(shark_model()), 5
    else:
        s0, n = rectangles_seed(*start), start[1]
    subsets = ksubsets(n, s0.k)
    walk = walked_seeds(s0, rng, steps)
    for s in walk:
        assert_kappa_reader(s)  # made with the seed, before any kappa request
    for s in walk:
        some = subsets if n < 9 else rng.sample(subsets, 20)
        for I in some:
            kv = kappa_vector(s, I)
            assert list(kv) == list(s.quiver.vertices)
            assert tuple(kv.values()) == tuple_kappa_column(s, I)
        assert flat_wt(s) == tuple_wt_matrix(s)
        assert (outcome(exact_sequence_checks, s)
                == outcome(tuple_exact_sequence_checks, s))
        # two labels swapped, perhaps the star's, over the vertices in
        # reverse order, so that the star is not the first: another getter,
        # and bad-label wherever the tuple route raises it
        a, b = rng.sample(list(s.quiver.vertices), 2)
        labels = dict(s.labels)
        labels[a], labels[b] = labels[b], labels[a]
        q = s.quiver
        reversed_q = make_quiver(q.vertices[::-1], q.frozen, q.star,
                                 {(u, v): m for u, v, m in q.arrows})
        swapped = Seed(s.k, s.n, reversed_q, labels)
        for I in some:
            got = outcome(kappa_vector, swapped, I)
            want = outcome(tuple_kappa_column, swapped, I)
            assert (tuple(got.values()) if isinstance(got, dict) else got) == want
        assert outcome(flat_wt, swapped) == outcome(tuple_wt_matrix, swapped)
        assert (outcome(exact_sequence_checks, swapped)
                == outcome(tuple_exact_sequence_checks, swapped))


def test_a_bad_label_raises_like_the_tuple_route():
    # (3, 1) has the mask of 13, which the row of 12 holds once a valid seed
    # has asked for it; the seed must still refuse it, every time, before
    # any kappa is read.  A label of another size than k, such as (1, 2, 3),
    # never reaches weak separation or a MaxDiag row.  Every label the seed
    # refuses is one the tuple route (a row keyed by label tuples) refuses
    s = rectangles_seed(2, 4)
    kappa_vector(s, (1, 2))
    rows = {key: dict(row) for key, row in seeds._KAPPA_ROWS.items()}
    bads = [(3, 1), (1, 1), (0, 3), (1, 5), (1, 2, 3), (3, 1, 2), (0, 3, 4), (1,)]
    cases = [({"13": bad}, "13", bad) for bad in bads]
    # two bad labels: the first in vertex order is the one named
    cases += [({"13": (1, 5), "14": (3, 1)}, "13", (1, 5)),
              ({"14": (1, 2, 3), "13": (3, 1)}, "13", (3, 1)),
              ({"34": (3, 1, 2), "23": (0, 3)}, "23", (0, 3))]
    for case, vertex, bad in cases:
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                Seed(s.k, s.n, s.quiver, {**s.labels, **case})
            assert str(err.value) == (f"label {bad} of vertex {vertex} is not a "
                                      "strictly increasing 2-subset of 1..4")
    assert {key: dict(row) for key, row in seeds._KAPPA_ROWS.items()} == rows
    for bad in bads:
        for I in [(1, 2), (2, 4)]:
            with pytest.raises(ValueError):
                TupleRow(I, s.n)[bad]


def test_labels_are_masked_once_where_the_seed_is_made(monkeypatch):
    # the masks are the labels' bitmasks in vertex order; the kappa reader
    # is made from them with the seed, and mutation checks and masks the
    # exchanged label alone, where the m - 1 other labels' masks are the
    # parent's.  The exchange itself reads the masks of j's label and its
    # four neighbours'
    checked = []
    real_check = seeds._label_mask
    monkeypatch.setattr(seeds, "_label_mask",
                        lambda J, k, n: checked.append(J) or real_check(J, k, n))
    calls = []
    real = combinat._mask
    counted = lambda J: calls.append(J) or real(J)
    monkeypatch.setattr(combinat, "_mask", counted)
    monkeypatch.setattr(seeds, "_mask", counted)
    s = rectangles_seed(4, 8)
    assert s.masks == tuple(map(mask, s.vertex_labels))
    for _j, moved in seed_mutations(s):
        assert moved.masks == tuple(map(mask, moved.vertex_labels))
    for j in mutable_vertices(s.quiver)[:3]:
        t = unasked(s)
        calls.clear(), checked.clear()
        moved = mutate_labels(t, j)
        new = moved.labels[next(iter(set(moved.labels) - set(s.labels)))]
        assert checked == [new]
        ins, outs = map(dict, seeds.exchange_pairs(s.quiver, j))
        assert sorted(calls) == sorted(s.labels[v] for v in (j, *ins, *outs))
        i = s.quiver.vertices.index(j)
        assert set(moved.masks) == set(s.masks[:i] + s.masks[i + 1:]) | {mask(new)}
        # the seed keeps the exchange it found: mutating again masks nothing
        calls.clear(), checked.clear()
        mutate_labels(t, j)
        assert calls == checked == []
    # making a seed checks and masks each label once, makes its kappa
    # reader and calls no _mask
    calls.clear(), checked.clear()
    fresh = Seed(s.k, s.n, s.quiver, s.labels)
    assert calls == [] and checked == list(s.vertex_labels)
    assert fresh.masks == s.masks
    assert_kappa_reader(fresh)
    # a row is filled from the seed's masks: the one mask made on a miss is
    # I's, and the masks walked against it are the seed's
    calls.clear()
    walked = []
    real_walk = seeds._max_diag_masks
    monkeypatch.setattr(seeds, "_max_diag_masks",
                        lambda j, i: walked.append(j) or real_walk(j, i))
    monkeypatch.setattr(seeds, "_KAPPA_ROWS", {})
    kappa_vector(Seed(s.k, s.n, s.quiver, s.labels), (2, 3, 5, 8))
    assert calls == [(2, 3, 5, 8)] and sorted(walked) == sorted(s.masks)


def test_a_one_vertex_seed_has_a_kappa_column():
    s = Seed(1, 2, make_quiver(["1"], ["1"], "1", {}), {"1": (1,)})
    assert kappa_vector(s, (1,)) == {"1": 0}
    assert kappa_vector(s, (2,)) == {"1": 0}


# a quiver with an arrow of multiplicity 2 into b and a frozen-frozen arrow
MULTI_QUIVER = make_quiver(
    ["a", "b", "c", "d", "e"], ["a", "e"], "a",
    {("a", "b"): 2, ("b", "c"): 1, ("d", "b"): 1, ("b", "e"): 3,
     ("c", "d"): 2, ("e", "a"): 1, ("d", "a"): 1},
)


@given(st.lists(st.integers(-50, 50), min_size=5, max_size=5),
       st.sampled_from(["b", "c", "d"]), st.permutations(range(5)))
def test_trop_a_mutate_equals_generator_sums(values, j, order):
    q = MULTI_QUIVER
    v = {q.vertices[i]: values[i] for i in order}
    before = dict(v)
    got = trop_a_mutate(q, j, v)
    want = genexpr_trop_a_mutate(q, j, v)
    assert got == want and list(got) == list(want) == list(v)
    assert got is not v and v == before


# (quiver, j, the quiver mutated at j with j renamed j2, j2) for every
# one-step seed of rect (2,5) to (4,8), and the mutable vertices of a quiver
# with multiplicities, which no seed mutation takes
TROP_A_CASES = [
    (s.quiver, j, moved.quiver, name)
    for k, n in ((2, 5), (3, 6), (3, 7), (4, 8))
    for s in [rectangles_seed(k, n)]
    for j, moved in seed_mutations(s)
    for (name,) in [set(moved.labels) - set(s.labels)]
] + [(MULTI_QUIVER, j, None, None) for j in ("b", "c", "d")]


@settings(deadline=None)
@given(st.data())
def test_column_trop_a_equals_trop_a_mutate_and_the_plain_read(data):
    # a table of random vectors, held as dicts and as columns: the column
    # form carries column j to trop_a_mutate's entry j, which equals the
    # generator sums over the exchange pairs, and leaves the rest alone;
    # on a seed step, both forms mutated back at j2 give the table back
    q, j, q2, j2 = data.draw(st.sampled_from(TROP_A_CASES))
    m = len(q.vertices)
    rows = data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=m, max_size=m),
                              min_size=1, max_size=5))
    table = [dict(zip(q.vertices, row)) for row in rows]
    columns = {v: tuple(row[i] for row in rows) for i, v in enumerate(q.vertices)}
    carried = seeds.trop_a_column(q, j, columns)
    assert carried == [trop_a_mutate(q, j, v)[j] for v in table]
    for v, x in zip(table, carried):
        assert trop_a_mutate(q, j, v) == genexpr_trop_a_mutate(q, j, v) == {**v, j: x}
        if q2 is not None:
            moved = {j2 if u == j else u: c for u, c in trop_a_mutate(q, j, v).items()}
            back = trop_a_mutate(q2, j2, moved)
            assert {j if u == j2 else u: c for u, c in back.items()} == v
    if q2 is not None:
        columns2 = {j2 if u == j else u: col for u, col in columns.items()}
        columns2[j2] = carried
        assert seeds.trop_a_column(q2, j2, columns2) == list(columns[j])


def test_exact_sequence_checks_with_double_arrows_equal_tuple_route():
    # doubling the arrows of an oriented 3-cycle of mutable vertices keeps
    # every row and column of beta balanced and puts entries -2 and 2 in it
    s = rectangles_seed(3, 6)
    q = s.quiver
    counts = {(u, v): m for u, v, m in q.arrows}
    a, b, c = next((a, b, c) for a, b in counts for c in q.vertices
                   if (b, c) in counts and (c, a) in counts
                   and not {a, b, c} & q.frozen)
    for pair in [(a, b), (b, c), (c, a)]:
        counts[pair] = 2
    doubled = Seed(s.k, s.n, make_quiver(q.vertices, q.frozen, q.star, counts), s.labels)
    assert {abs(e) for e in flat_beta(doubled).values()} >= {2}
    assert (outcome(exact_sequence_checks, doubled)
            == outcome(tuple_exact_sequence_checks, doubled) is False)


# ------------------------------------ packed wt . beta columns at the width bound


def with_arrows_added(s: Seed, extra: dict) -> Seed:
    """s with the net arrow count u -> v raised by c for each (u, v): c of
    ``extra`` (lowered, for c < 0), on pairs with a mutable end: beta gains
    c at row u of column v and -c at row v of column u."""
    q = s.quiver
    counts = {(u, v): m for u, v, m in q.arrows}
    for (u, v), c in extra.items():
        assert not {u, v} <= q.frozen
        c += counts.pop((u, v), 0) - counts.pop((v, u), 0)
        if c:
            counts[(u, v) if c > 0 else (v, u)] = abs(c)
    return Seed(s.k, s.n, make_quiver(q.vertices, q.frozen, q.star, counts), s.labels)


def field_bound(s: Seed) -> int:
    """1 + reach * top: the bound on a field of a packed column of wt . beta
    plus e_v, from the largest kappa entry and the largest sum of |beta| of
    a column."""
    cols = beta_columns(s)
    top = max(max(kappa_vector(s, J).values()) for J in s.vertex_labels)
    return 1 + top * max(sum(map(abs, colmap.values())) for colmap in cols.values())


def dense_residual(s: Seed) -> dict:
    """wt . beta plus the identity, as column -> row -> entry, nonzero
    entries only, from the flat matrices."""
    wt, beta = flat_wt(s), flat_beta(s)
    out = {}
    for v in s.quiver.vertices:
        col = {i: sum(wt.get((i, w), 0) * beta.get((w, v), 0) for w in s.quiver.vertices)
              + (i == v) for i in s.quiver.vertices}
        out[v] = {i: a for i, a in col.items() if a}
    return out


def test_exact_sequence_checks_see_what_8_bit_fields_alias():
    # x and y sum to 0, and so do their images under wt packed in 8-bit
    # fields (vertex i at bit 8i): wt.x is 256 at rows 13 and 34 and -1 at
    # rows 14 and 45.  Adding x y^T - y x^T to beta keeps every row and
    # column sum 0 and puts in every column of wt.beta + id a value that
    # 8-bit fields pack to 0; column 15 of wt.beta is 256 at row 13 and -1
    # at row 14, and column 13 needs 32-bit fields
    s = rectangles_seed(2, 6)
    x = {"12": 256, "13": -257, "14": 1}
    y = {"12": 256, "13": -1, "14": -256, "15": 1}
    support = ["12", "13", "14", "15"]
    extra = {(u, v): x.get(u, 0) * y.get(v, 0) - y.get(u, 0) * x.get(v, 0)
             for i, u in enumerate(support) for v in support[i + 1:]}
    broken = with_arrows_added(s, extra)
    assert max(m for _u, _v, m in broken.quiver.arrows) == 65792
    cols = beta_columns(broken)
    assert not any(sum(colmap.values()) for colmap in cols.values())
    residual = dense_residual(broken)
    assert residual["15"] == {"13": 256, "14": -1, "34": 256, "45": -1}
    order = {v: i for i, v in enumerate(broken.quiver.vertices)}
    for v, col in residual.items():
        if v != broken.quiver.star:
            assert sum(a << (8 * order[i]) for i, a in col.items()) == 0
    assert 2**15 <= field_bound(broken) < 2**31
    assert exact_sequence_checks(broken) is False
    assert tuple_exact_sequence_checks(broken) is False
    assert dict_product_exact_sequence_checks(broken) is False
    witness = "wt.beta column 13, row 13 is 65535, not -1"
    assert seeds._exact_sequence_witness(broken) == witness
    assert tuple_exact_sequence_witness(broken) == witness


def test_the_16_bit_shape_of_rect_22_44_equals_the_dense_route():
    # kappa entries up to 22 and columns of beta with |entries| summing to 6
    # take 16-bit fields; two labels swapped fail at a named entry
    s = rectangles_seed(22, 44)
    assert 2**7 <= field_bound(s) < 2**15
    assert exact_sequence_checks(s) is tuple_exact_sequence_checks(s) is True
    a, b = mutable_vertices(s.quiver)[10:12]
    labels = dict(s.labels)
    labels[a], labels[b] = labels[b], labels[a]
    swapped = Seed(s.k, s.n, s.quiver, labels)
    witness = seeds._exact_sequence_witness(swapped)
    assert witness is not None
    assert witness == tuple_exact_sequence_witness(swapped)


# multiplicities about each field width's bound, up to fields wider than a
# struct code (8 bytes)
MULTIPLICITIES = [1, 2, 42, 63, 64, 127, 128, 255, 256, 257, 2**14, 2**15 - 1,
                  2**15, 2**16 + 1, 2**30, 2**31, 2**32 + 1, 2**62, 2**63, 2**64 + 3,
                  2**100]


@settings(max_examples=60, deadline=None)
@given(walks, st.sampled_from(["none", "cycle", "swap", "drop"]),
       st.sampled_from(MULTIPLICITIES))
def test_packed_columns_equal_both_dense_routes_on_heavy_arrows(walk, change, mult):
    # a walk seed, perhaps with a directed 3-cycle of multiplicity mult added
    # through vertices with at most one frozen (every row and column of beta
    # still sums to 0), two labels swapped as well (False or bad-label), or
    # an arrow dropped as well (False or beta-unbalanced)
    (k, n), seed, steps = walk
    rng = random.Random(seed)
    s = random_walk_seed(k, n, rng, steps)
    q = s.quiver
    if change != "none":
        mutable = mutable_vertices(q)
        a, b = rng.sample(mutable, 2)
        c = rng.choice([v for v in q.vertices if v not in (a, b)])
        s = with_arrows_added(s, {(a, b): mult, (b, c): mult, (c, a): mult})
    if change == "swap":
        u, v = rng.sample(list(q.vertices), 2)
        labels = dict(s.labels)
        labels[u], labels[v] = labels[v], labels[u]
        s = Seed(k, n, s.quiver, labels)
    elif change == "drop":
        arrows = list(s.quiver.arrows)
        del arrows[rng.randrange(len(arrows))]
        s = Seed(k, n, Quiver(q.vertices, q.frozen, q.star, tuple(arrows)), s.labels)
    got = outcome(exact_sequence_checks, s)
    assert got == outcome(tuple_exact_sequence_checks, s)
    assert got == outcome(dict_product_exact_sequence_checks, s)
    assert got is (change == "none") or got in ("bad-label", "beta-unbalanced")
    assert (outcome(seeds._exact_sequence_witness, s)
            == outcome(tuple_exact_sequence_witness, s))
