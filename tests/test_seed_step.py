"""A mutated seed built from its parent, and the exact-sequence check in one
pass, each against the route it replaced (``seed_step_oracle``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from plabicflow import combinat, seeds
from plabicflow.combinat import ksubsets, max_diag
from plabicflow.plabic import (
    ModelInvariantError,
    NotPlabicMutable,
    shark_model,
)
from plabicflow.seeds import (
    Quiver,
    Seed,
    kappa_vector,
    mutable_vertices,
    mutate_labels,
    rectangles_seed,
    seed_of_model,
)
from seed_step_oracle import (
    arrow_beta,
    dict_exact_sequence_witness,
    oracle_label_exchange,
    oracle_mutate_labels,
    set_exchange_label,
)
from test_seeds import unasked

# walks start at rect (2,5) to (4,8), the shark, and the k = 1 star of rect
# (1,5), whose vertices are all frozen
STARTS = [(2, 5), (3, 6), (3, 7), (4, 8), "shark", (1, 5)]


def start_seed(start) -> Seed:
    return seed_of_model(shark_model()) if start == "shark" else rectangles_seed(*start)


def outcome(f, *args):
    """What f returns, or the kind and text of what it raises."""
    try:
        return f(*args)
    except ModelInvariantError as exc:
        return ("invariant", exc.violation, exc.detail)
    except (NotPlabicMutable, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def kappa_columns(s: Seed, subsets) -> list:
    """The κ columns of ``subsets`` read through the seed, and each column
    from MaxDiag pair by pair, in vertex order."""
    return [(tuple(kappa_vector(s, I).values()),
             tuple(max_diag(J, I, s.n) for J in s.vertex_labels)) for I in subsets]


def assert_same_seed(got: Seed, want: Seed) -> None:
    assert got.quiver.vertices == want.quiver.vertices
    assert got.quiver.arrows == want.quiver.arrows
    assert got.quiver.frozen == want.quiver.frozen
    assert got.quiver.star == want.quiver.star
    assert got.quiver.lattice == want.quiver.lattice
    assert got.labels == want.labels and list(got.labels) == list(want.labels)
    assert got.masks == want.masks
    assert got.vertex_labels == want.vertex_labels
    assert got == want


def walk(start, rng: random.Random, steps: int):
    """The seeds of a seeded walk of up to ``steps`` accepted mutations,
    each with the mutable vertices tried at it in a shuffled order."""
    s = start_seed(start)
    for _ in range(steps + 1):
        vertices = mutable_vertices(s.quiver)
        rng.shuffle(vertices)
        yield s, vertices
        for j in vertices:
            try:
                s = mutate_labels(s, j)
            except (NotPlabicMutable, ModelInvariantError):
                continue
            break
        else:
            return


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STARTS), st.integers(0, 2**32), st.integers(0, 6))
def test_child_route_equals_the_whole_child_on_walks(start, seed, steps):
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seeds, "_KAPPA_ROWS", {})
        for s, vertices in walk(start, rng, steps):
            subsets = ksubsets(s.n, s.k)
            some = subsets if len(subsets) <= 40 else rng.sample(subsets, 40)
            kappa_columns(s, some)  # the parent reads its rows first
            for j in vertices:
                got, want = outcome(mutate_labels, s, j), outcome(oracle_mutate_labels, s, j)
                assert outcome(seeds.exchange_label, s.quiver, s.labels, j) == outcome(
                    set_exchange_label, s.quiver, s.labels, j)
                if isinstance(want, tuple):
                    assert got == want
                    continue
                assert_same_seed(got, want)
                name, label, vertices2 = seeds.label_exchange(s, j)
                want_name, want_labels, want_vertices = oracle_label_exchange(s, j)
                assert (name, vertices2) == (want_name, want_vertices)
                assert label == want_labels[name]
                for read, by_pairs in kappa_columns(got, some):
                    assert read == by_pairs
                assert kappa_columns(got, some) == kappa_columns(want, some)


def corner(s: Seed, j: str):
    """A corner arrow v -> u of j: u -> j -> v with u and v frozen."""
    ins, outs = seeds.neighbours(s.quiver, j)
    return next(((v, u) for u in ins for v in outs
                 if u in s.quiver.frozen and v in s.quiver.frozen), None)


@pytest.mark.parametrize("kn", [(2, 5), (3, 6), (3, 7), (4, 8)])
def test_child_route_and_whole_child_fail_alike(kn, monkeypatch):
    s = rectangles_seed(*kn)
    q = s.quiver
    faults = 0
    for j in mutable_vertices(q):
        if isinstance(outcome(mutate_labels, s, j), tuple):
            continue
        # a corner arrow removed from the parent
        if pair := corner(s, j):
            arrows = tuple(a for a in q.arrows if a[:2] != pair)
            cut = Seed(s.k, s.n, Quiver(q.vertices, q.frozen, q.star, arrows), s.labels)
            got = outcome(mutate_labels, cut, j)
            assert got == outcome(oracle_mutate_labels, cut, j)
            assert got[:2] == ("invariant", "corner-structure")
            faults += 1
        # a crossing exchanged label, and a partner that is already a label
        i = q.vertices.index(j)
        crossing = next(J for J in ksubsets(s.n, s.k)
                        if J not in s.labels.values()
                        and combinat.crossing_partner(combinat._mask(J), s.masks[:i] + s.masks[i + 1:])
                        is not None)
        taken = next(J for v, J in s.labels.items() if v != j)
        for partner, violation in ((crossing, "labels-not-weakly-separated"),
                                   (taken, "duplicate-label")):
            with monkeypatch.context() as mp:
                mp.setattr(seeds, "exchange_label", lambda q, labels, v: partner)
                got = outcome(mutate_labels, unasked(s), j)
                assert got == outcome(oracle_mutate_labels, s, j)
                assert got[:2] == ("invariant", violation)
            faults += 1
    assert faults > 2


def test_a_childs_first_read_of_its_parents_row_walks_one_entry(monkeypatch):
    monkeypatch.setattr(seeds, "_KAPPA_ROWS", {})
    s = rectangles_seed(4, 8)
    I = (2, 3, 5, 8)
    kappa_vector(s, I)
    walked = []
    real = seeds._max_diag_masks
    monkeypatch.setattr(seeds, "_max_diag_masks",
                        lambda j, i: walked.append(j) or real(j, i))
    for _j, moved in seeds.seed_mutations(s):
        walked.clear()
        (new,) = set(moved.masks) - set(s.masks)
        column = kappa_vector(moved, I)
        assert walked == [new]
        assert list(column.values()) == [max_diag(J, I, 8) for J in moved.vertex_labels]
        del seeds._KAPPA_ROWS[(I, 8)][new]  # the next sibling reads the parent's row
    # a seed that did not come from a parent walks every mask of a fresh row
    walked.clear()
    kappa_vector(s, (1, 4, 6, 7))
    assert sorted(walked) == sorted(s.masks)


def test_a_seed_out_of_label_order_is_not_mutated():
    # 456 and 567 swapped, away from 124's neighbours: the exchange at 124
    # is defined, but bisection needs the vertices in label order
    s = rectangles_seed(3, 7)
    labels = dict(s.labels)
    labels["456"], labels["567"] = labels["567"], labels["456"]
    swapped = Seed(s.k, s.n, s.quiver, labels)
    assert seeds.exchange_label(swapped.quiver, swapped.labels, "124") == (1, 3, 5)
    for step in (mutate_labels, seeds.label_exchange):
        with pytest.raises(ValueError, match="not in label order"):
            step(swapped, "124")
    # the order holds down a walk
    rng = random.Random(7)
    for t, _vertices in walk((3, 7), rng, 8):
        assert list(t.vertex_labels) == sorted(t.vertex_labels)
        assert t._ordered


# ------------------------------------------------- the one-pass exact sequence


def bump_entries(monkeypatch, shape: str, seed: int):
    """Change beta's entries (``seeds._beta_entries``) for both routes, at
    positions drawn from ``seed`` alone: one entry up (a row and a column
    off), one up and one down in a row (two columns off), or a rectangle of
    +1, -1, -1, +1 (every sum kept)."""
    real = seeds._beta_entries

    def bumped(q):
        rng, m = random.Random(seed), len(q.vertices)
        r1, r2 = rng.sample(range(m), 2)
        c1, c2 = rng.sample(range(m), 2)
        extra = {"one": [(r1, c1, 1)],
                 "row": [(r1, c1, 1), (r1, c2, -1)],
                 "rectangle": [(r1, c1, 1), (r1, c2, -1), (r2, c1, -1), (r2, c2, 1)]}[shape]
        return real(q) + extra

    monkeypatch.setattr(seeds, "_beta_entries", bumped)


def kappa_plus_one(monkeypatch):
    real = seeds._max_diag_masks
    monkeypatch.setattr(seeds, "_max_diag_masks", lambda j, i: real(j, i) + 1 if real(j, i) else 0)
    monkeypatch.setattr(seeds, "_KAPPA_ROWS", {})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STARTS), st.integers(0, 2**32), st.integers(0, 6),
       st.sampled_from(["none", "one", "row", "rectangle", "kappa", "swap"]))
def test_one_pass_equals_the_dict_route_on_walks(start, seed, steps, fault):
    rng = random.Random(seed)
    seeds_walked = [s for s, _vertices in walk(start, rng, steps)]
    with pytest.MonkeyPatch.context() as mp:
        if fault in ("one", "row", "rectangle"):
            bump_entries(mp, fault, seed)
        elif fault == "kappa":
            kappa_plus_one(mp)
        for s in seeds_walked:
            if fault == "swap":
                a, b = rng.sample(list(s.quiver.vertices), 2)
                labels = dict(s.labels)
                labels[a], labels[b] = labels[b], labels[a]
                s = Seed(s.k, s.n, s.quiver, labels)
            if fault in ("none", "swap"):
                assert outcome(seeds.beta_columns, s) == outcome(arrow_beta, s)
            got = outcome(seeds._exact_sequence_witness, s)
            assert got == outcome(dict_exact_sequence_witness, s)
            assert outcome(seeds.exact_sequence_checks, s) == (
                got is None if not isinstance(got, tuple) else got)
            if start != "shark" and fault == "none":
                assert got is None


def test_beta_unbalanced_comes_before_bad_label():
    # the shark's star label 12 swapped with 34: kappa of 34 at the star is
    # nonzero, but the shark's beta does not balance, and that is raised
    s = seed_of_model(shark_model())
    labels = dict(s.labels)
    labels["12"], labels["34"] = labels["34"], labels["12"]
    swapped = Seed(s.k, s.n, s.quiver, labels)
    assert outcome(kappa_vector, swapped, (1, 2))[:2] == ("invariant", "bad-label")
    for check in (seeds.exact_sequence_checks, seeds._exact_sequence_witness,
                  dict_exact_sequence_witness):
        assert outcome(check, swapped)[:2] == ("invariant", "beta-unbalanced")
    # on a seed whose rows balance, the column sums come first, then
    # bad-label: at rect:2,5 mutated at 14, the arrow 15 -> 45 moved to
    # 23 -> 45 puts +1 in column 15 and -1 in column 23
    s = mutate_labels(rectangles_seed(2, 5), "14")
    q = s.quiver
    labels = dict(s.labels)
    labels[q.star], labels["45"] = labels["45"], labels[q.star]
    swapped = Seed(s.k, s.n, q, labels)
    assert outcome(seeds._exact_sequence_witness, swapped)[:2] == ("invariant", "bad-label")
    counts = {(u, v): m for u, v, m in q.arrows}
    counts["23", "45"] = counts.pop(("15", "45"))
    moved = Seed(s.k, s.n, seeds.make_quiver(q.vertices, q.frozen, q.star, counts), labels)
    got = outcome(seeds._exact_sequence_witness, moved)
    assert got == outcome(dict_exact_sequence_witness, moved)
    assert got == "beta column 15 sums to 1, not 0"


def test_beta_columns_is_the_view_of_the_entries(monkeypatch):
    s = mutate_labels(rectangles_seed(3, 6), "124")
    assert seeds.beta_columns(s) == arrow_beta(s)
    entries = seeds._beta_entries(s.quiver)
    monkeypatch.setattr(seeds, "_beta_entries", lambda q: entries + [(0, 1, 5), (0, 2, -5)])
    cols = seeds.beta_columns(s)
    v0, v1, v2 = s.quiver.vertices[:3]
    want = arrow_beta(s)
    assert cols[v1].get(v0, 0) == want[v1].get(v0, 0) + 5
    assert cols[v2].get(v0, 0) == want[v2].get(v0, 0) - 5
