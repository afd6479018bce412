"""The matching layer against the routes it replaced.

``reference_matchings`` is the set-based backtracker that the bitmask
enumerator replaced; it is the oracle for ``enumerate_matchings``, list and
order.  ``index_matchings`` is the bitmask backtracker that handed each
matching on as a sorted tuple of edge indices; it is the oracle for
``matching_masks``, masks and order.  ``Reference`` enumerates the
matchings afresh on every call and filters them by ``boundary_value``; it
is the oracle for the table's positroid, base matching, partition
functions and flow polynomials.  ``DenseRoutes`` holds the per-face face
weight routes that the packed ones of ``FaceGraph`` replaced; it is the
oracle for their weights and their error messages.  The Grassmann necklace
of the enumerated positroid (``necklace_oracle``) is the oracle for the
gap-face labels.
"""

import gc
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from plabicflow import charts, cli, plabic
from plabicflow.charts import (
    edge_lattice,
    face_lattice,
    flow_polynomial,
    partition_function,
    plucker_verify,
    three_term_relations,
)
from plabicflow.combinat import format_ksubset, ksubsets
from plabicflow.laurent import LaurentPoly
from plabicflow.plabic import (
    ModelInvariantError,
    NotPlabicMutable,
    analyze,
    base_matching,
    boundary_value,
    build_rectangles_model,
    flow_weight,
    matching_table,
    positroid,
    shark_model,
    square_move,
    square_moves,
)
from plabicflow.seeds import mutable_vertices, seed_of_model
from model_transforms import insert_degree_two_pair
from necklace_oracle import necklace_of_positroid, shifted_key

BASES = {
    "shark": shark_model,
    "rect:2,5": lambda: build_rectangles_model(2, 5),
    "rect:3,6": lambda: build_rectangles_model(3, 6),
    "rect:3,7": lambda: build_rectangles_model(3, 7),
}
ORBIT_SEEDS = (1, 2)


def orbit_steps(model, seed: int, moves: int = 3):
    """Yield the model after each of up to ``moves`` seeded square moves."""
    rng = random.Random(seed)
    for _ in range(moves):
        s = seed_of_model(model)
        choices = mutable_vertices(s.quiver)
        rng.shuffle(choices)
        for j in choices:
            try:
                model = square_move(model, s.labels[j])
            except NotPlabicMutable:
                continue
            yield model
            break


def orbit(model, seed: int, moves: int = 3):
    """The model after up to ``moves`` seeded square moves."""
    for model in orbit_steps(model, seed, moves):
        pass
    return model


MODELS = {name: build for name, build in BASES.items()}
for _name, _build in BASES.items():
    for _seed in ORBIT_SEEDS:
        MODELS[f"{_name} orbit {_seed}"] = (
            lambda build=_build, seed=_seed: orbit(build(), seed))


# ------------------------------------------------- the reference enumerator


def reference_matchings(model):
    """All perfect matchings, by set-based backtracking over node names."""
    nodes = sorted(model.colors)
    incident = {v: [] for v in nodes}
    for e in sorted(model.edges):
        for end in model.edges[e]:
            if end[0] == "n":
                incident[end[1]].append(e)
    results = []

    def other_end(ends, here):
        return ends[1] if ends[0] == here else ends[0]

    def extend(covered, chosen):
        free = [v for v in nodes if v not in covered]
        if not free:
            results.append(frozenset(chosen))
            return
        v = min(free, key=lambda u: (len(incident[u]), u))
        for e in incident[v]:
            other = other_end(model.edges[e], ("n", v))
            if other[0] == "n" and other[1] in covered:
                continue
            newly = {v} | ({other[1]} if other[0] == "n" else set())
            covered |= newly
            chosen.append(e)
            extend(covered, chosen)
            chosen.pop()
            covered -= newly

    extend(set(), [])
    results.sort(key=lambda m: tuple(sorted(m)))
    return results


ENUMERATED = {
    "shark": shark_model,
    **{f"rect:{k},{n}": (lambda k=k, n=n: build_rectangles_model(k, n))
       for k, n in ((2, 5), (3, 6), (3, 7), (4, 8), (4, 9))},
}


@pytest.mark.parametrize("name", sorted(ENUMERATED))
def test_enumeration_equals_reference(name):
    model = ENUMERATED[name]()
    assert plabic.enumerate_matchings(model) == reference_matchings(model)


@pytest.mark.parametrize("kn", [(3, 6), (3, 7), (4, 8)])
def test_enumeration_equals_reference_after_each_square_move(kn):
    moved = list(square_moves(build_rectangles_model(*kn)))
    assert moved
    for face, model in moved:
        assert plabic.enumerate_matchings(model) == reference_matchings(model), face


@given(st.sampled_from([(3, 6), (3, 7)]), st.integers(0, 2**16), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_enumeration_equals_reference_on_orbits(kn, seed, moves):
    model = orbit(build_rectangles_model(*kn), seed, moves)
    assert plabic.enumerate_matchings(model) == reference_matchings(model)


def index_matchings(model):
    """All perfect matchings as sorted tuples of edge indices (into
    ``sorted(model.edges)``), in sorted order: a backtracker over a covered
    mask that keeps the chosen edges in a list."""
    names = sorted(model.edges)
    incident = {v: [] for v in model.colors}
    for i, e in enumerate(names):
        for end in model.edges[e]:
            if end[0] == "n":
                incident[end[1]].append(i)
    order = sorted(incident, key=lambda u: (len(incident[u]), u))
    bit = {v: 1 << i for i, v in enumerate(order)}
    covers = [0] * len(names)
    for i, e in enumerate(names):
        for end in model.edges[e]:
            if end[0] == "n":
                covers[i] |= bit[end[1]]
    options = [[(i, covers[i]) for i in incident[v]] for v in order]
    full = (1 << len(order)) - 1
    found = []
    chosen = []

    def extend(covered):
        free = full & ~covered
        if not free:
            found.append(tuple(sorted(chosen)))
            return
        for i, mask in options[(free & -free).bit_length() - 1]:
            if covered & mask:
                continue
            chosen.append(i)
            extend(covered | mask)
            chosen.pop()

    extend(0)
    found.sort()
    return found


ORACLE_BASES = {
    **BASES,
    "rect:4,8": lambda: build_rectangles_model(4, 8),
    "rect:4,9": lambda: build_rectangles_model(4, 9),
}


@given(st.sampled_from(sorted(ORACLE_BASES)), st.integers(0, 2**16), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_masks_equal_the_index_backtracker_on_orbits(name, seed, moves):
    model = orbit(ORACLE_BASES[name](), seed, moves)
    found = index_matchings(model)
    names = sorted(model.edges)
    assert plabic.matching_masks(model) == [sum(1 << i for i in m) for m in found]
    assert plabic.enumerate_matchings(model) == [
        frozenset(names[i] for i in m) for m in found]


@pytest.mark.parametrize("kn, count", [((4, 8), 424), ((4, 9), 1450), ((5, 10), 7234),
                                       ((6, 12), 207997)])
def test_rectangles_matching_counts(kn, count):
    assert len(plabic.matching_masks(build_rectangles_model(*kn))) == count


@pytest.mark.parametrize("name", sorted(ENUMERATED))
def test_matching_budget_is_exact(monkeypatch, name):
    model = ENUMERATED[name]()
    masks = plabic.matching_masks(model)
    monkeypatch.setattr(plabic, "MATCHING_BUDGET", len(masks))
    assert plabic.matching_masks(model) == masks
    for budget in (len(masks) - 1, 1):
        monkeypatch.setattr(plabic, "MATCHING_BUDGET", budget)
        with pytest.raises(plabic.MatchingBudgetExceeded) as info:
            plabic.matching_masks(model)
        assert (info.value.count, info.value.budget) == (len(masks), budget)
        assert not isinstance(info.value, ValueError)


def test_matching_budget_refuses_before_listing(monkeypatch):
    # listing the 207,997 matchings of rect (6,12) peaks at about 80 MB; a
    # budget of 1000 is refused having built some thousands of entries
    monkeypatch.setattr(plabic, "MATCHING_BUDGET", 1000)
    model = build_rectangles_model(6, 12)
    tracemalloc.start()
    try:
        with pytest.raises(plabic.MatchingBudgetExceeded) as info:
            plabic.matching_masks(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.count == 207997
    assert peak < 2_000_000


def least_state_budget(search) -> int:
    """The least ``plabic.STATE_BUDGET`` under which ``search()`` answers;
    every smaller budget must refuse it as a search past the state budget."""
    budget = 1
    while True:
        plabic.STATE_BUDGET = budget
        try:
            search()
            return budget
        except plabic.MatchingBudgetExceeded as exc:
            assert (exc.count, exc.budget) == (None, budget)
            assert str(exc).endswith(f" past the state budget of {budget:,}")
        budget += 1


def test_state_budget_bounds_the_listing_and_its_count(monkeypatch):
    # the listing keeps one list per covered mask, and the count that
    # decides the matching budget one integer per covered mask, over the
    # same masks: under a matching budget of 1, which starts the count at
    # once, the count is refused at the same state budget as the listing
    monkeypatch.setattr(plabic, "STATE_BUDGET", plabic.STATE_BUDGET)
    model = build_rectangles_model(3, 6)
    masks = plabic.matching_masks(model)
    states = least_state_budget(lambda: plabic.matching_masks(model))
    assert 1 < states < len(masks)
    monkeypatch.setattr(plabic, "MATCHING_BUDGET", 1)
    with pytest.raises(plabic.MatchingBudgetExceeded) as info:
        plabic.matching_masks(model)
    assert (info.value.count, info.value.budget) == (len(masks), 1)
    plabic.STATE_BUDGET = states - 1
    with pytest.raises(plabic.MatchingBudgetExceeded) as info:
        plabic.matching_masks(model)
    assert (info.value.count, info.value.budget) == (None, states - 1)
    # one boundary value: its search runs on the internal edges alone
    I = (1, 3, 5)
    plabic.STATE_BUDGET = 1
    with pytest.raises(plabic.MatchingBudgetExceeded) as info:
        plabic.matching_masks(model, I)
    assert str(info.value) == ("a matching search with boundary value 135 past "
                               "the state budget of 1")


def test_a_search_past_the_recursion_limit_is_refused():
    # the listing of rect (6,12) goes more than 20 calls deep; a
    # RecursionError is refused as a request past the limit, while the
    # base value, read off the gap labels, makes no recursion
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    model = build_rectangles_model(6, 12)
    plabic.analyze(model)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        with pytest.raises(plabic.MatchingBudgetExceeded) as info:
            plabic.matching_masks(model)
        assert (info.value.count, info.value.budget) == (None, depth + 20)
        assert str(info.value) == (
            f"a matching search past the recursion limit of {depth + 20}")
        assert plabic.base_value(model) == tuple(range(7, 13))
    finally:
        sys.setrecursionlimit(limit)


def test_enumeration_leaves_no_reference_cycle(monkeypatch):
    # a cycle through a memoised recursion, the listing's or the count's
    # that decides the matching budget, would keep its memo and the model
    # alive until the next garbage collection: on a plain listing, on one
    # refused at the matching budget, and on one counted and then listed
    # (rect:4,8 has 424 matchings)
    for k, n, budget in [(3, 6, plabic.MATCHING_BUDGET), (4, 8, 10), (4, 8, 424)]:
        monkeypatch.setattr(plabic, "MATCHING_BUDGET", budget)
        model = build_rectangles_model(k, n)
        ref = weakref.ref(model)
        gc.disable()
        try:
            try:
                assert len(plabic.matching_masks(model)) <= budget
            except plabic.MatchingBudgetExceeded as exc:
                assert budget == 10 and exc.count == 424
            del model
            assert ref() is None, budget
        finally:
            gc.enable()


# ------------------------------------------------------ the reference route


class Reference:
    """Everything recomputed from a fresh enumeration, nothing cached."""

    def __init__(self, model):
        self.model = model
        self.groups: dict = {}
        for m in plabic.enumerate_matchings(model):
            self.groups.setdefault(boundary_value(model, m), []).append(m)

    def positroid(self):
        return tuple(sorted(self.groups))

    def base(self):
        (hit,) = self.groups[max(self.groups)]
        return hit

    def partition(self, I):
        lattice = edge_lattice(self.model)
        terms = Counter(tuple(int(e in m) for e in lattice)
                        for m in self.groups.get(I, ()))
        return LaurentPoly.make(lattice, terms)

    def flow(self, I):
        lattice = face_lattice(self.model)
        n = self.model.n
        terms = Counter()
        for m in self.groups.get(I, ()):
            w = {format_ksubset(J, n): c for J, c in flow_weight(self.model, m).items()}
            terms[tuple(w[x] for x in lattice)] += 1
        return LaurentPoly.make(lattice, terms)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_table_equals_fresh_enumeration(name):
    model = MODELS[name]()
    ref = Reference(model)
    assert positroid(model) == ref.positroid()
    assert base_matching(model) == ref.base()
    for I in ksubsets(model.n, model.k):
        assert partition_function(model, I) == ref.partition(I), (name, I)
        assert flow_polynomial(model, I) == ref.flow(I), (name, I)


def test_shifted_key():
    assert shifted_key((2, 3), 2, 3) == (0, 1)


def test_necklace_of_positroid_full():
    P = ksubsets(4, 2)
    assert necklace_of_positroid(P, 4) == ((1, 2), (2, 3), (3, 4), (1, 4))


def gap_labels_are_the_necklace(model):
    """Whether the gap face between stubs l and l + 1 carries the
    necklace's (l + 1)-th entry of the enumerated positroid, for every l."""
    neck = necklace_of_positroid(positroid(model), model.n)
    gaps = {f.gap: f.label for f in analyze(model).faces if f.gap is not None}
    return gaps == {l: neck[l % model.n] for l in range(1, model.n + 1)}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gap_labels_are_the_necklace_of_the_positroid(name):
    assert gap_labels_are_the_necklace(MODELS[name]())


@given(st.sampled_from(sorted(BASES)), st.integers(0, 2**16), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_square_moves_keep_the_positroid_and_the_necklace(name, seed, moves):
    # square_move compares the gap labels only: every move of an orbit
    # keeps the enumerated positroid, and its gap labels stay the
    # necklace of that positroid
    model = BASES[name]()
    for moved in orbit_steps(model, seed, moves):
        assert positroid(moved) == positroid(model)
        assert gap_labels_are_the_necklace(moved)
        model = moved


@given(st.sampled_from(sorted(BASES)), st.integers(0, 2**16), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_positroid_read_off_the_gap_labels_is_the_enumerated_one(name, seed, moves):
    # Oh's test of each k-subset against the necklace on the gap labels
    # keeps exactly the enumerated positroid on every model of an orbit,
    # also when made to test every subset where the necklace is the
    # cyclic intervals (which skips the test)
    model = BASES[name]()
    for m in [model, *orbit_steps(model, seed, moves)]:
        want = list(positroid(m))
        assert plabic._positroid_subsets(m) == want
        with mock.patch.object(plabic, "_cyclic_necklace", lambda k, n: None):
            assert plabic._positroid_subsets(m) == want


def test_a_move_that_changes_a_gap_label_is_refused(monkeypatch):
    # the model's own gap labels, with gaps 1 and 2 swapped, as the
    # necklace the moved model must carry
    model = build_rectangles_model(3, 6)
    real = plabic._gap_labels

    def swapped(an):
        got = real(an)
        if an is analyze(model):
            got[1], got[2] = got[2], got[1]
        return got

    monkeypatch.setattr(plabic, "_gap_labels", swapped)
    with pytest.raises(ModelInvariantError) as err:
        square_move(model, (1, 2, 4))
    assert err.value.violation == "positroid-changed"
    assert err.value.detail == "moving 124 gap 1: 234 != 345"


@pytest.mark.parametrize("kn,detail", [
    ((1, 5), "rect(1,5) gap 1: 2 != 3"),
    ((4, 5), "rect(4,5) gap 1: 2345 != 1345"),
    ((3, 7), "rect(3,7) gap 1: 234 != 345"),
])
def test_a_built_model_off_the_cyclic_intervals_is_refused(monkeypatch, kn, detail):
    # every interval shifted by one, for a star and for grids
    real = plabic.cyclic_interval
    monkeypatch.setattr(plabic, "cyclic_interval",
                        lambda a, b, n: real(a % n + 1, b % n + 1, n))
    with pytest.raises(ModelInvariantError) as err:
        build_rectangles_model(*kn)
    assert (err.value.violation, err.value.detail) == ("gap-necklace-mismatch", detail)


def test_moves_and_builders_list_no_matching(monkeypatch):
    def refused(model, I=None):
        raise AssertionError("a matching was listed")

    monkeypatch.setattr(plabic, "matching_masks", refused)
    assert [j for j, _ in square_moves(build_rectangles_model(4, 8))] == [
        "1235", "1236", "1237", "1245", "1345"]
    assert [j for j, _ in square_moves(shark_model())] == ["24"]
    for kn in ((1, 5), (4, 5), (3, 7)):
        build_rectangles_model(*kn)


def test_orbits_leave_the_base_model():
    for name, build in BASES.items():
        base = plabic.save_model(build())
        moved = [plabic.save_model(orbit(build(), seed)) for seed in ORBIT_SEEDS]
        assert all(text != base for text in moved), name


# -------------------------------------- the mask routes against the set routes


class DenseRoutes:
    """The dense face-weight routes that the packed ones of ``FaceGraph``
    replaced, one list entry per face by face index: the oracle for
    ``FaceGraph.dual_route``, ``flow_route`` and ``weigh``, weights and
    error messages alike.  The spanning tree is the face graph's, built
    the same way, so a failing residual names the same arrow."""

    def __init__(self, model, base: int):
        an = analyze(model)
        nodes = {v: i for i, v in enumerate(sorted(model.colors))}
        F = len(an.faces)
        self.base = base
        self.labels = tuple(f.label for f in an.faces)
        self.region = an.adjacency.region
        adj = [[] for _ in range(F)]
        self.head, self.left = [], []
        self.leaving = [0] * len(nodes)
        self.from_tips = 0
        face_of_dart = {d: f.index for f in an.faces for d in f.darts}
        for i, ((e, s, t), (black, white)) in enumerate(zip(an.arrows, an.black_white)):
            ebit = 1 << i
            step = 1 if base & ebit else -1
            adj[s].append((t, ebit, step))
            adj[t].append((s, ebit, -step))
            tail, head = (black, white) if base & ebit else (white, black)
            # the dart from head to tail, which has the left face on its right
            rev = (("e", e), model.edges[e].index(head))
            if tail[0] == "n":
                self.leaving[nodes[tail[1]]] |= ebit
            else:
                self.from_tips |= ebit
            self.head.append(nodes[head[1]] if head[0] == "n" else -head[1])
            self.left.append(1 << face_of_dart[rev])
        self.tree = []
        reached, order, tree_edges = {an.star}, [an.star], 0
        for u in order:
            for v, ebit, step in adj[u]:
                if v not in reached:
                    reached.add(v)
                    order.append(v)
                    self.tree.append((v, u, ebit, step))
                    tree_edges |= ebit
        self.cotree = [(s, t, 1 << i, 1 if base >> i & 1 else -1)
                       for i, (_, s, t) in enumerate(an.arrows)
                       if not tree_edges >> i & 1]

    def named(self, w):
        return dict(zip(self.labels, w))

    def dual_weights(self, mask: int) -> list[int]:
        diff = mask ^ self.base
        w = [0] * len(self.labels)
        for child, parent, ebit, step in self.tree:
            w[child] = w[parent] + step if diff & ebit else w[parent]
        for s, t, ebit, step in self.cotree:
            if w[t] - w[s] != (step if diff & ebit else 0):
                raise ModelInvariantError(
                    "weight-inconsistent",
                    f"arrow {self.labels[s]} -> {self.labels[t]}: {self.named(w)}")
        if min(w) < 0:
            raise ModelInvariantError("weight-negative", f"{self.named(w)}")
        return w

    def components(self, mask: int) -> list[tuple[int, int, int]]:
        """The paths of M ^ base in walk order, as (tip dart, darts, left
        faces); a dart on no path raises."""
        diff = mask ^ self.base
        head, left, leaving = self.head, self.left, self.leaving
        comps, used = [], 0
        starts = diff & self.from_tips
        while starts:
            first = starts & -starts
            starts ^= first
            i = first.bit_length() - 1
            comp, seeds = first, left[i]
            while head[i] >= 0:
                out = leaving[head[i]] & diff
                if not out or out & (out - 1):
                    raise ModelInvariantError(
                        "flow-degree",
                        f"{bin(out).count('1')} darts leave node {head[i]}")
                if out & (used | comp):
                    raise ModelInvariantError(
                        "flow-degree", f"two darts enter node {head[i]}")
                comp |= out
                i = out.bit_length() - 1
                seeds |= left[i]
            used |= comp
            comps.append((first, comp, seeds))
        left_over = bin(diff & ~used).count("1")
        if left_over:
            raise ModelInvariantError(
                "flow-degree", f"{left_over} darts on no boundary path")
        return comps

    def flow_weights(self, mask: int) -> list[int]:
        w = [0] * len(self.labels)
        for _, comp, seeds in self.components(mask):
            region = self.region(seeds, comp)
            for f in range(len(w)):
                w[f] += region >> f & 1
        return w

    def outcomes(self, mask: int) -> tuple:
        """The outcomes of the dual route, the flow route and both checked
        against each other, flow first, as ``weigh`` runs them."""
        dual, flow = outcome(self.dual_weights, mask), outcome(self.flow_weights, mask)
        if isinstance(flow, tuple):
            return dual, flow, flow
        if isinstance(dual, tuple):
            return dual, flow, dual
        if flow != dual:
            return dual, flow, ("flow-weight-mismatch", (
                f"flow-weight-mismatch: flow {self.named(flow)} "
                f"vs matching {self.named(dual)}"))
        return dual, flow, dual


def outcome(route, mask, decode=list):
    """A route's weights on a mask as a list, or the name and message it
    raised as a tuple."""
    try:
        return decode(route(mask))
    except ModelInvariantError as exc:
        return exc.violation, str(exc)


def assert_routes_equal_reference(model):
    """Table masks, boundary values and groups, and both face-weight routes
    on every matching, packed and dense, against the set-based public
    functions."""
    table = matching_table(model)
    matchings = plabic.enumerate_matchings(model)
    bit = {e: 1 << i for i, e in enumerate(edge_lattice(model))}
    assert table.masks == tuple(sum(map(bit.__getitem__, m)) for m in matchings)
    assert [table.boundary_of(mask) for mask in table.masks] == [
        boundary_value(model, m) for m in matchings]
    faces = plabic.analyze(model).faces
    graph = plabic.face_graph(model)
    dense = DenseRoutes(model, graph.base)
    for m, mask in zip(matchings, table.masks):
        dual = plabic.weight_of_matching(model, m)
        flow = flow_weight(model, m)
        reference = [flow[f.label] for f in faces]
        assert dense.dual_weights(mask) == [dual[f.label] for f in faces]
        assert dense.flow_weights(mask) == reference
        assert graph.weights(graph.dual_route(mask)) == reference
        assert graph.weights(graph.flow_route(mask)) == reference
        assert graph.weights(graph.weigh(mask)) == reference
    for I in table.positroid:
        assert plabic.masks_at(model, I) == tuple(
            mask for mask in table.masks if table.boundary_of(mask) == I)


@pytest.mark.parametrize("name", sorted(ENUMERATED))
def test_mask_routes_equal_reference(name):
    assert_routes_equal_reference(ENUMERATED[name]())


@given(st.sampled_from(sorted(BASES)), st.integers(0, 2**16), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_mask_routes_equal_reference_on_orbits(name, seed, moves):
    assert_routes_equal_reference(orbit(BASES[name](), seed, moves))


@given(st.sampled_from(sorted(ORACLE_BASES)), st.integers(0, 2**16), st.integers(0, 3),
       st.lists(st.lists(st.integers(0, 2**16), min_size=1, max_size=2), max_size=40))
@settings(max_examples=30, deadline=None)
def test_packed_routes_equal_the_dense_oracles(name, seed, moves, flips):
    # every matching, then matchings with one or two edge bits flipped: the
    # packed routes give the dense weights or raise the same name and
    # message, each route alone and both through ``weigh``; measured from
    # another matching than the base one, most weights go negative
    model = orbit(ORACLE_BASES[name](), seed, moves)
    masks = matching_table(model).masks
    E = len(model.edges)
    flipped = [masks[seed % len(masks)] ^ sum(1 << b for b in {b % E for b in bits})
               for bits in flips]
    base = plabic.face_graph(model).base
    other = plabic.FaceGraph(model, masks[seed % len(masks)])
    for graph in (plabic.face_graph(model), other):
        dense = DenseRoutes(model, graph.base)
        for mask in (*masks, *flipped) if graph.base == base else masks:
            want = dense.outcomes(mask)
            got = tuple(outcome(route, mask, graph.weights)
                        for route in (graph.dual_route, graph.flow_route, graph.weigh))
            assert got == want
            if not isinstance(want[2], tuple):
                assert graph.exponents(graph.weigh(mask)) == tuple(
                    want[2][f] for f in graph.fields[:-1])
    assert_extremes(plabic.face_graph(model), masks, random.Random(seed))


def assert_extremes(graph, masks, rng):
    """The packed coordinatewise least and greatest of the weights of all
    the matchings and of a sample of them, against the dense ones."""
    for sample in (masks, rng.sample(masks, rng.randint(1, len(masks)))):
        weights = [graph.weights(graph.weigh(mask)) for mask in sample]
        low, high = graph.extremes(graph.weigh(mask) for mask in sample)
        assert graph.weights(low) == list(map(min, zip(*weights)))
        assert graph.weights(high) == list(map(max, zip(*weights)))


def test_packed_routes_with_two_byte_fields():
    # at rect (8,16), 2F = 130 passes 2^7, so each field takes two bytes; the
    # matchings of three boundary values next to the all-low one, and each
    # with one edge bit flipped, against the dense routes
    model = build_rectangles_model(8, 16)
    graph = plabic.face_graph(model)
    assert graph.width == 16
    dense = DenseRoutes(model, graph.base)
    E = len(model.edges)
    for I in ((1, 2, 3, 4, 5, 6, 7, 9), (1, 2, 3, 4, 5, 6, 8, 9),
              (1, 2, 3, 4, 5, 7, 8, 9)):
        masks = plabic.masks_at(model, I)
        assert len(masks) > 1
        exponents = Counter()
        for n, mask in enumerate(masks):
            for m in (mask ^ 1 << (n * 7 % E), mask):
                got = tuple(outcome(route, m, graph.weights)
                            for route in (graph.dual_route, graph.flow_route,
                                          graph.weigh))
                assert got == dense.outcomes(m)
            exponent = tuple(got[2][f] for f in graph.fields[:-1])  # of the matching
            assert graph.exponents(graph.weigh(mask)) == exponent
            exponents[exponent] += 1
        assert flow_polynomial(model, I).terms == tuple(sorted(exponents.items()))
        assert_extremes(graph, masks, random.Random(len(masks)))


def test_routes_reject_a_non_matching():
    # flipping one internal edge of the base matching uncovers or doubly
    # covers both its ends: no face weights solve the dual system there, and
    # the difference is one dart on no boundary path, which the packed, the
    # dense and the set-based flow routes refuse alike; the checks run
    # before any stored path is read, so a warm store changes nothing
    model = build_rectangles_model(3, 6)
    graph = plabic.face_graph(model)
    dense = DenseRoutes(model, graph.base)
    internal = [i for i, e in enumerate(edge_lattice(model))
                if all(end[0] == "n" for end in model.edges[e])]
    assert internal
    left_over = ("flow-degree", "flow-degree: 1 darts on no boundary path")
    for warm in (False, True):
        if warm:
            for mask in matching_table(model).masks:
                graph.weigh(mask)
            assert graph.components
        for i in internal:
            bad = graph.base ^ (1 << i)
            with pytest.raises(ModelInvariantError, match="weight-inconsistent"):
                graph.dual_route(bad)
            names = plabic.edge_names(model, bad)
            for route, arg in ((graph.flow_route, bad), (dense.flow_weights, bad),
                               (lambda m: plabic.flow_of_matching(model, m), names)):
                assert outcome(route, arg) == left_over


FLOOD_BASES = {**BASES, "rect:4,8": lambda: build_rectangles_model(4, 8)}


def stored(graph):
    """The face graph's stored components, as a set per start dart."""
    return {first: set(entries) for first, entries in graph.components.items()}


@given(st.sampled_from(sorted(FLOOD_BASES)), st.integers(0, 2**16), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_flood_memo_equals_a_fresh_flood(name, seed, moves):
    # the first pass walks each new component and takes the repeats from the
    # store; the second pass, in the other order, only takes; a cold graph,
    # whose store is emptied before every call, walks and floods afresh
    model = orbit(FLOOD_BASES[name](), seed, moves)
    graph = plabic.face_graph(model)
    cold = plabic.FaceGraph(model, graph.base)
    dense = DenseRoutes(model, graph.base)
    order = list(matching_table(model).masks)
    random.Random(seed).shuffle(order)
    weights = {}
    walks = 0
    for mask in order:
        cold.components.clear()
        weights[mask] = cold.flow_route(mask)
        walks += sum(map(len, cold.components.values()))
        assert graph.weigh(mask) == weights[mask]
    filled = stored(graph)
    assert len(order) > 1 and 0 < sum(map(len, filled.values())) <= walks
    # each stored component is what a fresh walk finds from its start dart,
    # and on every matching the store check holds exactly for the
    # components that the dense walk finds there
    for first, entries in filled.items():
        for comp, guard, flood in entries:
            assert cold._walk(first, comp, 0) == (comp, guard, flood)
    for mask in order:
        diff = mask ^ graph.base
        walked = {(first, comp) for first, comp, _ in dense.components(mask)}
        taken = {(first, comp) for first, entries in filled.items() if diff & first
                 for comp, guard, _ in entries if diff & guard == comp}
        assert taken == walked
    for mask in reversed(order):
        assert graph.weigh(mask) == weights[mask]
    assert stored(graph) == filled


@given(st.sampled_from(sorted(FLOOD_BASES)), st.integers(0, 2**16), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_every_dart_of_a_difference_lies_on_a_boundary_path(name, seed, moves):
    # the base matching is the one matching of its boundary value, so its
    # orientation has no directed cycle: for every matching M, the paths
    # walked from the tip darts of M ^ base cover it.  A base that shares
    # its value with another matching M fails here, as M ^ base then has no
    # tip dart at all.
    model = orbit(FLOOD_BASES[name](), seed, moves)
    graph = plabic.face_graph(model)
    for mask in matching_table(model).masks:
        diff = mask ^ graph.base
        covered, starts = 0, diff & graph.from_tips
        while starts:
            first = starts & -starts
            starts ^= first
            covered |= graph._walk(first, diff, covered)[0]
        assert covered == diff


def test_dual_route_rejects_negative_weights():
    # measured from any other matching, the base matching sits below it on
    # some face: weights solve the system there but are not all nonnegative
    model = build_rectangles_model(3, 6)
    table = matching_table(model)
    base = plabic.face_graph(model).base
    for other in table.masks[:20]:
        if other == base:
            continue
        with pytest.raises(ModelInvariantError, match="weight-negative"):
            plabic.FaceGraph(model, other).dual_route(base)


# ------------------------------------------------ one enumeration per model


@pytest.fixture
def listings(monkeypatch):
    """Counts ``matching_masks`` calls: whole enumerations per model object,
    and lists of one boundary value per (model object, I)."""
    whole, per_value = Counter(), Counter()
    seen = []  # keep alive: a freed model's id could be reused by a later one
    real = plabic.matching_masks

    def counted(model, I=None):
        seen.append(model)
        if I is None:
            whole[id(model)] += 1
        else:
            per_value[id(model), tuple(I)] += 1
        return real(model, I)

    monkeypatch.setattr(plabic, "matching_masks", counted)
    return whole, per_value


@pytest.fixture
def enumerations(listings):
    """Counts whole enumerations (``matching_masks`` calls without a
    boundary value) per model object."""
    return listings[0]


def test_one_enumeration_per_model(enumerations):
    model = build_rectangles_model(3, 6)
    moved = orbit(build_rectangles_model(3, 6), 1)
    for m in (model, moved):
        positroid(m)
        base_matching(m)
        for I in ksubsets(6, 3):
            partition_function(m, I)
            flow_polynomial(m, I)
        for rel in three_term_relations(3, 6):
            assert plucker_verify(m, rel)
    assert enumerations[id(model)] == 1
    assert enumerations[id(moved)] == 1


def test_cli_commands_enumerate_once_per_model(listings, capsys):
    whole, per_value = listings
    # xcheck walks three models: the start and two square moves; the commands
    # that walk the positroid build the whole table first and list no single
    # boundary value
    assert cli.main(["xcheck", "rect:3,6", "--mutations", "124,145"]) == 0
    assert cli.main(["verify", "valuation-kappa", "--kn", "2,5"]) == 0
    assert cli.main(["matchings", "rect:2,5"]) == 0
    capsys.readouterr()
    assert set(whole.values()) == {1}
    assert len(whole) == 3 + 3 + 1
    assert not per_value
    whole.clear()
    # one rect:3,6 model serves plucker, valuation-kappa and xflow, and its
    # three square-moved models serve both move suites
    assert cli.main(["verify", "all", "--kn", "3,6"]) == 0
    capsys.readouterr()
    assert set(whole.values()) == {1}
    assert len(whole) == 1 + 3
    assert not per_value
    whole.clear()
    # a one-shot query about I lists the matchings of I and of the base
    # value 456, each once, and enumerates nothing whole
    for cmd in ("flow", "partition", "valuation"):
        assert cli.main([cmd, "rect:3,6", "246"]) == 0
    capsys.readouterr()
    assert not whole
    assert set(per_value.values()) == {1}
    assert sorted(I for _, I in per_value) == [(2, 4, 6), (2, 4, 6), (2, 4, 6),
                                               (4, 5, 6), (4, 5, 6)]


@pytest.mark.parametrize("suite", ["valuation-kappa", "xflow", "all"])
def test_verify_keeps_no_moved_model_past_its_checks(monkeypatch, capsys, suite):
    # when a square move is made, every model moved before it is gone
    made, alive = [], []
    real = plabic.square_move

    def recorded(model, face_label):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        moved = real(model, face_label)
        made.append(weakref.ref(moved))
        return moved

    monkeypatch.setattr(plabic, "square_move", recorded)
    assert cli.main(["verify", suite, "--kn", "3,6"]) == 0
    capsys.readouterr()
    # four faces are tried and three move
    assert len(made) == 3
    assert alive == [0, 0, 0, 0]


# ------------------------------------------------------ laziness and checks


@pytest.fixture
def weighings(monkeypatch):
    """Counts the computations of each face-weight route, by edge mask."""
    calls = {"flow_route": [], "dual_route": []}
    for route, masks in calls.items():
        real = getattr(plabic.FaceGraph, route)

        def counted(graph, mask, real=real, masks=masks):
            masks.append(mask)
            return real(graph, mask)

        monkeypatch.setattr(plabic.FaceGraph, route, counted)
    return calls


def test_weights_are_filled_per_boundary_value(weighings, monkeypatch):
    graphs = []
    real = plabic.FaceGraph

    def counted(*args):
        graphs.append(args[0])
        return real(*args)

    monkeypatch.setattr(plabic, "FaceGraph", counted)
    model = build_rectangles_model(3, 6)
    I = (2, 4, 6)
    partition_function(model, I)
    # a partition function needs no face weights
    assert weighings == {"flow_route": [], "dual_route": []}
    assert graphs == []  # nor the face graph
    flow_polynomial(model, I)
    for masks in weighings.values():
        assert sorted(masks) == sorted(matching_table(model).groups[I])
    flow_polynomial(model, I)
    for masks in weighings.values():
        assert len(masks) == len(matching_table(model).groups[I])
    flow_polynomial(model, (1, 2, 3))
    assert graphs == [model]  # one face graph serves every boundary value


def test_every_matching_is_cross_checked_once(weighings):
    model = build_rectangles_model(3, 6)
    for _ in range(2):
        for I in positroid(model):
            flow_polynomial(model, I)
    for masks in weighings.values():
        assert sorted(masks) == sorted(matching_table(model).masks)


def perturb(monkeypatch, route):
    real = getattr(plabic.FaceGraph, route)

    def off_by_one(graph, mask):
        # one more in every face's field
        return real(graph, mask) + (graph.guards >> graph.width - 1)

    monkeypatch.setattr(plabic.FaceGraph, route, off_by_one)


def test_table_path_still_runs_the_cross_check(monkeypatch):
    perturb(monkeypatch, "dual_route")
    model = build_rectangles_model(2, 5)
    with pytest.raises(ModelInvariantError, match="flow-weight-mismatch"):
        flow_polynomial(model, (2, 4))


def test_table_path_compares_the_flow_route(monkeypatch):
    perturb(monkeypatch, "flow_route")
    model = build_rectangles_model(2, 5)
    with pytest.raises(ModelInvariantError, match="flow-weight-mismatch"):
        flow_polynomial(model, (2, 4))


def test_returned_collections_cannot_corrupt_the_table(monkeypatch):
    handed = []
    real = plabic.matching_masks

    def keep(model):
        out = real(model)
        handed.append(out)
        return out

    monkeypatch.setattr(plabic, "matching_masks", keep)
    model = build_rectangles_model(2, 5)
    I = (2, 4)

    def snapshot():
        return (positroid(model), base_matching(model),
                partition_function(model, I), flow_polynomial(model, I))

    before = snapshot()
    table = matching_table(model)
    handed[0].clear()
    list(plabic.masks_at(model, I)).clear()
    with pytest.raises(TypeError):
        table.groups[I] = ()
    with pytest.raises(TypeError):
        plabic.masks_at(model, I)[0] = 0
    with pytest.raises(TypeError):
        table.masks[0] = 0
    assert snapshot() == before
    assert len(handed) == 1


# ------------------------------------------- the matchings of one boundary value


def square_move_orbit(spec: str, depth: int) -> list:
    """The model ``spec`` names and every model reached from it by up to
    ``depth`` square moves, each saved text once."""
    seen, level = {}, [cli.load_any_model(spec)]
    for d in range(depth + 1):
        nxt = []
        for model in level:
            text = plabic.save_model(model)
            if text not in seen:
                seen[text] = model
                if d < depth:
                    nxt += [moved for _, moved in square_moves(model)]
        level = nxt
    return list(seen.values())


def degree_two_pairs() -> list:
    """rect (3,6) and the shark with a degree-2 pair on each internal edge."""
    return [insert_degree_two_pair(model, e)
            for model in (build_rectangles_model(3, 6), shark_model())
            for e, ends in model.edges.items() if all(kind == "n" for kind, _ in ends)]


@pytest.mark.parametrize("spec", ["shark", "rect:2,5", "rect:3,6", "rect:3,7",
                                  "rect:4,8", "rect:4,9", "degree-two pairs"])
def test_lists_of_one_boundary_value_are_the_table_groups(spec):
    # the base value, read off the gap labels, is the table's lex-max
    models = degree_two_pairs() if spec == "degree-two pairs" else square_move_orbit(spec, 2)
    for model in models:
        table = matching_table(model)
        total = 0
        for I in ksubsets(model.n, model.k):
            masks = plabic.matching_masks(model, I)
            assert masks == list(table.groups.get(I, ()))
            total += len(masks)
        assert total == len(table.masks)
        assert plabic.base_value(model) == max(table.positroid)


def test_masks_at_lists_one_boundary_value_without_the_table():
    model = build_rectangles_model(3, 6)
    I = (2, 4, 6)
    masks = plabic.masks_at(model, I)
    assert masks is plabic.masks_at(model, list(I))  # listed once
    assert analyze(model).kept("matching table") is None
    # the face graph's base matching is the one matching of the base value
    assert plabic.face_graph(model).base == plabic.masks_at(model, (4, 5, 6))[0]
    assert analyze(model).kept("matching table") is None
    assert masks == matching_table(model).groups[I]
    assert plabic.masks_at(model, I) is matching_table(model).groups[I]
    # an unsorted value names no boundary value on either route
    assert plabic.matching_masks(model, (6, 4, 2)) == []
    assert plabic.masks_at(model, (6, 4, 2)) == ()


def test_two_forced_stubs_at_one_node_leave_no_matching():
    # the shark's node B2 holds the stubs at 4 and 5, both anticlockwise, so
    # the value 45 forces both: it lists nothing, and it is the one 2-subset
    # missing from the shark's positroid
    model = shark_model()
    assert {4, 5} <= analyze(model).anticlockwise
    assert plabic.matching_masks(model, (4, 5)) == []
    assert [I for I in ksubsets(5, 2) if I not in positroid(model)] == [(4, 5)]


@pytest.mark.parametrize("spec", ["shark", "rect:2,5", "rect:2,6", "rect:3,6",
                                  "rect:3,7", "rect:4,8"])
def test_the_boundary_sense_decodes_what_it_encodes(spec):
    # for every k-subset I: decoding the stub bits of I gives I back, every
    # matching with value I uses exactly those stubs, and a value outside
    # the positroid (such as the shark's 45) lists no matching
    for model in square_move_orbit(spec, 1):
        fr = plabic._frontier(model)
        stubs = sum(ebit for _, ebit, _ in fr.stubs)
        groups = matching_table(model).groups
        for I in ksubsets(model.n, model.k):
            bits = fr.stub_bits(I)
            assert bits & ~stubs == 0
            assert fr.boundary(bits) == I
            masks = plabic.matching_masks(model, I)
            assert masks == list(groups.get(I, ()))
            assert all(mask & stubs == bits for mask in masks)
        if spec == "shark":
            assert (4, 5) not in groups


def test_a_base_value_off_the_table_is_refused(monkeypatch, capsys):
    # the table's lex-max is checked against the base value where the base
    # matching is taken; the table itself is built as before
    monkeypatch.setattr(plabic, "base_value", lambda model: (1, 2))
    model = build_rectangles_model(2, 5)
    table = matching_table(model)
    assert table.positroid[-1] == (4, 5)
    with pytest.raises(ModelInvariantError) as err:
        plabic.face_graph(model)
    assert err.value.violation == "base-value-mismatch"
    assert str(err.value) == ("base-value-mismatch: the table's lex-max boundary "
                              "value is 45, the gap labels give 12")
    # every verify suite builds its table before its first flow polynomial,
    # so the two routes still meet under verify
    assert cli.main(["verify", "plucker", "--kn", "2,5"]) == 1
    assert capsys.readouterr().out == (
        f"FAIL plucker: rect:2,5: invariant violation: {err.value}\n")


def test_table_path_never_names_matchings(monkeypatch, capsys):
    # the table, its queries and the matchings listing read edge masks only
    def refuse(model):
        raise AssertionError("enumerate_matchings called on the table path")

    monkeypatch.setattr(plabic, "enumerate_matchings", refuse)
    monkeypatch.setattr(charts, "enumerate_matchings", refuse)
    model = build_rectangles_model(3, 6)
    for I in positroid(model):
        partition_function(model, I)
        flow_polynomial(model, I)
    assert cli.main(["matchings", "rect:3,6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 42


# ------------------------------------------- one flow polynomial per (model, I)


def test_face_weights_are_kept_only_as_flow_exponents():
    # after the table, every flow polynomial of rect (4,9) keeps little more
    # than its own term tuples (1.2 times); a second store of the weights,
    # one vector per matching, about doubles that
    model = build_rectangles_model(4, 9)
    table = matching_table(model)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        polys = [flow_polynomial(model, I) for I in table.positroid]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    terms = sum(sys.getsizeof(f.terms) + sum(sys.getsizeof(t) + sys.getsizeof(t[0])
                                             for t in f.terms) for f in polys)
    assert kept <= 1.4 * terms


def test_flow_polynomial_is_built_once_per_boundary_value(monkeypatch):
    built = []
    real = charts._checked_flow_polynomial

    def counted(model, I):
        built.append(I)
        return real(model, I)

    monkeypatch.setattr(charts, "_checked_flow_polynomial", counted)
    models = [build_rectangles_model(3, 6), orbit(build_rectangles_model(3, 6), 1)]
    for model in models:
        for _ in range(2):
            for I in ksubsets(6, 3):
                flow_polynomial(model, I)
            for rel in three_term_relations(3, 6):
                assert plucker_verify(model, rel)
    assert len(built) == len(models) * len(ksubsets(6, 3))
    for model in models:
        I = positroid(model)[0]
        assert flow_polynomial(model, list(I)) is flow_polynomial(model, I)


def test_partition_function_is_built_once_per_boundary_value(monkeypatch):
    built = []
    real = charts._partition_polynomial

    def counted(model, I):
        built.append(I)
        return real(model, I)

    monkeypatch.setattr(charts, "_partition_polynomial", counted)
    models = [build_rectangles_model(3, 6), orbit(build_rectangles_model(3, 6), 1)]
    subsets = list(ksubsets(6, 3))
    for model in models:
        for _ in range(2):
            for I in subsets:
                partition_function(model, I)
            for rel in three_term_relations(3, 6):
                assert plucker_verify(model, rel)
    assert len(built) == len(models) * len(subsets)
    for model in models:
        I = positroid(model)[0]
        assert partition_function(model, list(I)) is partition_function(model, I)


def test_perturbed_weight_raises_on_first_call(monkeypatch):
    real = plabic.masks_at

    def doubled(model, I):  # every coefficient 2, so both extremes fail
        masks = real(model, I)
        return masks + masks

    model = build_rectangles_model(2, 5)
    I = (2, 4)
    # the entry flow polynomials read their matchings through
    monkeypatch.setattr(charts, "masks_at", doubled)
    for _ in range(2):
        with pytest.raises(ModelInvariantError, match="flow-extremes"):
            flow_polynomial(model, I)
    monkeypatch.undo()
    assert flow_polynomial(model, I) == Reference(model).flow(I)
