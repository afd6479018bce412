import random

import pytest
from hypothesis import given, settings, strategies as st

from plabicflow import combinat, seeds
from plabicflow.combinat import format_ksubset, ksubsets
from plabicflow.plabic import (
    ModelInvariantError,
    NotPlabicMutable,
    build_rectangles_model,
    shark_model,
    square_moves,
)
from plabicflow.seeds import (
    NotMutable,
    Quiver,
    Seed,
    beta_matrix,
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
    wt_matrix,
)
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

BETA24 = {
    ("12", "12"): 1, ("12", "13"): -1, ("13", "12"): 1, ("13", "14"): -1,
    ("13", "23"): -1, ("13", "34"): 1, ("14", "12"): -1, ("14", "13"): 1,
    ("14", "14"): 1, ("14", "34"): -1, ("23", "12"): -1, ("23", "13"): 1,
    ("23", "23"): 1, ("23", "34"): -1, ("34", "13"): -1, ("34", "34"): 1,
}


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
    with pytest.raises(NotMutable):
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
    s = rectangles_seed(3, 7)
    built = []
    real = seeds.make_quiver
    monkeypatch.setattr(seeds, "make_quiver", lambda *a: built.append(a) or real(*a))
    for j, _moved in seed_mutations(s):
        built.clear()
        seeds.mutate_labels(s, j)
        assert len(built) == 1


def test_seed_and_mutate_labels():
    s = rectangles_seed(2, 4)
    assert s.labels["13"] == (1, 3)
    s2 = mutate_labels(s, "13")
    assert sorted(s2.labels) == ["12", "14", "23", "24", "34"]
    assert s2.labels["24"] == (2, 4)
    # mutating back restores the original label set
    s3 = mutate_labels(s2, "24")
    assert sorted(s3.labels) == sorted(s.labels)
    with pytest.raises(NotMutable):
        mutate_labels(s, "34")


def test_exchange_label_patterns():
    s = rectangles_seed(2, 5)
    assert exchange_label(s.quiver, s.labels, "13") == (2, 4)
    assert exchange_label(s.quiver, s.labels, "14") == (3, 5)
    # hexagonal vertex of (3,6) has no quadrilateral exchange
    s36 = rectangles_seed(3, 6)
    with pytest.raises(NotPlabicMutable):
        exchange_label(s36.quiver, s36.labels, "145")


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
    assert beta_matrix(s) == BETA24


def test_beta_unbalanced_outside_scope():
    # the shark seed is not reachable from a rectangles seed; its columns
    # do not annihilate the all-ones vector
    s = seed_of_model(shark_model())
    with pytest.raises(ModelInvariantError) as err:
        beta_matrix(s)
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
    assert wt_matrix(Seed(s.k, s.n, s.quiver, same)) == {}
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
    s = rectangles_seed(2, 4)
    wt = wt_matrix(s)
    for u in s.quiver.vertices:
        for v in s.quiver.vertices:
            # wt_matrix stores nonzero entries only
            assert wt.get((v, u), 0) == kappa_vector(s, s.labels[u])[v]


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
    b = beta_matrix(s)
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
    rows = {key: dict(row) for key, row in combinat._MAX_DIAG_ROWS.items()}
    for bad in [(2, 1, 4), (1, 2, 7), (0, 1, 2), (1, 1, 2), (1, 2), (1, 2, 3, 4)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                kappa_vector(s, bad)
    assert {key: dict(row) for key, row in combinat._MAX_DIAG_ROWS.items()} == rows


def mask(J) -> int:
    """The key of J in a MaxDiag row: bit x for each element x."""
    return sum(1 << x for x in J)


def fill(row, I, n, J):
    """Fill the entry of J into the row of (I, n), as a seed does."""
    combinat._fill_max_diag_row(row, I, n, frozenset({mask(J)}), {mask(J): J})


def test_max_diag_row_rejects_bad_subsets_and_labels():
    # rows are keyed by masks and filled from the tuples
    row = combinat._max_diag_row((1, 3), 4)
    fill(row, (1, 3), 4, (2, 4))
    assert row[mask((2, 4))] == 1
    assert combinat._max_diag_row((1, 3), 4) is row
    for _ in range(2):
        with pytest.raises(ValueError):
            combinat._max_diag_row((3, 1), 4)
        for bad in [(1, 2, 3), (1, 5)]:  # another size, out of range
            with pytest.raises(ValueError):
                fill(row, (1, 3), 4, bad)
    assert ((3, 1), 4) not in combinat._MAX_DIAG_ROWS
    assert mask((1, 2, 3)) not in row and mask((1, 5)) not in row


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
    beta = beta_matrix(s)
    colsum = {}
    for (_row, col), c in beta.items():
        colsum[col] = colsum.get(col, 0) + c
    if any(c != 0 for c in colsum.values()):
        return False
    beta_rows = {}
    for (w, v), c in beta.items():
        beta_rows.setdefault(w, []).append((v, c))
    prod = {}
    for (i, w), a in wt_matrix(s).items():
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
    beta = beta_matrix(moved)  # the rows still balance
    colsum = {}
    for (_row, col), c in beta.items():
        colsum[col] = colsum.get(col, 0) + c
    assert {col: c for col, c in colsum.items() if c} == {"15": 1, "23": -1}
    wt = wt_matrix(moved)
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
    """``exact_sequence_checks`` over ``tuple_kappa_column``."""
    q = s.quiver
    cols = seeds._beta_columns(s)
    if any(sum(colmap.values()) for colmap in cols.values()):
        return False
    wt = {v: tuple_kappa_column(s, J) for v, J in zip(q.vertices, s.vertex_labels)}
    m = len(q.vertices)
    for i, v in enumerate(q.vertices):
        if v == q.star:
            continue
        col = [0] * m
        col[i] = 1
        for w, c in cols[v].items():
            col = [a + c * x for a, x in zip(col, wt[w])]
        if any(col):
            return False
    return True


def genexpr_trop_a_mutate(q: Quiver, j: str, v: dict) -> dict:
    """``trop_a_mutate`` with generator sums: its reference route."""
    ins, outs = seeds.neighbours(q, j)
    s_in = sum(mult * v[u] for u, mult in ins.items())
    s_out = sum(mult * v[w] for w, mult in outs.items())
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
    assert all(s._kappa is None for s in walk[1:])  # built on first request
    for s in walk:
        some = subsets if n < 9 else rng.sample(subsets, 20)
        for I in some:
            kv = kappa_vector(s, I)
            assert list(kv) == list(s.quiver.vertices)
            assert tuple(kv.values()) == tuple_kappa_column(s, I)
        assert wt_matrix(s) == tuple_wt_matrix(s)
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
        assert outcome(wt_matrix, swapped) == outcome(tuple_wt_matrix, swapped)
        assert (outcome(exact_sequence_checks, swapped)
                == outcome(tuple_exact_sequence_checks, swapped))


def test_a_bad_label_raises_like_the_tuple_route():
    # (3, 1) has the mask of 13, which the row of 12 holds once a valid seed
    # has asked for it; the mask route must still refuse it, every time,
    # and with the tuple route's message: (3, 1, 2) is unsorted and of
    # another size, and the size is what the tuple route names
    s = rectangles_seed(2, 4)
    kappa_vector(s, (1, 2))
    bads = [(3, 1), (1, 1), (0, 3), (1, 5), (1, 2, 3), (3, 1, 2), (0, 3, 4)]
    cases = [{"13": bad} for bad in bads]
    # two bad labels: the first in vertex order is the one named
    cases += [{"13": (1, 5), "14": (3, 1)}, {"13": (1, 2, 3), "14": (3, 1)},
              {"13": (3, 1), "14": (1, 2, 3)}, {"13": (3, 1, 2), "14": (0, 3)}]
    for case in cases:
        broken = Seed(s.k, s.n, s.quiver, {**s.labels, **case})
        for _ in range(2):
            for I in [(1, 2), (2, 4)]:
                want = outcome(tuple_kappa_column, broken, I)
                assert want[0] == "ValueError"
                assert outcome(kappa_vector, broken, I) == want
            assert outcome(wt_matrix, broken) == outcome(tuple_wt_matrix, broken)
            assert outcome(exact_sequence_checks, broken) == outcome(
                tuple_exact_sequence_checks, broken)
            assert broken._kappa is None


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
    assert {abs(e) for e in beta_matrix(doubled).values()} >= {2}
    assert (outcome(exact_sequence_checks, doubled)
            == outcome(tuple_exact_sequence_checks, doubled) is False)
