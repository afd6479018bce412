from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from plabicflow.combinat import (
    _mask,
    _separated,
    check_ksubset,
    crossing_pair,
    crossing_partner,
    cyclic_interval,
    format_ksubset,
    ksubsets,
    max_diag,
    parse_ksubset,
    rectangle_label,
)
from plabicflow.seeds import Seed, rectangles_seed


def young_of(I, n: int) -> tuple[int, ...]:
    """Partition lambda with lambda_t = i_{k+1-t} - (k+1-t), inside k x (n-k):
    the Young diagram of a k-subset, for the cell-set oracle."""
    I = check_ksubset(tuple(I), n)
    k = len(I)
    parts = tuple(I[k - t] - (k + 1 - t) for t in range(1, k + 1))
    assert all(0 <= p <= n - k for p in parts), f"profile of {I} escapes box"
    assert all(parts[t] >= parts[t + 1] for t in range(k - 1))
    return parts


def young_cells(parts) -> set[tuple[int, int]]:
    """Cells (row, col), 1-indexed, of a partition."""
    return {(r, c) for r, lam in enumerate(parts, 1) for c in range(1, lam + 1)}


def cell_set_max_diag(J, I, n: int) -> int:
    """Reference MaxDiag: count the cells of the set difference of the two
    Young diagrams per diagonal."""
    counts: dict[int, int] = {}
    for r, c in young_cells(young_of(J, n)) - young_cells(young_of(I, n)):
        counts[c - r] = counts.get(c - r, 0) + 1
    return max(counts.values(), default=0)


def test_ksubsets_order_and_count():
    subs = ksubsets(4, 2)
    assert subs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert len(ksubsets(9, 4)) == 126


def test_check_ksubset_rejects():
    with pytest.raises(ValueError):
        check_ksubset((0, 2), 4)
    with pytest.raises(ValueError):
        check_ksubset((2, 5), 4)
    with pytest.raises(ValueError):
        check_ksubset((2, 2), 4)


def test_parse_format():
    assert parse_ksubset("25", 5) == (2, 5)
    assert parse_ksubset("1,4,10", 12) == (1, 4, 10)
    assert format_ksubset((2, 5), 5) == "25"
    assert format_ksubset((1, 4, 10), 12) == "1,4,10"
    with pytest.raises(ValueError):
        parse_ksubset("99", 9)
    for text in ("1,,2,3", "1,2,", ",1,2", "1, ,2"):
        with pytest.raises(ValueError, match="empty element"):
            parse_ksubset(text, 12)


@given(st.integers(2, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), min_size=1))))
def test_parse_format_roundtrip(tn):
    n, s = tn
    I = tuple(sorted(s))
    assert parse_ksubset(format_ksubset(I, n), n) == I


def test_cyclic_interval():
    assert cyclic_interval(2, 4, 5) == [2, 3, 4]
    assert cyclic_interval(4, 2, 5) == [4, 5, 1, 2]
    assert cyclic_interval(3, 3, 5) == [3]


def word_weakly_separated(I, J, n: int) -> bool:
    """Reference weak separation by the cyclic membership word: write S for
    each element of I \\ J and T for each of J \\ I in the order 1..n; the
    pair is separated iff the word has at most two maximal blocks, the first
    and last block merging cyclically.  The rule that ``combinat._separated``
    replaced."""
    if len(I) != len(J):
        raise ValueError(f"size mismatch: |{I}| != |{J}|")
    S = set(I) - set(J)
    T = set(J) - set(I)
    word = ["S" if x in S else "T" for x in range(1, n + 1) if x in S or x in T]
    if not word:
        return True
    blocks = 1 + sum(a != b for a, b in zip(word, word[1:]))
    if word[0] == word[-1] and blocks > 1:
        blocks -= 1
    return blocks <= 2


def mask_weakly_separated(I, J) -> bool:
    return _separated(_mask(I), _mask(J))


@given(st.integers(3, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.integers(1, n), min_size=2, max_size=n - 1),
    st.sets(st.integers(1, n), min_size=2, max_size=n - 1),
)))
def test_weak_separation_symmetric(args):
    n, A, B = args
    k = min(len(A), len(B))
    I, J = tuple(sorted(A)[:k]), tuple(sorted(B)[:k])
    assert mask_weakly_separated(I, J) == mask_weakly_separated(J, I)


def test_weak_separation_examples():
    # 13 and 24 cross on the 4-cycle; 13 and 14 do not
    assert not mask_weakly_separated((1, 3), (2, 4))
    assert mask_weakly_separated((1, 3), (1, 4))
    masks = lambda coll: [_mask(I) for I in coll]
    assert crossing_pair(masks([(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])) is None
    assert crossing_pair(masks([(1, 3), (2, 4)])) == (0, 1)
    # the indices of the first crossing pair in combinations order
    assert crossing_pair(masks([(1, 2), (2, 4), (1, 4), (1, 3), (3, 5)])) == (1, 3)
    assert crossing_pair([]) is None and crossing_pair(masks([(1, 2)])) is None


def test_weakly_separated_from_tests_each_member():
    coll = [_mask(J) for J in [(1, 2), (1, 4), (2, 3), (3, 4)]]
    assert crossing_partner(_mask((1, 3)), coll) is None
    assert crossing_partner(_mask((2, 4)), coll + [_mask((1, 3))]) == 4
    assert crossing_partner(_mask((2, 4)), [_mask((1, 3))] * 2) == 0
    assert crossing_partner(_mask((2, 4)), []) is None
    for I in ksubsets(6, 3):
        for J in ksubsets(6, 3):
            want = None if word_weakly_separated(I, J, 6) else 0
            assert crossing_partner(_mask(I), [_mask(J)]) == want


def crossing_weakly_separated(I, J, n: int) -> bool:
    """Reference weak separation: no cyclic crossing a < b < c < d with
    a, c on one side of I \\ J, J \\ I and b, d on the other."""
    S, T = set(I) - set(J), set(J) - set(I)
    for a, b, c, d in combinations(range(1, n + 1), 4):
        for X, Y in ((S, T), (T, S)):
            if a in X and c in X and b in Y and d in Y:
                return False
    return True


def test_weak_separation_equals_crossings_exhaustive():
    # every pair of k-subsets with n <= 8, by the word rule and the mask rule
    pairs = 0
    for n in range(9):
        for k in range(n + 1):
            subs = ksubsets(n, k)
            for I in subs:
                for J in subs:
                    want = crossing_weakly_separated(I, J, n)
                    assert word_weakly_separated(I, J, n) is want, (I, J, n)
                    assert mask_weakly_separated(I, J) is want, (I, J, n)
                    pairs += 1
    assert pairs == 17577


def test_mask_rule_equals_word_rule_exhaustive():
    # every pair of distinct k-subsets with n <= 10, both ways round
    pairs = 0
    for n in range(11):
        for k in range(n + 1):
            subs = ksubsets(n, k)
            for I, J in combinations(subs, 2):
                want = word_weakly_separated(I, J, n)
                a, b = _mask(I), _mask(J)
                assert _separated(a, b) is _separated(b, a) is want, (I, J, n)
                pairs += 1
    assert pairs == 124453


@given(st.integers(2, 44).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(1, n - 1).flatmap(lambda k: st.tuples(
        st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True),
        st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))),
)))
def test_mask_rule_equals_word_rule_on_random_pairs(args):
    n, (A, B) = args
    I, J = tuple(sorted(A)), tuple(sorted(B))
    assert mask_weakly_separated(I, J) is word_weakly_separated(I, J, n)
    assert (crossing_pair([_mask(I), _mask(J)]) is None) is word_weakly_separated(I, J, n)


def test_weak_separation_bad_input_on_every_call():
    # a label of another size never reaches weak separation: the seed that
    # would hold it refuses it where it is made, on every call; the mask
    # routes keep nothing, so they answer alike on every call
    s = rectangles_seed(2, 4)
    for _ in range(3):
        with pytest.raises(ValueError, match="not a strictly increasing 2-subset"):
            Seed(s.k, s.n, s.quiver, {**s.labels, "13": (1, 2, 3)})
        with pytest.raises(ValueError, match="not a strictly increasing 2-subset"):
            Seed(s.k, s.n, s.quiver, {**s.labels, "14": [1]})
        assert crossing_pair(map(_mask, [[1, 2], [1, 3], (1, 4)])) is None
        assert crossing_pair(map(_mask, [[1, 3], [2, 4]])) == (0, 1)
        assert crossing_partner(_mask((1, 3)), map(_mask, [(3, 4), [2, 4]])) == 1


def test_young_roundtrip_and_cells():
    # partition shape of a k-subset inside the k x (n-k) box: the first
    # window [1,k] is the empty shape, the last window the full box
    assert young_of((1, 2), 4) == (0, 0)
    assert young_of((3, 4), 4) == (2, 2)
    assert young_of((1, 4, 5, 7), 9) == (3, 2, 2, 0)
    shapes = {young_of(I, 6) for I in ksubsets(6, 3)}
    assert len(shapes) == len(list(ksubsets(6, 3)))
    assert young_cells((2, 1)) == {(1, 1), (1, 2), (2, 1)}


def test_max_diag_values():
    # number of cells on the longest diagonal of the skew shape of J over I
    assert max_diag((1, 2), (1, 2), 4) == 0
    assert max_diag((3, 4), (1, 2), 4) == 2
    assert max_diag((3, 4), (1, 3), 4) == 1
    assert max_diag((2, 3), (1, 2), 4) == 1
    assert max_diag((1, 2), (3, 4), 4) == 0  # contained shape
    # full box over the shape of 1457 in the 4x5 grid
    assert max_diag((6, 7, 8, 9), (1, 4, 5, 7), 9) == 3


def test_max_diag_rejects_bad_input():
    with pytest.raises(ValueError):
        max_diag((1, 2), (1, 2, 3), 4)
    # a bad subset raises on every call, not only the first
    for _ in range(2):
        with pytest.raises(ValueError):
            max_diag((2, 1), (1, 2), 4)
        with pytest.raises(ValueError):
            max_diag((1, 2), (1, 5), 4)


def test_max_diag_accepts_lists_on_every_call():
    # list arguments are read like tuples; repeated calls agree
    for n in range(8):
        for k in range(n + 1):
            subs = ksubsets(n, k)
            for J in subs:
                for I in subs:
                    want = cell_set_max_diag(J, I, n)
                    assert max_diag(list(J), list(I), n) == want, (J, I, n)
                    assert max_diag(list(J), I, n) == want
    for _ in range(2):
        with pytest.raises(ValueError):
            max_diag([1, 2], [1, 2, 3], 4)
        with pytest.raises(ValueError):
            max_diag([2, 1], [1, 2], 4)


def test_max_diag_equals_cell_sets_exhaustive():
    # every pair of k-subsets, contained shapes and k = 0, n included
    pairs = 0
    for n in range(9):
        for k in range(n + 1):
            subs = ksubsets(n, k)
            for J in subs:
                for I in subs:
                    assert max_diag(J, I, n) == cell_set_max_diag(J, I, n), (J, I, n)
                    pairs += 1
    assert pairs == 17577


# n up to 80, so that a label's bitmask (bit x for element x) passes 64 bits
@given(st.integers(2, 80).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n - 1))).flatmap(lambda nk: st.tuples(
        st.just(nk[0]),
        st.sets(st.integers(1, nk[0]), min_size=nk[1], max_size=nk[1]),
        st.sets(st.integers(1, nk[0]), min_size=nk[1], max_size=nk[1]),
)))
def test_max_diag_zero_iff_contained(args):
    n, A, B = args
    J, I = tuple(sorted(A)), tuple(sorted(B))
    contained = young_cells(young_of(J, n)) <= young_cells(young_of(I, n))
    got = max_diag(J, I, n)
    assert (got == 0) == contained
    assert got == cell_set_max_diag(J, I, n)


def test_rectangle_label():
    assert rectangle_label(2, 4, 1, 1) == (1, 3)
    assert rectangle_label(2, 4, 2, 2) == (3, 4)
    assert rectangle_label(3, 7, 2, 3) == (1, 5, 6)
    assert rectangle_label(4, 9, 4, 5) == (6, 7, 8, 9)
    # the (k, n-k) corner is always the last k window
    for k, n in [(2, 5), (3, 6), (4, 9)]:
        assert rectangle_label(k, n, k, n - k) == tuple(range(n - k + 1, n + 1))
