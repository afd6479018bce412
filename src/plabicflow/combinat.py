"""Cyclic-set combinatorics: k-subsets, weak separation, necklaces, Young diagrams.

A k-subset of [n] = {1, ..., n} is represented as a sorted tuple of ints.
Textual form is a digit string like "1457" when n <= 9, otherwise a comma
list like "1,4,10".  The ambient n is always carried alongside, never
inferred from the largest element.

Labels are ordered as tuples (subset order), never as their textual
forms: "1,3,4" precedes "1,3,10".  The order is applied where names are
first made from subsets -- ``plabic.analyze`` (the face lattice),
``seeds.seed_of_model`` and ``seeds.mutate_labels`` (quiver vertices)
-- and everything downstream takes its order from ``Analysis.lattice``
or ``Quiver.vertices``.  For n <= 9 the two orders agree.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from operator import sub

KSubset = tuple[int, ...]


def check_ksubset(I: KSubset, n: int) -> KSubset:
    I = tuple(I)
    if len(set(I)) != len(I):
        raise ValueError(f"duplicate elements in {I}")
    if tuple(sorted(I)) != I:
        raise ValueError(f"k-subset must be sorted: {I}")
    if I and not (1 <= I[0] and I[-1] <= n):
        raise ValueError(f"elements of {I} out of range 1..{n}")
    return I


def parse_ksubset(text: str, n: int) -> KSubset:
    """Parse "1457" (single digits) or "1,4,5,7" into a k-subset of [n].

    >>> parse_ksubset("25", 5)
    (2, 5)
    >>> parse_ksubset("1,4,10", 12)
    (1, 4, 10)
    """
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if "" in parts:
            raise ValueError(f"empty element in k-subset {text!r}")
        elems = [int(p) for p in parts]
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse k-subset {text!r}")
        # digit strings only make sense for n <= 9; past that a bare number
        # is a single element (matching format_ksubset)
        elems = [int(ch) for ch in text] if n <= 9 else [int(text)]
    I = tuple(sorted(elems))
    if len(set(I)) != len(I):
        raise ValueError(f"duplicate elements in {text!r}")
    return check_ksubset(I, n)


def format_ksubset(I: KSubset, n: int) -> str:
    """Inverse of parse_ksubset; digit string iff n <= 9.

    >>> format_ksubset((2, 5), 5)
    '25'
    """
    if n <= 9:
        return "".join(str(i) for i in I)
    return ",".join(str(i) for i in I)


def ksubsets(n: int, k: int) -> list[KSubset]:
    """All k-subsets of [n] in lexicographic order."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return [tuple(c) for c in combinations(range(1, n + 1), k)]


def cyclic_interval(a: int, b: int, n: int) -> list[int]:
    """The closed cyclic interval [a, b] in [n], walking forward from a.

    >>> cyclic_interval(4, 1, 5)
    [4, 5, 1]
    """
    out = [a]
    x = a
    while x != b:
        x = x % n + 1
        out.append(x)
        if len(out) > n:
            raise ValueError(f"bad cyclic interval [{a},{b}] in [{n}]")
    return out


def weakly_separated(I: KSubset, J: KSubset, n: int) -> bool:
    """True iff I \\ J and J \\ I occupy disjoint arcs of the cyclic order.

    Equivalently: no cyclic pattern a < b < c < d with a, c in I \\ J and
    b, d in J \\ I.  Implemented by counting maximal blocks of the cyclic
    membership word: separated iff there are at most two blocks.

    Any sequences are accepted; they are made tuples and the answer is
    memoised by the pair (``_weakly_separated``), at most C(n,k)^2 entries
    per (k, n).  A size mismatch raises ValueError on every call.
    """
    return _weakly_separated(tuple(I), tuple(J), n)


@lru_cache(maxsize=None)
def _weakly_separated(I: KSubset, J: KSubset, n: int) -> bool:
    """``weakly_separated`` on tuples; exceptions are not cached."""
    if len(I) != len(J):
        raise ValueError(f"size mismatch: |{I}| != |{J}|")
    S = set(I) - set(J)
    T = set(J) - set(I)
    word = []
    for x in range(1, n + 1):
        if x in S:
            word.append("S")
        elif x in T:
            word.append("T")
    if not word:
        return True
    blocks = 1
    for i in range(1, len(word)):
        if word[i] != word[i - 1]:
            blocks += 1
    if word[0] == word[-1] and blocks > 1:
        blocks -= 1  # first and last block merge cyclically
    return blocks <= 2


def pairwise_weakly_separated(coll, n: int) -> bool:
    coll = [tuple(I) for I in coll]
    return all(
        _weakly_separated(I, J, n) for I, J in combinations(coll, 2)
    )


def shifted_key(I: KSubset, i: int, n: int) -> tuple[int, ...]:
    """Sort key for the <=_i order: lex order of [n] restarted at i."""
    return tuple(sorted((x - i) % n for x in I))


def necklace_of_positroid(P, n: int) -> tuple[KSubset, ...]:
    """The sequence of <=_i-minima of a nonempty collection of k-subsets."""
    P = [tuple(I) for I in P]
    if not P:
        raise ValueError("empty collection has no necklace")
    return tuple(min(P, key=lambda I: shifted_key(I, i, n)) for i in range(1, n + 1))


def young_of(I: KSubset, n: int) -> tuple[int, ...]:
    """Partition lambda with lambda_t = i_{k+1-t} - (k+1-t), inside k x (n-k).

    >>> young_of((1, 4, 5, 7), 9)
    (3, 2, 2, 0)
    >>> young_of((1, 2), 4)
    (0, 0)
    """
    I = check_ksubset(tuple(I), n)
    k = len(I)
    parts = tuple(I[k - t] - (k + 1 - t) for t in range(1, k + 1))
    assert all(0 <= p <= n - k for p in parts), f"profile of {I} escapes box"
    assert all(parts[t] >= parts[t + 1] for t in range(k - 1))
    return parts


@lru_cache(maxsize=None)
def _diag_counts(I: KSubset, n: int) -> tuple[int, ...]:
    """Cell count of lambda_I on each diagonal d = col - row, d = 1-k .. n-k-1."""
    parts = young_of(I, n)
    k = len(parts)
    return tuple(
        sum(1 for r in range(max(1, 1 - d), k + 1) if parts[r - 1] - r >= d)
        for d in range(1 - k, n - k)
    )


def max_diag(J: KSubset, I: KSubset, n: int) -> int:
    """Maximal number of cells on one diagonal of lambda_J minus lambda_I.

    The difference is taken as a plain cell-set difference; diagonals are
    indexed by d = col - row.  Closed form: the cells of a partition lambda
    on diagonal d are the rows r >= max(1, 1-d) with lambda_r - r >= d, and
    lambda_r - r strictly decreases in r, so for every lambda they are an
    initial run of the same ray of rows.  Hence lambda_J minus lambda_I has
    exactly max(0, c_J(d) - c_I(d)) cells on diagonal d, where c counts the
    cells of one shape on d, and the answer is the largest of these.

    Any sequences are accepted.  This computes one pair and keeps nothing;
    the memo of tables over many pairs is ``_max_diag_row``, keyed by the
    bitmask of J.  A size mismatch or a bad subset raises ValueError.

    >>> max_diag((2, 4), (1, 3), 4)
    1
    >>> max_diag((1, 3), (2, 4), 4)
    0
    """
    J, I = tuple(J), tuple(I)
    if len(J) != len(I):
        raise ValueError(f"size mismatch: |{J}| != |{I}|")
    return max((0, *map(sub, _diag_counts(J, n), _diag_counts(I, n))))


# (I, n) -> its row, a dict from the bitmask of a k-subset J (bit x for
# element x) to max_diag(J, I, n); the one memo of MaxDiag, at most
# C(n,k)^2 entries per (k, n) in all
_MAX_DIAG_ROWS: dict[tuple[KSubset, int], dict[int, int]] = {}


def _max_diag_row(I: KSubset, n: int) -> dict[int, int]:
    """The memoised row of I: a dict from the bitmask of a k-subset J (bit x
    for element x) to max_diag(J, I, n), shared by every caller.  A caller
    reads a whole column of J's with one ``operator.itemgetter`` over their
    masks; a miss raises KeyError, and ``_fill_max_diag_row`` adds the
    missing entries.

    I must be a tuple.  A bad I raises ValueError on every call and leaves
    no row behind.  The row is the package's to fill: read it only.
    """
    row = _MAX_DIAG_ROWS.get((I, n))
    if row is None:
        check_ksubset(I, n)
        row = _MAX_DIAG_ROWS[(I, n)] = {}
    return row


def _fill_max_diag_row(row: dict[int, int], I: KSubset, n: int,
                       masks: frozenset[int],
                       label_of: Mapping[int, KSubset]) -> None:
    """Add to ``row``, the row of (I, n), the entry of every mask in
    ``masks`` that it lacks.  The entry is ``max_diag`` of the tuple J that
    ``label_of`` gives for the mask, so no mask is decoded.  A bad J, or a
    J of another size, raises ValueError before its entry is made, so every
    key of a row is the mask of a valid k-subset of [n]."""
    for mask in masks.difference(row):
        row[mask] = max_diag(label_of[mask], I, n)


def lex_max(P) -> KSubset:
    """Lexicographic maximum of a collection of sorted tuples."""
    P = [tuple(I) for I in P]
    if not P:
        raise ValueError("empty collection")
    return max(P)


def rectangle_label(k: int, n: int, i: int, j: int) -> KSubset:
    """The k-subset K_{ij} = [1, k-i] u [k-i+j+1, k+j] for a grid position.

    Row i runs 1..k, column j runs 1..n-k; (i, j) = (0, *) or (*, 0) gives
    the base subset [1, k].

    >>> rectangle_label(2, 4, 1, 1)
    (1, 3)
    >>> rectangle_label(3, 7, 2, 3)
    (1, 5, 6)
    """
    if i == 0 or j == 0:
        return tuple(range(1, k + 1))
    if not (1 <= i <= k and 1 <= j <= n - k):
        raise ValueError(f"grid position ({i},{j}) outside {k}x{n - k}")
    head = tuple(range(1, k - i + 1))
    tail = tuple(range(k - i + j + 1, k + j + 1))
    return head + tail
