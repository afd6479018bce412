"""Cyclic-set combinatorics: k-subsets, weak separation, MaxDiag.

A k-subset of [n] = {1, ..., n} is represented as a sorted tuple of ints.
Textual form is a digit string like "1457" when n <= 9, otherwise a comma
list like "1,4,10".  The ambient n is always carried alongside, never
inferred from the largest element.

Weak separation and MaxDiag read a subset as a bitmask, bit x for element
x (``_mask``); a seed makes its labels' masks once, where it is made
(``seeds.Seed.masks``).  MaxDiag of two Young diagrams is one walk over
the symmetric difference of their labels (``max_diag``).  Nothing here
memoises: the kappa rows over many label pairs live in ``seeds``.

Labels are ordered as tuples (subset order), never as their textual
forms: "1,3,4" precedes "1,3,10".  The order is applied where names are
first made from subsets -- ``plabic.analyze`` (the face lattice),
``seeds.seed_of_model`` and ``seeds.mutate_labels`` (quiver vertices)
-- and everything downstream takes its order from ``Analysis.lattice``
or ``Quiver.vertices``.  For n <= 9 the two orders agree.
"""

from __future__ import annotations

from itertools import combinations

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


def _mask(I: KSubset) -> int:
    """The bitmask of a subset: bit x for each element x."""
    mask = 0
    for x in I:
        mask |= 1 << x
    return mask


def _separated(a: int, b: int) -> bool:
    """Weak separation of two labels of one size, given as bitmasks:
    S = a \\ b and T = b \\ a occupy disjoint arcs of the cyclic order.
    Read linearly, no element of T lies between the least and greatest
    elements of S, or none of S between those of T.  The run of bits from
    the lowest to the highest bit of v is (1 << v.bit_length()) - (v & -v)."""
    s = a & ~b
    t = b & ~a
    return (not (t & ((1 << s.bit_length()) - (s & -s)))
            or not (s & ((1 << t.bit_length()) - (t & -t))))


def crossing_pair(masks) -> tuple[int, int] | None:
    """The indices of the first pair of ``masks``, labels of one size as
    bitmasks, in ``itertools.combinations`` order, that is not weakly
    separated; None when every pair is."""
    for (i, a), (j, b) in combinations(enumerate(masks), 2):
        if not _separated(a, b):
            return i, j
    return None


def crossing_partner(mask: int, masks) -> int | None:
    """The index of the first member of ``masks`` that is not weakly
    separated from ``mask``, all labels of one size as bitmasks; None when
    every member is."""
    for i, b in enumerate(masks):
        if not _separated(mask, b):
            return i
    return None


def _max_diag_masks(j: int, i: int) -> int:
    """``max_diag`` of two labels of one size given as bitmasks (bit x for
    element x), J's first: the high point, floored at 0, of the walk over
    I delta J in increasing order that steps +1 at each element of I and -1
    at each element of J.  Keeps nothing; the labels are not checked."""
    top = height = 0
    rest = i ^ j
    while rest:
        low = rest & -rest
        rest ^= low
        if i & low:
            height += 1
            if height > top:
                top = height
        else:
            height -= 1
    return top


def max_diag(J: KSubset, I: KSubset, n: int) -> int:
    """Maximal number of cells on one diagonal of lambda_J minus lambda_I,
    a plain cell-set difference with diagonals d = col - row, where lambda_I
    has parts lambda_t = i_{k+1-t} - (k+1-t) inside the k x (n-k) box.

    On lattice paths it is one walk (``_max_diag_masks``):
    max(0, max over 1 <= m < n of |I & [1,m]| - |J & [1,m]|).  Proof: for
    s = k + 1 - r, lambda_r - r = i_s - k - 1, so row r meets diagonal
    d = m - k exactly when s <= min(k, m) and i_s > m; these rows are an
    initial run, c_I(d) = min(k, m) - |I & [1,m]| of them, so lambda_J minus
    lambda_I has max(0, |I & [1,m]| - |J & [1,m]|) cells on d.

    Any sequences are accepted, and nothing is kept.  A size mismatch, then
    a bad J, then a bad I raises ValueError.

    >>> max_diag((2, 4), (1, 3), 4)
    1
    >>> max_diag((1, 3), (2, 4), 4)
    0
    """
    J, I = tuple(J), tuple(I)
    if len(J) != len(I):
        raise ValueError(f"size mismatch: |{J}| != |{I}|")
    return _max_diag_masks(_mask(check_ksubset(J, n)), _mask(check_ksubset(I, n)))


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
