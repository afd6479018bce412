"""The Grassmann necklace of a positroid: a test oracle for the gap-face
labels of a model.

The necklace of a collection P of k-subsets of [n] is the sequence of its
minima in the orders <=_1, ..., <=_n, where <=_i is the lexicographic order
of [n] restarted at i.  On a reduced plabic model, the gap face between
stubs l and l + 1 carries the necklace's (l + 1)-th entry of the model's
positroid; ``tests/test_matching_table.py`` holds every model of its walk
to that.
"""

from __future__ import annotations

from plabicflow.combinat import KSubset


def shifted_key(I: KSubset, i: int, n: int) -> tuple[int, ...]:
    """Sort key for the <=_i order: lex order of [n] restarted at i."""
    return tuple(sorted((x - i) % n for x in I))


def necklace_of_positroid(P, n: int) -> tuple[KSubset, ...]:
    """The sequence of <=_i-minima of a nonempty collection of k-subsets."""
    P = [tuple(I) for I in P]
    if not P:
        raise ValueError("empty collection has no necklace")
    return tuple(min(P, key=lambda I: shifted_key(I, i, n)) for i in range(1, n + 1))
