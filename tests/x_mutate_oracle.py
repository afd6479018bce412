"""The X-mutation of a whole Laurent polynomial through one generic
``laurent.Substitution``: the reference that ``charts.x_mutate``, the
packed step on flow counts, is checked against."""

from plabicflow.laurent import LaurentPoly, Substitution, lp_add
from plabicflow.plabic import ModelInvariantError
from plabicflow.seeds import Quiver, neighbours


def x_mutate(q: Quiver, j: str, f: LaurentPoly) -> LaurentPoly:
    """Pull a Laurent polynomial on the seed mutated at j back to the seed
    of quiver q.

    The coordinate at the mutated vertex inverts, every other coordinate i
    picks up a factor (1 + x_j)^{b_ij} after clearing the monomial
    x_j^{max(-b_ij, 0)}: one substitution with the exchange binomial
    u = 1 + x_j.  The result lives on ``q.lattice``.
    """
    return x_step(q, j, f.lattice).apply(f)


def x_step(q: Quiver, j: str, incoming: tuple[str, ...]) -> Substitution:
    """The substitution of ``x_mutate`` at j for polynomials on the lattice
    ``incoming``, which must be q's lattice with j renamed: the lattice of
    the seed mutated at j."""
    ins, outs = neighbours(q, j)
    old = q.lattice
    extra = [x for x in incoming if x not in q.vertices]
    missing = [x for x in old if x not in incoming]
    if len(incoming) != len(old) or len(extra) != 1 or missing != [j]:
        raise ModelInvariantError(
            "quiver-fz-mismatch",
            f"lattice {list(incoming)} does not match quiver vertices at {j}",
        )
    images = {}
    for x in incoming:
        if x == extra[0]:
            images[x] = ({j: -1}, 0)
        else:
            bij = ins.get(x, 0) - outs.get(x, 0)
            images[x] = ({x: 1, j: max(-bij, 0)}, bij)
    one_plus_xj = lp_add(LaurentPoly.one(old), LaurentPoly.monomial(old, {j: 1}))
    return Substitution(incoming, images, one_plus_xj)
