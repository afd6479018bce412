"""The dense three-term Plücker check, the oracle of the packed one
(``charts.plucker_verify``): the coordinates of each chart are the
``LaurentPoly`` views ``partition_function`` and ``flow_polynomial``, and
the products are ``lp_mul``."""

from plabicflow.charts import flow_polynomial, partition_function
from plabicflow.laurent import lp_add, lp_equal, lp_mul


def _with(S, x, y):
    return tuple(sorted(set(S) | {x, y}))


def plucker_verify(model, rel) -> bool:
    """D(Sac) D(Sbd) = D(Sab) D(Scd) + D(Sad) D(Sbc) on (a, b, c, d, S),
    in the edge chart, then the face chart; subsets outside the positroid
    contribute zero."""
    a, b, c, d, S = rel
    for coord in (partition_function, flow_polynomial):
        ac, bd = coord(model, _with(S, a, c)), coord(model, _with(S, b, d))
        ab, cd = coord(model, _with(S, a, b)), coord(model, _with(S, c, d))
        ad, bc = coord(model, _with(S, a, d)), coord(model, _with(S, b, c))
        lhs = lp_mul(ac, bd)
        rhs = lp_add(lp_mul(ab, cd), lp_mul(ad, bc))
        if not lp_equal(lhs, rhs):
            return False
    return True
