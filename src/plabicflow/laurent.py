"""Labelled integer lattices and exact Laurent-polynomial arithmetic.

A lattice is an ordered tuple of distinct string labels.  Vectors and
polynomial exponents are stored densely as int tuples aligned with the
label order.  Coefficients are plain Python ints, so everything is exact.

JSON wire format for a polynomial:

    {"lattice": [labels...],
     "terms": [{"coeff": int, "exp": {label: int, ...}}, ...]}

with zero exponents omitted from each "exp" map.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from operator import add, itemgetter, sub


class NotLaurent(ArithmeticError):
    """Division or substitution result is not a Laurent polynomial."""


Exponent = tuple[int, ...]


def check_lattice(labels) -> tuple[str, ...]:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"lattice labels not distinct: {labels}")
    return labels


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial over a labelled lattice."""

    lattice: tuple[str, ...]
    terms: tuple[tuple[Exponent, int], ...]  # sorted by exponent, no zeros

    @staticmethod
    def make(lattice, term_map: dict[Exponent, int]) -> "LaurentPoly":
        lattice = check_lattice(lattice)
        f = _checked(lattice, term_map)
        for e, _ in f.terms:
            if len(e) != len(lattice):
                raise ValueError(f"exponent {e} does not fit lattice {lattice}")
        return f

    @staticmethod
    def zero(lattice) -> "LaurentPoly":
        return LaurentPoly.make(lattice, {})

    @staticmethod
    def monomial(lattice, exp: Mapping[str, int], coeff: int = 1) -> "LaurentPoly":
        lattice = check_lattice(lattice)
        unknown = set(exp) - set(lattice)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in lattice")
        key = tuple(exp.get(lab, 0) for lab in lattice)
        return _checked(lattice, {key: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def num_terms(self) -> int:
        return len(self.terms)

    def to_json_obj(self) -> dict:
        return {
            "lattice": list(self.lattice),
            "terms": [
                {"coeff": c, "exp": {lab: x for lab, x in zip(self.lattice, e) if x}}
                for e, c in self.terms
            ],
        }

    def pretty(self, var_prefix: str = "y") -> str:
        """Human form; factors out the coordinatewise-min monomial.

        >>> L = ("24", "34")
        >>> f = lp_add(LaurentPoly.monomial(L, {"34": 1}),
        ...            LaurentPoly.monomial(L, {"24": 1, "34": 1}))
        >>> f.pretty()
        'y34*(1+y24)'
        """
        if self.is_zero():
            return "0"
        gcd_exp = _coordinatewise_min([e for e, _ in self.terms])
        rest = _checked(
            self.lattice, {tuple(map(sub, e, gcd_exp)): c for e, c in self.terms}
        )
        mono = _pretty_monomial(self.lattice, gcd_exp, var_prefix)
        body = "+".join(
            _pretty_term(self.lattice, e, c, var_prefix) for e, c in rest.terms
        ).replace("+-", "-")
        if any(gcd_exp):
            if rest.is_monomial() and rest.terms[0][0] == (0,) * len(self.lattice):
                c = rest.terms[0][1]
                if c == 1:
                    return mono
                return f"-{mono}" if c == -1 else f"{c}*{mono}"
            return f"{mono}*({body})"
        return body


def _checked(lattice: tuple[str, ...], term_map: dict[Exponent, int]) -> LaurentPoly:
    """``make`` without its checks, for results built from checked operands:
    the lattice is one already checked and every exponent already has its
    length."""
    return LaurentPoly(lattice, tuple((e, c) for e, c in sorted(term_map.items()) if c))


def _pretty_monomial(lattice, exp, var_prefix) -> str:
    parts = []
    for lab, e in zip(lattice, exp):
        if e == 0:
            continue
        name = lab if lab == "q" else f"{var_prefix}{lab}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _pretty_term(lattice, exp, coeff, var_prefix) -> str:
    mono = _pretty_monomial(lattice, exp, var_prefix)
    if coeff == 1:
        return mono
    if mono == "1":
        return str(coeff)
    if coeff == -1:
        return f"-{mono}"
    return f"{coeff}*{mono}"


def _require_same_lattice(f: LaurentPoly, g: LaurentPoly):
    if f.lattice != g.lattice:
        raise ValueError(f"lattice mismatch: {f.lattice} vs {g.lattice}")


def lp_add(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    _require_same_lattice(f, g)
    out = dict(f.terms)
    for e, c in g.terms:
        out[e] = out.get(e, 0) + c
    return _checked(f.lattice, out)


def lp_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    _require_same_lattice(f, g)
    out: dict[Exponent, int] = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _checked(f.lattice, out)


def lp_equal(f: LaurentPoly, g: LaurentPoly) -> bool:
    _require_same_lattice(f, g)
    return f.terms == g.terms


def _coordinatewise_min(exps: list[Exponent]) -> Exponent:
    """The coordinatewise minimum of a nonempty list of exponents, in one
    pass over the coordinates."""
    return tuple(map(min, *exps)) if len(exps) > 1 else exps[0]


def lp_exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/g, or NotLaurent.

    Both operands are shifted to plain-polynomial support (their
    coordinatewise-min exponents factored off; lowest graded parts are
    multiplicative in a domain, so an exact Laurent quotient exists iff the
    shifted polynomial quotient does).  Then leading-term division under the
    lex order, which terminates because lex well-orders N^d.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    _require_same_lattice(f, g)
    if f.is_zero():
        return f
    fmin = _coordinatewise_min([e for e, _ in f.terms])
    gmin = _coordinatewise_min([e for e, _ in g.terms])
    shift = tuple(map(sub, fmin, gmin))
    rem = {tuple(map(sub, e, fmin)): c for e, c in f.terms}
    div = {tuple(map(sub, e, gmin)): c for e, c in g.terms}
    glead = max(div)
    gc = div[glead]
    quot: dict[Exponent, int] = {}
    while rem:
        flead = max(rem)
        fc = rem[flead]
        qe = tuple(map(sub, flead, glead))
        if min(qe, default=0) < 0 or fc % gc != 0:
            raise NotLaurent("division is not exact")
        qc = fc // gc
        quot[qe] = qc
        for e, c in div.items():
            key = tuple(map(add, qe, e))
            nc = rem.get(key, 0) - qc * c
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
    return _checked(f.lattice, {tuple(map(add, e, shift)): c for e, c in quot.items()})


# rows of Pascal's triangle, grown by _pascal_row
_PASCAL = [(1,)]


def _pascal_row(E: int) -> tuple[int, ...]:
    """The coefficients of (1 + y)^E, E >= 0, each row made from the one
    before on first use: the expansion of a term along its chain in the
    packed exchange steps (``charts.x_mutate``, ``superpot.a_mutate_w``)."""
    rows = _PASCAL
    while len(rows) <= E:
        last = rows[-1]
        rows.append((1, *map(add, last[:-1], last[1:]), 1))
    return rows[E]


def _divide_chain(low: dict[int, int], D: int) -> dict[int, int]:
    """low / (1 + y)^D for a Laurent polynomial in one variable y, given as
    exponent -> coefficient: D divisions by 1 + y from the lowest term up,
    each exact or NotLaurent.  The one chain division of the packed
    exchange steps (``charts.x_mutate``, ``superpot.a_mutate_w``)."""
    if not low:
        return {}
    lo = min(low)
    a = [0] * (max(low) - lo + 1)
    for t, c in low.items():
        a[t - lo] += c
    # min and max may fall on a coefficient 0, which divides like any other
    for _ in range(D):
        prev = 0
        q = [prev := c - prev for c in a[:-1]]
        if a[-1] != prev:
            raise NotLaurent("division is not exact")
        a = q
    return {lo + i: c for i, c in enumerate(a) if c}


class Substitution:
    """One monomial map from the Laurent polynomials on ``lattice`` to
    those on ``codomain``, built once and applied to any number of them.

    ``images`` maps every label of ``lattice`` to a sparse {label:
    exponent} monomial over the codomain; a label mapped to {} is dropped.
    The build splits the labels in two.  A plain label maps to one
    codomain coordinate with exponent 1, a coordinate that no earlier plain
    label takes, so the plain labels form a partial permutation and one
    gather reads their part of every image.  Every other label is twisted
    and keeps a sparse column.  Mutation, whose images carry powers of an
    exchange binomial, is no monomial map: it runs on packed terms
    (``charts.x_mutate``, ``superpot.a_mutate_w``).
    """

    def __init__(self, lattice, images: dict[str, dict[str, int]], codomain):
        codomain = check_lattice(codomain)
        col = {lab: i for i, lab in enumerate(codomain)}
        lattice = tuple(lattice)
        zero = len(lattice)  # the index of the 0 that apply appends
        source = [zero] * len(col)  # codomain coordinate -> plain label
        twisted = []
        for t, lab in enumerate(lattice):
            if lab not in images:
                raise ValueError(f"no image for label {lab!r}")
            m = images[lab]
            if not m.keys() <= col.keys():
                raise ValueError(f"image of {lab!r} uses "
                                 f"{sorted(set(m) - set(col))} outside the codomain")
            pairs = [(col[x], v) for x, v in m.items() if v]
            i, v = pairs[0] if len(pairs) == 1 else (0, 0)
            if v == 1 and source[i] == zero:
                source[i] = t
            else:
                twisted.append((t, pairs))
        self.lattice = lattice
        self.codomain = codomain
        # itemgetter gives a bare item for one index and refuses none; a
        # slice gives a tuple on those codomains
        if len(source) > 1:
            self._gather = itemgetter(*source)
        else:
            self._gather = itemgetter(slice(source[0], source[0] + 1) if source else slice(0))
        self._twisted = tuple(twisted)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """The image of f, which must live on the built lattice: each
        term's image gathered from its exponent and corrected by the
        twisted labels it carries."""
        if f.lattice != self.lattice:
            raise ValueError(
                f"lattice mismatch: {f.lattice} vs substitution on {self.lattice}")
        gather, twisted = self._gather, self._twisted
        out: dict[Exponent, int] = {}
        for exp, c in f.terms:
            mono = list(gather(exp + (0,)))
            for t, pairs in twisted:
                x = exp[t]
                if x:
                    for i, v in pairs:
                        mono[i] += x * v
            key = tuple(mono)
            out[key] = out.get(key, 0) + c
        return _checked(self.codomain, out)


def lp_substitute(
    f: LaurentPoly, images: dict[str, dict[str, int]], codomain
) -> LaurentPoly:
    """Monomial image of f over ``codomain``: one ``Substitution`` built
    on f's lattice and applied to f."""
    return Substitution(f.lattice, images, codomain).apply(f)
