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


class NotLaurent(ArithmeticError):
    """Division or substitution result is not a Laurent polynomial."""


Exponent = tuple[int, ...]


def check_lattice(labels) -> tuple[str, ...]:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"lattice labels not distinct: {labels}")
    return labels


def vec_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b, strict=True))


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial over a labelled lattice."""

    lattice: tuple[str, ...]
    terms: tuple[tuple[Exponent, int], ...]  # sorted by exponent, no zeros

    @staticmethod
    def make(lattice, term_map: dict[Exponent, int]) -> "LaurentPoly":
        lattice = check_lattice(lattice)
        terms = tuple(
            (e, c) for e, c in sorted(term_map.items()) if c != 0
        )
        for e, _ in terms:
            if len(e) != len(lattice):
                raise ValueError(f"exponent {e} does not fit lattice {lattice}")
        return LaurentPoly(lattice, terms)

    @staticmethod
    def zero(lattice) -> "LaurentPoly":
        return LaurentPoly.make(lattice, {})

    @staticmethod
    def one(lattice) -> "LaurentPoly":
        lattice = check_lattice(lattice)
        return LaurentPoly.make(lattice, {(0,) * len(lattice): 1})

    @staticmethod
    def monomial(lattice, exp: Mapping[str, int], coeff: int = 1) -> "LaurentPoly":
        lattice = check_lattice(lattice)
        unknown = set(exp) - set(lattice)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in lattice")
        key = tuple(exp.get(lab, 0) for lab in lattice)
        return LaurentPoly.make(lattice, {key: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def num_terms(self) -> int:
        return len(self.terms)

    def exp_as_dict(self, exp: Exponent) -> dict[str, int]:
        return {lab: e for lab, e in zip(self.lattice, exp) if e != 0}

    def to_json_obj(self) -> dict:
        return {
            "lattice": list(self.lattice),
            "terms": [
                {"coeff": c, "exp": self.exp_as_dict(e)} for e, c in self.terms
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
        gcd_exp = tuple(
            min(e[i] for e, _ in self.terms) for i in range(len(self.lattice))
        )
        rest = LaurentPoly.make(
            self.lattice, {vec_sub(e, gcd_exp): c for e, c in self.terms}
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
    return LaurentPoly.make(f.lattice, out)


def lp_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    _require_same_lattice(f, g)
    out: dict[Exponent, int] = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = vec_add(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly.make(f.lattice, out)


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
    shift = vec_sub(fmin, gmin)
    rem = {vec_sub(e, fmin): c for e, c in f.terms}
    div = {vec_sub(e, gmin): c for e, c in g.terms}
    glead = max(div)
    gc = div[glead]
    quot: dict[Exponent, int] = {}
    while rem:
        flead = max(rem)
        fc = rem[flead]
        qe = vec_sub(flead, glead)
        if any(x < 0 for x in qe) or fc % gc != 0:
            raise NotLaurent("division is not exact")
        qc = fc // gc
        quot[qe] = qc
        for e, c in div.items():
            key = vec_add(qe, e)
            nc = rem.get(key, 0) - qc * c
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
    return LaurentPoly.make(f.lattice, {vec_add(e, shift): c for e, c in quot.items()})


class Substitution:
    """One homomorphism from the Laurent polynomials on ``lattice`` to
    those on u's lattice, built once and applied to any number of them.

    ``images`` maps every label of ``lattice`` to a pair (m, e) standing
    for x^m * u^e: m a sparse {label: exponent} monomial over u's lattice,
    e an integer power of the one shared exchange binomial u.  The build
    turns the images into sparse columns; the powers of u are made on
    first use and kept for every later ``apply``.
    """

    def __init__(
        self, lattice, images: dict[str, tuple[dict[str, int], int]], u: LaurentPoly
    ):
        col = {lab: i for i, lab in enumerate(u.lattice)}
        sparse = []
        for lab in lattice:
            if lab not in images:
                raise ValueError(f"no image for label {lab!r}")
            m, e = images[lab]
            unknown = set(m) - set(col)
            if unknown:
                raise ValueError(
                    f"image of {lab!r} uses {sorted(unknown)} outside the codomain")
            sparse.append(([(col[x], v) for x, v in m.items() if v], e))
        self.lattice = tuple(lattice)
        self.u = u
        self._sparse = sparse
        self._powers = [LaurentPoly.one(u.lattice)]

    def _power(self, p: int) -> LaurentPoly:
        """u^p, each power one product from the one before."""
        powers = self._powers
        while len(powers) <= p:
            powers.append(lp_mul(powers[-1], self.u))
        return powers[p]

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """The image of f, which must live on the built lattice.

        The terms of f are grouped by their power E of u, each group a
        polynomial g_E.  The groups with E >= 0 expand to the plain
        polynomial P = sum g_E u^E.  With u^-D the lowest power (D = 0 when
        there is no negative one), the other groups give
        N = sum g_E u^(E+D), and the image is P + N / u^D.  As P u^D is a
        multiple of u^D, the image is Laurent exactly when u^D divides
        P u^D + N, that is exactly when it divides N; so only N goes to
        ``lp_exact_div``, and a non-exact division raises NotLaurent.
        """
        if f.lattice != self.lattice:
            raise ValueError(
                f"lattice mismatch: {f.lattice} vs substitution on {self.lattice}")
        lattice = self.u.lattice
        d = len(lattice)
        by_power: dict[int, dict[Exponent, int]] = {}
        for exp, c in f.terms:
            mono = [0] * d
            E = 0
            for x, (pairs, e) in zip(exp, self._sparse):
                if x:
                    for i, v in pairs:
                        mono[i] += x * v
                    E += x * e
            group = by_power.setdefault(E, {})
            key = tuple(mono)
            group[key] = group.get(key, 0) + c

        D = max(0, -min(by_power, default=0))

        def expand(negative: bool) -> dict[Exponent, int]:
            """P's terms, or with ``negative`` N's."""
            out: dict[Exponent, int] = {}
            for E, group in by_power.items():
                if (E < 0) != negative:
                    continue
                up = self._power(E + D if negative else E)
                for e1, c1 in group.items():
                    for e2, c2 in up.terms:
                        key = vec_add(e1, e2)
                        out[key] = out.get(key, 0) + c1 * c2
            return out

        out = expand(negative=False)
        if D:
            quot = lp_exact_div(LaurentPoly.make(lattice, expand(negative=True)),
                                self._power(D))
            for e, c in quot.terms:
                out[e] = out.get(e, 0) + c
        return LaurentPoly.make(lattice, out)


def lp_substitute(
    f: LaurentPoly, images: dict[str, tuple[dict[str, int], int]], u: LaurentPoly
) -> LaurentPoly:
    """Homomorphic image of f over u's lattice: one ``Substitution`` built
    on f's lattice and applied to f."""
    return Substitution(f.lattice, images, u).apply(f)


def lp_min_exponent(f: LaurentPoly):
    """Minimal exponent under the coordinatewise partial order.

    Returns (exponent tuple, unique flag).  A unique minimum is one below
    every exponent, so it exists iff the coordinatewise minimum of all
    exponents is itself an exponent, and then it is that vector.  When no
    unique minimum exists the lex-minimal one of the minimal exponents, in
    lattice order, is returned with flag False.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no minimal exponent")
    exps = [e for e, _ in f.terms]
    low = _coordinatewise_min(exps)
    if low in exps:
        return low, True
    minimal = [
        e
        for e in exps
        if not any(o != e and all(x <= y for x, y in zip(o, e)) for o in exps)
    ]
    return min(minimal), False
