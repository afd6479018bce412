"""Substitution with an exchange binomial, the generic route of X- and
A-mutation: the reference that the packed steps ``charts.x_mutate``
(through ``x_mutate_oracle``) and ``superpot.a_mutate_w`` are checked
against.  ``laurent.lp_substitute`` is only the monomial maps."""

from operator import add, itemgetter

from plabicflow.laurent import Exponent, LaurentPoly, lp_exact_div, lp_mul


class BinomialSubstitution:
    """One homomorphism from the Laurent polynomials on ``lattice`` to
    those on u's lattice, built once and applied to any number of them.

    ``images`` maps every label of ``lattice`` to a pair (m, e) standing
    for x^m * u^e: m a sparse {label: exponent} monomial over u's lattice,
    e an integer power of the one shared exchange binomial u.  The build
    splits the labels in two.  A plain label maps to one codomain
    coordinate with exponent 1 and no power of u, a coordinate that no
    earlier plain label takes, so the plain labels form a partial
    permutation and one gather reads their part of every image.  Every
    other label is twisted and keeps a sparse column and its power of u;
    in X- and A-mutation these are the mutated vertex and, in X-mutation,
    its neighbours.  The powers of u are made on first use and kept for
    every later ``apply``.

    u's lattice is always the codomain; u = 1 over it and
    every e = 0 make a plain monomial map, a label mapped to {} dropped.
    """

    def __init__(
        self, lattice, images: dict[str, tuple[dict[str, int], int]], u: LaurentPoly
    ):
        col = {lab: i for i, lab in enumerate(u.lattice)}
        lattice = tuple(lattice)
        zero = len(lattice)  # the index of the 0 that apply appends
        source = [zero] * len(col)  # codomain coordinate -> plain label
        twisted = []
        for t, lab in enumerate(lattice):
            if lab not in images:
                raise ValueError(f"no image for label {lab!r}")
            m, e = images[lab]
            if not m.keys() <= col.keys():
                raise ValueError(f"image of {lab!r} uses "
                                 f"{sorted(set(m) - set(col))} outside the codomain")
            pairs = [(col[x], v) for x, v in m.items() if v]
            i, v = pairs[0] if len(pairs) == 1 else (0, 0)
            if not e and v == 1 and source[i] == zero:
                source[i] = t
            else:
                twisted.append((t, pairs, e))
        self.lattice = lattice
        self.u = u
        # itemgetter gives a bare item for one index and refuses none; a
        # slice gives a tuple on those codomains
        if len(source) > 1:
            self._gather = itemgetter(*source)
        else:
            self._gather = itemgetter(slice(source[0], source[0] + 1) if source else slice(0))
        self._twisted = tuple(twisted)
        self._powers = [LaurentPoly.monomial(u.lattice, {})]

    def _power(self, p: int) -> LaurentPoly:
        """u^p, each power one product from the one before."""
        powers = self._powers
        while len(powers) <= p:
            powers.append(lp_mul(powers[-1], self.u))
        return powers[p]

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """The image of f, which must live on the built lattice.

        Each term's image is gathered from its exponent and corrected by
        the twisted labels it carries, which also give its power E of u.
        The terms are grouped by E, each group a polynomial g_E.  The
        groups with E >= 0 expand to the plain polynomial P = sum g_E u^E.
        With u^-D the lowest power (D = 0 when there is no negative one),
        the other groups give N = sum g_E u^(E+D), and the image is
        P + N / u^D.  As P u^D is a multiple of u^D, the image is Laurent
        exactly when u^D divides P u^D + N, that is exactly when it divides
        N; so only N goes to ``lp_exact_div``, and a non-exact division
        raises NotLaurent.  The groups that u^0 multiplies (g_0 in P and
        g_-D in N) are taken as they are.
        """
        if f.lattice != self.lattice:
            raise ValueError(
                f"lattice mismatch: {f.lattice} vs substitution on {self.lattice}")
        gather, twisted = self._gather, self._twisted
        by_power: dict[int, dict[Exponent, int]] = {}
        for exp, c in f.terms:
            mono = list(gather(exp + (0,)))
            E = 0
            for t, pairs, e in twisted:
                x = exp[t]
                if x:
                    for i, v in pairs:
                        mono[i] += x * v
                    E += x * e
            group = by_power.setdefault(E, {})
            key = tuple(mono)
            group[key] = group.get(key, 0) + c

        D = max(0, -min(by_power, default=0))
        out = by_power.pop(0, {})
        low = by_power.pop(-D, {}) if D else {}
        for E, group in by_power.items():
            into = low if E < 0 else out
            for e2, c2 in self._power(E + D if E < 0 else E).terms:
                for e1, c1 in group.items():
                    key = tuple(map(add, e1, e2))
                    into[key] = into.get(key, 0) + c1 * c2
        lattice = self.u.lattice
        if D:
            for e, c in lp_exact_div(LaurentPoly.make(lattice, low), self._power(D)).terms:
                out[e] = out.get(e, 0) + c
        return LaurentPoly.make(lattice, out)


def binomial_substitute(
    f: LaurentPoly, images: dict[str, tuple[dict[str, int], int]], u: LaurentPoly
) -> LaurentPoly:
    """Homomorphic image of f over u's lattice: one ``BinomialSubstitution``
    built on f's lattice and applied to f."""
    return BinomialSubstitution(f.lattice, images, u).apply(f)
