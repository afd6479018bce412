"""Which faults the verify suites catch: one table of named faults.

Each row injects one fault into the package, runs ``verify all`` over
(2,5), (3,6) and (3,7) at level 2 in process, and pins the exit code and
the lines that are not PASS lines.  A fault that no suite catches yet is a
strict xfail whose reason names the ROADMAP item that will catch it: when
that item lands the row passes, the strict marker fails the run, and the
row becomes a plain one that pins its FAIL lines.
"""

import pytest

from plabicflow import charts, cli, cones, seeds, superpot
from plabicflow.laurent import LaurentPoly

RUN = ["verify", "all", "--kn", "2,5", "--kn", "3,6", "--kn", "3,7"]


@pytest.fixture(autouse=True)
def fresh_kappa_tables():
    # kappa_table is cached: a table made before a fault would hide it, and
    # one made under a fault would leak into later tests
    cones.kappa_table.cache_clear()
    yield
    cones.kappa_table.cache_clear()


def drop_last_lattice_point(monkeypatch):
    real = cones.lattice_points
    monkeypatch.setattr(cones, "lattice_points", lambda c, r: real(c, r)[:-1])


def drop_last_kappa_point(monkeypatch):
    real = cones.no_body_level1
    monkeypatch.setattr(cones, "no_body_level1",
                        lambda s, subsets: real(s, subsets)[:-1])


def double_partition_functions(monkeypatch):
    real = charts._edge_counts
    monkeypatch.setattr(charts, "_edge_counts",
                        lambda model, I: {e: 2 * c for e, c in real(model, I).items()})


def edge_variable_when_1_in_I(monkeypatch):
    # the packed exponent of edge 0 is bits 0 and 1: adding 1 multiplies
    # by its variable
    real = charts._edge_counts

    def times_edge(model, I):
        p = real(model, I)
        return p if 1 not in I else {e + 1: c for e, c in p.items()}

    monkeypatch.setattr(charts, "_edge_counts", times_edge)


def drop_gvector_row(monkeypatch):
    real = superpot.gvector_cone_ineqs

    def dropped(k, n):
        c = real(k, n)
        return cones.Cone(c.ambient, c.ineqs[:-1])

    monkeypatch.setattr(superpot, "gvector_cone_ineqs", dropped)


def bump_non_star_beta_entry(monkeypatch):
    # the beta-dual image reads the non-star columns only, so a bump in the
    # star's column would escape
    real = superpot.beta_columns

    def bumped(s):
        cols = real(s)
        v = s.quiver.lattice[0]
        row = next(iter(cols[v]))
        cols[v] = {**cols[v], row: cols[v][row] + 1}
        return cols

    monkeypatch.setattr(superpot, "beta_columns", bumped)


def drop_tropical_covector(monkeypatch):
    real = cones.cone_from_tropical

    def dropped(W, star_label):
        c = real(W, star_label)
        return cones.Cone(c.ambient, c.ineqs[:-1])

    monkeypatch.setattr(cones, "cone_from_tropical", dropped)


def kappa_plus_one(monkeypatch):
    # every nonzero MaxDiag entry one too large; a fresh memo, so that no
    # row made before the fault hides it
    real = seeds._max_diag_masks

    def plus_one(j, i):
        d = real(j, i)
        return d + 1 if d else d

    monkeypatch.setattr(seeds, "_max_diag_masks", plus_one)
    monkeypatch.setattr(seeds, "_KAPPA_ROWS", {})


def one_sided_exchange_binomial(monkeypatch):
    # a_mutate_w reads the exchange binomial's two monomials off neighbours;
    # this fault loses the out-arrows' monomial, leaving (in-monomial + 1)
    real = superpot.neighbours
    monkeypatch.setattr(superpot, "neighbours", lambda q, j: (real(q, j)[0], {}))


def doubled_a_mutation(monkeypatch):
    # every coefficient of the mutated potential doubled: still an A-form
    # and still Laurent, so only the way back shows it
    real = superpot.a_mutate_w

    def doubled(s, W, j):
        f = real(s, W, j).poly
        return superpot.SuperpotentialExpr(
            LaurentPoly.make(f.lattice, {e: 2 * c for e, c in f.terms}), "A-form")

    monkeypatch.setattr(superpot, "a_mutate_w", doubled)


def exchange_multiplicity_off_by_one(monkeypatch):
    # the packed X-mutation step reads the arrows at j off neighbours: one
    # in-neighbour's multiplicity one too large
    real = charts.neighbours

    def bumped(q, j):
        ins, outs = real(q, j)
        first = next(iter(ins))
        return {**ins, first: ins[first] + 1}, outs

    monkeypatch.setattr(charts, "neighbours", bumped)


def _escapes(item, why):
    return pytest.mark.xfail(strict=True, reason=f"escapes until ROADMAP item {item}: {why}")


# (fault, the lines other than PASS that verify all prints under it); a row
# that escapes pins exit 1 with at least one FAIL line, wording unknown
FAULTS = [
    pytest.param(drop_last_lattice_point, [
        "FAIL weyl-count: rect:2,5 level 1: kappa point (1, 1, 1, 1, 1, 2, 2) "
        "of 12 is outside the slice",
        "FAIL weyl-count: rect:3,6 level 1: kappa point "
        "(1, 1, 1, 1, 1, 2, 2, 1, 2, 3) of 123 is outside the slice",
        "FAIL weyl-count: rect:3,7 level 1: kappa point "
        "(1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 2, 3, 3) of 123 is outside the slice",
    ], id="lattice_points drops a slice's last point"),
    pytest.param(drop_last_kappa_point, [
        "FAIL weyl-count: rect:2,5 level 1: lattice point (1, 0, 0, 0, 0, 0, 0) "
        "is no kappa point",
        "FAIL weyl-count: rect:3,6 level 1: lattice point "
        "(1, 0, 0, 0, 0, 0, 0, 0, 0, 0) is no kappa point",
        "FAIL weyl-count: rect:3,7 level 1: lattice point "
        "(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) is no kappa point",
    ], id="no_body_level1 drops its last point"),
    pytest.param(bump_non_star_beta_entry, [
        f"FAIL wformula: rect:{kn}: coefficient of 1 is 1 in the expansion, "
        "0 in the potential" for kn in ("2,5", "3,6", "3,7")
    ], id="a non-star beta entry bumped"),
    pytest.param(drop_tropical_covector, [
        f"FAIL gt-trop: rect:{kn}: tropical cone differs from inequality cone"
        for kn in ("2,5", "3,6", "3,7")
    ], id="a covector dropped from cone_from_tropical"),
    pytest.param(kappa_plus_one, [
        "FAIL valuation-kappa: rect:2,5: I=12 valuation {'13': 1, '14': 1, "
        "'15': 1, '23': 1, '34': 2, '45': 2} != kappa {'13': 2, '14': 2, "
        "'15': 2, '23': 2, '34': 3, '45': 3}",
        "FAIL trop-a: rect:2,5 at 13, I=12: {'12': 0, '13': 1, '14': 2, "
        "'15': 2, '23': 2, '34': 3, '45': 3} != {'12': 0, '14': 2, '15': 2, "
        "'23': 2, '13': 2, '34': 3, '45': 3}",
        "FAIL exact-seq: rect:2,5 on the seed: wt.beta column 13, row 13 is -2, not -1",
        "FAIL weyl-count: rect:2,5 level 1: lattice point (1, 0, 0, 0, 0, 0, 1) "
        "is no kappa point",
        "FAIL valuation-kappa: rect:3,6: I=123 valuation {'124': 1, '125': 1, "
        "'126': 1, '134': 1, '145': 2, '156': 2, '234': 1, '345': 2, '456': 3} "
        "!= kappa {'124': 2, '125': 2, '126': 2, '134': 2, '145': 3, '156': 3, "
        "'234': 2, '345': 3, '456': 4}",
        "FAIL trop-a: rect:3,6 at 124, I=123: {'123': 0, '124': 1, '125': 2, "
        "'126': 2, '134': 2, '145': 3, '156': 3, '234': 2, '345': 3, '456': 4} "
        "!= {'123': 0, '125': 2, '126': 2, '134': 2, '124': 2, '145': 3, "
        "'156': 3, '234': 2, '345': 3, '456': 4}",
        "FAIL exact-seq: rect:3,6 on the seed: wt.beta column 124, row 124 is -2, not -1",
        "FAIL weyl-count: rect:3,6 level 1: lattice point "
        "(1, 0, 0, 0, 0, 0, 0, 0, 0, 1) is no kappa point",
        "FAIL valuation-kappa: rect:3,7: I=123 valuation {'124': 1, '125': 1, "
        "'126': 1, '127': 1, '134': 1, '145': 2, '156': 2, '167': 2, '234': 1, "
        "'345': 2, '456': 3, '567': 3} != kappa {'124': 2, '125': 2, '126': 2, "
        "'127': 2, '134': 2, '145': 3, '156': 3, '167': 3, '234': 2, '345': 3, "
        "'456': 4, '567': 4}",
        "FAIL trop-a: rect:3,7 at 124, I=123: {'123': 0, '124': 1, '125': 2, "
        "'126': 2, '127': 2, '134': 2, '145': 3, '156': 3, '167': 3, '234': 2, "
        "'345': 3, '456': 4, '567': 4} != {'123': 0, '125': 2, '126': 2, "
        "'127': 2, '134': 2, '124': 2, '145': 3, '156': 3, '167': 3, '234': 2, "
        "'345': 3, '456': 4, '567': 4}",
        "FAIL exact-seq: rect:3,7 on the seed: wt.beta column 124, row 124 is -2, not -1",
        "FAIL weyl-count: rect:3,7 level 1: lattice point "
        "(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1) is no kappa point",
    ], id="kappa off by one"),
    pytest.param(exchange_multiplicity_off_by_one, [
        "FAIL xflow: rect:2,5: mutation at 13 disagrees with flows at I=12",
        "FAIL xflow: rect:3,6: mutation at 124 disagrees with flows at I=123",
        "FAIL xflow: rect:3,7: mutation at 124 disagrees with flows at I=123",
    ], id="an exchange multiplicity off by one in X-mutation"),
    pytest.param(double_partition_functions, [
        f"FAIL plucker: rect:{kn}: I={I} P_I(1) = 2 != F_I(1) = 1"
        for kn, I in (("2,5", "12"), ("3,6", "123"), ("3,7", "123"))
    ], id="P_I doubled"),
    pytest.param(one_sided_exchange_binomial, [
        f"FAIL trop-a: rect:{kn} after mutation at {j}: internal error: division is not exact"
        for kn, j in (("2,5", "13"), ("3,6", "124"), ("3,7", "124"))
    ], id="a wrong exchange binomial in a_mutate_w"),
    pytest.param(doubled_a_mutation, [
        f"FAIL trop-a: rect:{kn} at {j} and back at {j2}: coefficient of "
        f"p{star}^-1*p{j} is 4, 1 in the potential"
        for kn, j, j2, star in (("2,5", "13", "24", "12"), ("3,6", "124", "135", "123"),
                                ("3,7", "124", "135", "123"))
    ], id="a_mutate_w doubles the potential"),
    pytest.param(edge_variable_when_1_in_I, None, id="P_I times an edge variable when 1 in I",
                 marks=_escapes(15, "each side of a three-term relation has "
                                    "equally many factors holding 1")),
    pytest.param(drop_gvector_row, None, id="a row dropped from gvector_cone_ineqs",
                 marks=_escapes(5, "no suite reads the g-vector cone")),
]


@pytest.mark.parametrize("inject, fails", FAULTS)
def test_verify_all_catches_the_fault(monkeypatch, capsys, inject, fails):
    inject(monkeypatch)
    rc = cli.main(RUN + ["--level", "2"])
    got = [line for line in capsys.readouterr().out.splitlines()
           if not line.startswith("PASS ")]
    assert rc == 1 and got
    if fails is not None:
        assert got == fails


@pytest.mark.parametrize("inject", [drop_last_lattice_point, drop_last_kappa_point])
def test_the_level_1_faults_need_level_1(monkeypatch, capsys, inject):
    # weyl-count compares the kappa points with the slice only at level >= 1
    inject(monkeypatch)
    rc = cli.main(RUN + ["--level", "0"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(out) == 3 * len(cli.SUITES)
    assert all(line.startswith("PASS ") for line in out)
