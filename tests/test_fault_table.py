"""Which faults the verify suites catch: one table of named faults.

Each row injects one fault into the package, runs ``verify all`` over
(2,5), (3,6) and (3,7) at level 2 in process, and pins the exit code and
the lines that are not PASS lines.  A fault that no suite catches yet is a
strict xfail whose reason names the ROADMAP item that will catch it: when
that item lands the row passes, the strict marker fails the run, and the
row becomes a plain one that pins its FAIL lines.
"""

import pytest

from plabicflow import charts, cli, cones, superpot
from plabicflow.laurent import LaurentPoly, lp_add, lp_mul

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
    real = charts._partition_polynomial

    def doubled(model, I):
        p = real(model, I)
        return lp_add(p, p)

    monkeypatch.setattr(charts, "_partition_polynomial", doubled)


def edge_variable_when_1_in_I(monkeypatch):
    real = charts._partition_polynomial

    def times_edge(model, I):
        p = real(model, I)
        if 1 not in I:
            return p
        return lp_mul(p, LaurentPoly.monomial(p.lattice, {p.lattice[0]: 1}))

    monkeypatch.setattr(charts, "_partition_polynomial", times_edge)


def drop_gvector_row(monkeypatch):
    real = superpot.gvector_cone_ineqs

    def dropped(k, n):
        c = real(k, n)
        return cones.Cone(c.ambient, c.ineqs[:-1])

    monkeypatch.setattr(superpot, "gvector_cone_ineqs", dropped)


def one_sided_exchange_binomial(monkeypatch):
    # a_mutate_w reads the exchange binomial's two monomials off neighbours;
    # this fault loses the out-arrows' monomial, leaving (in-monomial + 1)
    real = superpot.neighbours
    monkeypatch.setattr(superpot, "neighbours", lambda q, j: (real(q, j)[0], {}))


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
    pytest.param(double_partition_functions, None, id="P_I doubled", marks=_escapes(
        15, "the plucker relations are homogeneous, and no suite ties P_I to "
            "the flow polynomial term by term")),
    pytest.param(edge_variable_when_1_in_I, None, id="P_I times an edge variable when 1 in I",
                 marks=_escapes(15, "each side of a three-term relation has "
                                    "equally many factors holding 1")),
    pytest.param(drop_gvector_row, None, id="a row dropped from gvector_cone_ineqs",
                 marks=_escapes(5, "no suite reads the g-vector cone")),
    pytest.param(one_sided_exchange_binomial, None, id="a wrong exchange binomial in a_mutate_w",
                 marks=_escapes(19, "no suite runs a_mutate_w")),
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
