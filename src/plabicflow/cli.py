"""Command-line surface.

Subcommands operate either on a model (a file path, the builtin ``shark``
fixture, or ``rect:k,n``) or on a Grassmannian instance given as ``--kn k,n``:

* ``matchings`` — enumerate perfect matchings with boundary values
* ``partition`` / ``flow`` / ``valuation`` — boundary-value polynomials and
  their exponent valuations
* ``kappa`` — the MaxDiag vector of a k-subset on the model's seed
* ``mutate`` — mutate the seed along a vertex path
* ``xcheck`` — flow polynomials versus cluster mutation, one move at a time
* ``gt-cone`` — the Gelfand-Tsetlin cone, or its lattice points at a level
* ``no-body`` — level-1 body points of a seed
* ``superpotential`` / ``wx`` — the potential in cluster or simples variables
* ``verify`` — named verification suites with pass/fail reporting

Exit codes: 0 success, 1 verification failure, 2 usage error or a request
past the matching budget (``plabic.MATCHING_BUDGET``), 3 model invariant
violation or internal consistency fault.  Output is byte-deterministic for
fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys

from . import charts, cones, plabic, seeds, superpot
from .combinat import KSubset, format_ksubset, ksubsets, parse_ksubset
from .laurent import LaurentPoly, NotLaurent, lp_equal
from .plabic import ModelInvariantError, NotPlabicMutable, ParseError, PlabicModel
from .seeds import NotMutable

FORMATS = ("pretty", "json", "csv")
# Most lattice points ``gt-cone --level`` or ``verify weyl-count`` enumerates
# in one request.  A level slice holds exactly ``cones.weyl_dim`` points, so
# the count is known before enumerating; 232,848 points, (4,8) at level 4,
# take 1.5-2.1 s CPU and 60 MB peak RSS as CSV, 84 MB as JSON, in process on
# a shared 2-vCPU x86 box with Python 3.11.
POINT_BUDGET = 500_000


class UsageError(Exception):
    pass


def load_any_model(spec: str) -> PlabicModel:
    """Resolve a model argument: ``shark``, ``rect:k,n``, or a file path."""
    if spec == "shark":
        return plabic.shark_model()
    if spec.startswith("rect:"):
        k, n = _parse_kn(spec[len("rect:"):])
        return plabic.build_rectangles_model(k, n)
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read model {spec!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"model {spec!r} is not UTF-8 text: {exc}") from None
    return plabic.load_model(text)


def _parse_kn(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected k,n — got {text!r}")
    try:
        k, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"expected integers k,n — got {text!r}") from None
    if not 1 <= k <= n - 1:
        raise UsageError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return k, n


def _parse_level(level: int | None) -> int | None:
    if level is not None and level < 0:
        raise UsageError(f"--level must be >= 0, got {level}")
    return level


def _parse_names(text: str | None, k: int, n: int, what: str,
                 alone=frozenset()) -> list[str]:
    """Names from a comma list.  Past n = 9 a face name is itself a comma
    list of k elements (``format_ksubset``), so a token in ``alone`` stands
    for itself and any other token starts a face name of k tokens:
    ``1,3,1,4`` names the faces ``1,3`` and ``1,4`` when k = 2.  No text
    (the option left out) names nothing; an empty name or element, as in
    ``,`` or ``124,,145``, is refused."""
    if text is None:
        return []
    parts = [p.strip() for p in text.split(",")]
    if "" in parts:
        raise UsageError(f"empty name in {what} {text!r}")
    if n <= 9:
        return parts
    names = []
    i = 0
    while i < len(parts):
        step = 1 if parts[i] in alone else k
        if i + step > len(parts):
            raise UsageError(
                f"{what} ends in {len(parts) - i} numbers; at n = {n} each "
                f"face name takes k = {k}"
            )
        names.append(",".join(parts[i:i + step]))
        i += step
    return names


def _require_face(s: seeds.Seed, j: str) -> None:
    """Refuse a name that is not a face of the seed s."""
    if j not in s.labels:
        raise UsageError(f"no face named {j!r}")


def _check_point_budget(k: int, n: int, levels, what: str) -> None:
    """Refuse a request whose level slices hold more than POINT_BUDGET
    lattice points in all; each slice holds ``cones.weyl_dim`` points."""
    total = 0
    for r in levels:
        total += cones.weyl_dim(k, n, r)
        if total > POINT_BUDGET:
            raise UsageError(
                f"{what} at ({k},{n}) needs {total:,} lattice points by "
                f"level {r}, past the point budget of {POINT_BUDGET:,}"
            )


def _reorder(poly: LaurentPoly, order: str | None, k: int, n: int) -> LaurentPoly:
    """Rebuild a polynomial over a user-supplied permutation of its lattice.

    A token that is a lattice label (``q``, an edge name, a face of k = 1)
    stands alone in the list; see ``_parse_names``."""
    if order is None:
        return poly
    labels = tuple(_parse_names(order, k, n, "--order", set(poly.lattice)))
    if sorted(labels) != sorted(poly.lattice):
        raise UsageError(
            f"--order must be a permutation of {','.join(poly.lattice)}"
        )
    return LaurentPoly.make(
        labels, {tuple(poly.exp_as_dict(e).get(l, 0) for l in labels): c
                 for e, c in poly.terms},
    )


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _csv_writer():
    """CSV rows on stdout; fields holding a comma (labels at n >= 10) are quoted."""
    return csv.writer(sys.stdout, lineterminator="\n")


def _emit_poly(poly: LaurentPoly, fmt: str, prefix: str) -> None:
    if fmt == "pretty":
        print(poly.pretty(prefix))
    elif fmt == "json":
        _emit_json(poly.to_json_obj())
    else:  # csv
        out = _csv_writer()
        out.writerow(list(poly.lattice) + ["coeff"])
        out.writerows(list(exp) + [c] for exp, c in poly.terms)


def _emit_vector(vec: dict[str, int], fmt: str) -> None:
    items = list(vec.items())
    if fmt == "pretty":
        print(" ".join(f"{lab}={v}" for lab, v in items))
    elif fmt == "json":
        _emit_json(vec)
    else:
        out = _csv_writer()
        out.writerow(["label", "value"])
        out.writerows(items)


RECORD_FIELDS = ("suite", "instance", "ok", "detail")


def _record_writer(fmt: str):
    """The printer of ``verify`` and ``xcheck`` results, one call per PASS
    or FAIL line: ``emit(line, suite, instance, ok, detail)`` prints the
    line as it reads in pretty, and the record {suite, instance, ok,
    detail} otherwise, one JSON object a line or one CSV row.  The CSV
    header comes with the first row, so a request refused before its first
    result prints nothing, as in pretty."""
    if fmt == "pretty":
        return lambda line, *record: print(line)
    if fmt == "json":
        return lambda line, *record: _emit_json(dict(zip(RECORD_FIELDS, record)))
    out = _csv_writer()
    header = [RECORD_FIELDS]

    def emit(line, suite, instance, ok, detail):
        if header:
            out.writerow(header.pop())
        out.writerow([suite, instance, int(ok), detail])

    return emit


# ---------------------------------------------------------------- commands


def cmd_matchings(args) -> int:
    model = load_any_model(args.model)
    table = plabic.matching_table(model)
    label = {I: format_ksubset(I, model.n) for I in table.positroid}
    # made one at a time, so pretty and csv rows are written as they come
    rows = ((label[table.boundary_of(m)], plabic.edge_names(model, m))
            for m in table.masks)
    if args.format == "pretty":
        for bv, eds in rows:
            print(f"{bv}: {' '.join(eds)}")
    elif args.format == "json":
        _emit_json([{"boundary": bv, "edges": eds} for bv, eds in rows])
    else:
        out = _csv_writer()
        out.writerow(["boundary", "edges"])
        out.writerows([bv, ";".join(eds)] for bv, eds in rows)
    return 0


def _model_and_subset(args) -> tuple[PlabicModel, tuple[int, ...]]:
    model = load_any_model(args.model)
    try:
        I = parse_ksubset(args.subset, model.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if len(I) != model.k:
        raise UsageError(f"{args.subset!r} is not a {model.k}-subset")
    return model, I


def cmd_partition(args) -> int:
    model, I = _model_and_subset(args)
    poly = _reorder(charts.partition_function(model, I), args.order, model.k, model.n)
    _emit_poly(poly, args.format, "")
    return 0


def cmd_flow(args) -> int:
    model, I = _model_and_subset(args)
    poly = _reorder(charts.flow_polynomial(model, I), args.order, model.k, model.n)
    _emit_poly(poly, args.format, "y")
    return 0


def cmd_valuation(args) -> int:
    model, I = _model_and_subset(args)
    if not plabic.masks_at(model, I):
        raise UsageError(
            f"{format_ksubset(I, model.n)} is outside the model's positroid: "
            "its flow polynomial is 0, which has no valuation"
        )
    _emit_vector(charts.valuation(charts.flow_polynomial(model, I)), args.format)
    return 0


def cmd_kappa(args) -> int:
    model, I = _model_and_subset(args)
    seed = seeds.seed_of_model(model)
    _emit_vector(seeds.kappa_vector(seed, I), args.format)
    return 0


def cmd_mutate(args) -> int:
    model = load_any_model(args.model)
    s = seeds.seed_of_model(model)
    for j in _parse_names(args.mutations, s.k, s.n, "--mutations"):
        _require_face(s, j)
        s = seeds.mutate_labels(s, j)
    q = s.quiver
    labels = {v: format_ksubset(s.labels[v], s.n) for v in q.vertices}
    if args.format == "pretty":
        for v in q.vertices:
            mark = " (frozen)" if v in q.frozen else ""
            star = " (star)" if v == q.star else ""
            print(f"{v}: {labels[v]}{mark}{star}")
        for u, v, mult in q.arrows:
            print(f"{u} -> {v}" + (f" x{mult}" if mult > 1 else ""))
    elif args.format == "json":
        _emit_json({
            "labels": labels,
            "frozen": [v for v in q.vertices if v in q.frozen],
            "star": q.star,
            "arrows": [list(a) for a in q.arrows],
        })
    else:
        out = _csv_writer()
        out.writerow(["vertex", "label", "frozen"])
        out.writerows([v, labels[v], int(v in q.frozen)] for v in q.vertices)
    return 0


def _xcheck_one(model: PlabicModel, j: str, moved: PlabicModel) -> KSubset | None:
    """The first boundary value I at which mutation at the face named j does
    not carry the moved model's flow polynomial back to the one computed on
    the original model, or None when it carries every one."""
    q = seeds.seed_of_model(model).quiver
    for I in plabic.positroid(model):
        f_old = charts.flow_polynomial(model, I)
        image = charts.x_mutate(q, j, charts.flow_polynomial(moved, I))
        if not lp_equal(image, f_old):
            return I
    return None


def _xcheck_mismatch(j: str, I: KSubset, n: int) -> str:
    return f"mutation at {j} disagrees with flows at I={format_ksubset(I, n)}"


def cmd_xcheck(args) -> int:
    model = load_any_model(args.model)
    path = _parse_names(args.mutations, model.k, model.n, "--mutations")
    if not path:
        path = seeds.mutable_vertices(seeds.seed_of_model(model).quiver)[:1]
        if not path:
            raise UsageError("model has no mutable faces")
    emit = _record_writer(args.format)
    cur = model
    for i, j in enumerate(path):
        s = seeds.seed_of_model(cur)
        _require_face(s, j)
        moved = plabic.square_move(cur, s.labels[j])
        I = _xcheck_one(cur, j, moved)
        where = args.model + (f" after {','.join(path[:i])}" if i else "")
        if I is not None:
            detail = f"{j}: {_xcheck_mismatch(j, I, cur.n)}"
            emit(f"FAIL xcheck {detail}", "xcheck", where, False, detail)
            return 1
        detail = f"{j} ({len(plabic.positroid(cur))} boundary values)"
        emit(f"PASS xcheck {detail}", "xcheck", where, True, detail)
        cur = moved
    return 0


def cmd_gt_cone(args) -> int:
    k, n = _parse_kn(args.kn)
    level = _parse_level(args.level)
    cone = cones.gt_inequalities(k, n)
    if level is None:
        if args.format == "json":
            _emit_json(cones.cone_to_json_obj(cone))
        elif args.format == "pretty":
            for cov in cone.ineqs:
                parts = [
                    f"{'+' if c > 0 else '-'}{'' if abs(c) == 1 else abs(c)}{lab}"
                    for lab, c in zip(cone.ambient, cov) if c
                ]
                print(" ".join(parts) + " >= 0")
        else:
            out = _csv_writer()
            out.writerow(cone.ambient)
            out.writerows(cone.ineqs)
        return 0
    _check_point_budget(k, n, [level], "gt-cone --level")
    # lattice_points enumerates in lexicographic order, so the rows come sorted
    rows = cones.lattice_points(cone, level)
    if args.format == "json":
        _emit_json({"ambient": list(cone.ambient), "count": len(rows), "points": rows})
    else:
        out = _csv_writer()
        out.writerow(cone.ambient)
        out.writerows(rows)
        if args.format == "pretty":
            print(f"# {len(rows)} points")
    return 0


def cmd_no_body(args) -> int:
    model = load_any_model(args.model)
    s = seeds.seed_of_model(model)
    pts = cones.no_body_level1(s)
    labels = s.quiver.lattice
    if args.format == "json":
        _emit_json([dict(zip(labels, p[1:])) for p in pts])
    else:
        out = _csv_writer()
        out.writerow(labels)
        out.writerows(p[1:] for p in pts)
        if args.format == "pretty":
            print(f"# {len(pts)} points")
    return 0


def cmd_superpotential(args) -> int:
    k, n = _parse_kn(args.kn)
    s = seeds.rectangles_seed(k, n)
    W = superpot.w_rectangles(k, n)
    for j in _parse_names(args.mutations, k, n, "--mutations"):
        _require_face(s, j)
        s2 = seeds.mutate_labels(s, j)
        W = superpot.a_mutate_w(s, W, j)
        s = s2
    _emit_poly(_reorder(W.poly, args.order, k, n), args.format, "p")
    return 0


def cmd_wx(args) -> int:
    k, n = _parse_kn(args.kn)
    W = superpot.w_x_rectangles(k, n)
    _emit_poly(_reorder(W.poly, args.order, k, n), args.format, "x")
    return 0


# ------------------------------------------------------------------ verify


def _suite_plucker(model: PlabicModel, tag: str, level: int):
    # the relations ask about every boundary value: one table serves them all
    plabic.matching_table(model)
    for rel in charts.three_term_relations(model.k, model.n):
        if not charts.plucker_verify(model, rel):
            a, b, c, d, S = rel
            return False, f"relation ({a},{b},{c},{d};S={S}) fails on {tag}"
    return True, f"{tag} all three-term relations, both charts"


def _val_kappa_mismatch(model: PlabicModel, tag: str) -> str | None:
    """The FAIL detail of the first boundary value whose flow valuation is
    not its κ vector, or None."""
    s = seeds.seed_of_model(model)
    for I in plabic.positroid(model):
        f = charts.flow_polynomial(model, I)
        v = charts.valuation(f)
        kappa = seeds.kappa_vector(s, I)
        kv = {a: kappa[a] for a in s.quiver.lattice}
        if v != kv:
            return f"{tag}: I={format_ksubset(I, model.n)} valuation {v} != kappa {kv}"
    return None


def _suite_valuation_kappa(model: PlabicModel, tag: str, level: int):
    bad = _val_kappa_mismatch(model, tag)
    if bad:
        return False, bad
    moves = []
    for j, moved in plabic.square_moves(model):
        bad = _val_kappa_mismatch(moved, f"{tag} after move {j}")
        if bad:
            return False, bad
        moves.append(j)
    return True, f"{tag} base and after moves [{','.join(moves)}]"


def _suite_xflow(model: PlabicModel, tag: str, level: int):
    done = []
    for j, moved in plabic.square_moves(model):
        I = _xcheck_one(model, j, moved)
        if I is not None:
            return False, f"{tag}: {_xcheck_mismatch(j, I, model.n)}"
        done.append(j)
    return True, f"{tag} flow/mutation agree at [{','.join(done)}]"


def _suite_trop_a(model: PlabicModel, tag: str, level: int):
    s = seeds.seed_of_model(model)
    q = s.quiver
    base = {I: seeds.kappa_vector(s, I) for I in ksubsets(s.n, s.k)}
    for j, s2 in seeds.seed_mutations(s):
        j2 = next(iter(set(s2.labels) - set(s.labels)))
        for I, kv in base.items():
            moved = seeds.trop_a_mutate(q, j, kv)
            want = seeds.kappa_vector(s2, I)
            want = {j if a == j2 else a: b for a, b in want.items()}
            if moved != want:
                return False, f"{tag} at {j}, I={format_ksubset(I, s.n)}: {moved} != {want}"
        rng = random.Random(0)
        for _ in range(50):
            v = {x: rng.randint(-5, 5) for x in q.vertices}
            v[q.star] = 0
            if seeds.trop_a_mutate(q, j, seeds.trop_a_mutate(q, j, v)) != v:
                return False, f"{tag} at {j}: double mutation moved {v}"
    return True, f"{tag} kappa-compatibility and involution"


def _suite_exact_seq(model: PlabicModel, tag: str, level: int):
    s = seeds.seed_of_model(model)
    if not seeds.exact_sequence_checks(s):
        return False, f"{tag}: wt.beta != -id on the seed"
    done = []
    for j, s2 in seeds.seed_mutations(s):
        if not seeds.exact_sequence_checks(s2):
            return False, f"{tag} after mutation at {j}: wt.beta != -id"
        done.append(j)
    return True, f"{tag} wt.beta = -id on the seed and after mutations [{','.join(done)}]"


def _suite_gt_trop(model: PlabicModel, tag: str, level: int):
    k, n = model.k, model.n
    star = seeds.rectangles_seed(k, n).quiver.star
    cw = cones.cone_from_tropical(superpot.w_rectangles(k, n).poly, star)
    if cw != cones.gt_inequalities(k, n):
        return False, f"{tag}: tropical cone differs from inequality cone"
    return True, f"{tag} tropicalized potential equals the pattern cone"


def _suite_wformula(model: PlabicModel, tag: str, level: int):
    if superpot.verify_wformula(model.k, model.n):
        return True, f"{tag} boundary-module expansion equals the potential"
    lhs, rhs = superpot.wformula_sides(model.k, model.n)
    return False, f"{tag}: {lhs.pretty('p')} != {rhs.pretty('p')}"


def _suite_weyl_count(model: PlabicModel, tag: str, level: int):
    k, n = model.k, model.n
    cone = cones.gt_inequalities(k, n)
    for r in range(level + 1):
        got = cones.count_lattice_points(cone, r)
        want = cones.weyl_dim(k, n, r)
        if got != want:
            return False, f"{tag} level {r}: {got} points != dimension {want}"
    return True, f"{tag} point counts match dimensions for levels 0..{level}"


# suite name -> suite(model, tag, level) -> (ok, detail)
SUITES = {
    "plucker": _suite_plucker,
    "valuation-kappa": _suite_valuation_kappa,
    "xflow": _suite_xflow,
    "trop-a": _suite_trop_a,
    "exact-seq": _suite_exact_seq,
    "gt-trop": _suite_gt_trop,
    "wformula": _suite_wformula,
    "weyl-count": _suite_weyl_count,
}


def cmd_verify(args) -> int:
    if args.suite == "all":
        chosen = list(SUITES)
    elif args.suite in SUITES:
        chosen = [args.suite]
    else:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)} or all"
        )
    instances = [_parse_kn(kn) for kn in args.kn] if args.kn else [(2, 4)]
    level = _parse_level(args.level)
    level = 2 if level is None else level
    if "weyl-count" in chosen:
        for k, n in instances:
            _check_point_budget(k, n, range(level + 1), "verify weyl-count")
    emit = _record_writer(args.format)
    all_ok = True
    for k, n in instances:
        # one model per instance, shared by the suites and their memos
        model = plabic.build_rectangles_model(k, n)
        tag = f"rect:{k},{n}"
        for suite in chosen:
            ok, detail = SUITES[suite](model, tag, level)
            emit(f"{'PASS' if ok else 'FAIL'} {suite}: {detail}", suite, tag, ok, detail)
            all_ok = all_ok and ok
    return 0 if all_ok else 1


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plabicflow",
        description="Exact partition functions, flows, and cones on plabic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=FORMATS, default="pretty")
        p.set_defaults(func=func)
        return p

    p = add("matchings", cmd_matchings, help="enumerate perfect matchings")
    p.add_argument("model", help="model file, 'shark', or 'rect:k,n'")

    for name, func, hlp in [
        ("partition", cmd_partition, "partition polynomial of a boundary value"),
        ("flow", cmd_flow, "flow polynomial of a boundary value"),
        ("valuation", cmd_valuation, "exponent valuation of the flow polynomial"),
        ("kappa", cmd_kappa, "MaxDiag vector of a k-subset on the model's seed"),
    ]:
        p = add(name, func, help=hlp)
        p.add_argument("model", help="model file, 'shark', or 'rect:k,n'")
        p.add_argument("subset", help="k-subset, e.g. 25 or 1,4,5,7")
        # valuation and kappa print a vector in face order, with nothing to reorder
        if name in ("partition", "flow"):
            p.add_argument("--order", help="comma-separated variable order override")

    p = add("mutate", cmd_mutate, help="mutate the seed along a vertex path")
    p.add_argument("model", help="model file, 'shark', or 'rect:k,n'")
    p.add_argument("--mutations", help="comma-separated vertex names")

    p = add("xcheck", cmd_xcheck,
            help="check flow polynomials against cluster mutation")
    p.add_argument("model", help="model file, 'shark', or 'rect:k,n'")
    p.add_argument("--mutations", help="comma-separated face names to move at")

    p = add("gt-cone", cmd_gt_cone, help="pattern cone or its lattice points")
    p.add_argument("--kn", required=True, help="instance, e.g. 2,4")
    p.add_argument("--level", type=int, help="enumerate points at this level")

    p = add("no-body", cmd_no_body, help="level-1 body points of the seed")
    p.add_argument("model", help="model file, 'shark', or 'rect:k,n'")

    p = add("superpotential", cmd_superpotential,
            help="potential in cluster variables, optionally mutated")
    p.add_argument("--kn", required=True, help="instance, e.g. 2,4")
    p.add_argument("--mutations", help="comma-separated vertex names")
    p.add_argument("--order", help="comma-separated variable order override")

    p = add("wx", cmd_wx, help="potential in simples variables")
    p.add_argument("--kn", required=True, help="instance, e.g. 2,4")
    p.add_argument("--order", help="comma-separated variable order override")

    p = add("verify", cmd_verify, help="run a verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(SUITES)}, all")
    p.add_argument("--kn", action="append",
                   help="instance, e.g. 2,4 (repeatable; default 2,4)")
    p.add_argument("--level", type=int,
                   help="max level for weyl-count (default 2)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    return build_parser()


# 128 + SIGPIPE, the status a shell reports for a pipeline stage whose
# reader went away (``plabicflow verify all | head -1``)
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    """Run one command; the return value is the process exit code."""
    try:
        rc = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again, as the Python docs advise for
        # SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return rc


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotMutable, NotPlabicMutable) as exc:
        print(f"error: not mutable: {exc}", file=sys.stderr)
        return 2
    except cones.Unbounded as exc:
        print(f"error: unbounded enumeration: {exc}", file=sys.stderr)
        return 2
    except plabic.MatchingBudgetExceeded as exc:
        # verify builds its models from --kn as rectangles models
        where = getattr(args, "model", None) or f"rect:{exc.k},{exc.n}"
        print(f"error: {where} has {exc}", file=sys.stderr)
        return 2
    except ModelInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NotLaurent) as exc:
        # bad input is refused as a UsageError where it is read, so these
        # are faults of the package, not of the request
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
