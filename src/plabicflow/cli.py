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
* ``no-body`` — level-1 body points of a seed, one per subset of the
  model's positroid
* ``superpotential`` / ``wx`` — the potential in cluster or simples variables
* ``verify`` — named verification suites with pass/fail reporting

Exit codes: 0 success, 1 verification failure, 2 usage error or a request
past the matching budget (``plabic.MATCHING_BUDGET``), 3 model invariant
violation or internal consistency fault.  Inside ``verify`` such a fault is
the FAIL line of the suite that met it, and the other suites still run, so
``verify`` exits 3 only when an instance's own model cannot be built.
The suites that check every one-step neighbour share a walk, made once:
``valuation-kappa`` and ``xflow`` the square moves, ``trop-a`` and
``exact-seq`` the seed's mutations.  A fault on a walk names its step
(``after move 124``, ``after mutation at 124``) or the steps made before
it (``at the move after [...]``, ``at the mutation after [...]``).
Output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from collections import namedtuple
from itertools import compress

from . import charts, cones, plabic, seeds, superpot
from .combinat import format_ksubset, ksubsets, parse_ksubset
from .laurent import LaurentPoly, NotLaurent, lp_substitute
from .plabic import ModelInvariantError, NotPlabicMutable, ParseError, PlabicModel

FORMATS = ("pretty", "json", "csv")
# Most lattice points ``gt-cone --level``, ``verify weyl-count``, ``verify
# trop-a`` or ``no-body`` enumerates in one request.  A level slice holds
# exactly ``cones.weyl_dim`` points, so the count is known before
# enumerating; the level-1 slice holds one point per k-subset.  232,848
# points, (4,8) at level 4, take 1.5-2.1 s CPU and 60 MB peak RSS as CSV,
# 84 MB as JSON, in process on a shared 2-vCPU x86 box with Python 3.11.
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
    """The identity map into a user-supplied permutation of the lattice.

    A token that is a lattice label (``q``, an edge name, a face of k = 1)
    stands alone in the list; see ``_parse_names``."""
    if order is None:
        return poly
    labels = tuple(_parse_names(order, k, n, "--order", set(poly.lattice)))
    if sorted(labels) != sorted(poly.lattice):
        raise UsageError(
            f"--order must be a permutation of {','.join(poly.lattice)}"
        )
    return lp_substitute(poly, {lab: {lab: 1} for lab in poly.lattice}, labels)


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
    if not charts.flow_counts(model, I):
        raise UsageError(
            f"{format_ksubset(I, model.n)} is outside the model's positroid: "
            "its flow polynomial is 0, which has no valuation"
        )
    _emit_vector(charts.valuation(model, I), args.format)
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
        # one row a vertex; its out-arrows as target:multiplicity, in arrow order
        outs: dict[str, list[str]] = {v: [] for v in q.vertices}
        for u, v, mult in q.arrows:
            outs[u].append(f"{v}:{mult}")
        out = _csv_writer()
        out.writerow(["vertex", "label", "frozen", "star", "arrows"])
        out.writerows([v, labels[v], int(v in q.frozen), int(v == q.star), ";".join(outs[v])]
                      for v in q.vertices)
    return 0


def _xcheck_one(model: PlabicModel, tag: str, j: str, moved: PlabicModel) -> str | None:
    """The FAIL detail, led by tag, of the first boundary value I in the
    positroid of just one of the model and its move at the face named j,
    else of the first I at which mutation at j does not carry the moved
    model's flow counts back to those of the original model, or None.  The
    flows read both models' matching tables, so the positroids are compared
    here and not in ``plabic.square_move``."""
    P = plabic.positroid(model)
    changed = sorted(set(P) ^ set(plabic.positroid(moved)))
    if changed:
        return (f"{tag}: the move at {j} changes the positroid at "
                f"I={format_ksubset(changed[0], model.n)}")
    step = charts.XStep(model, j, moved)
    for I in P:
        image = charts.x_mutate(step, charts.flow_counts(moved, I))
        if image != charts.flow_counts(model, I):
            return (f"{tag}: mutation at {j} disagrees with flows at "
                    f"I={format_ksubset(I, model.n)}")
    return None


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
        bad = _xcheck_one(cur, j, j, moved)
        where = args.model + (f" after {','.join(path[:i])}" if i else "")
        if bad:
            emit(f"FAIL xcheck {bad}", "xcheck", where, False, bad)
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
    # at most one level-1 point per k-subset: weyl_dim(k, n, 1) = C(n, k)
    _check_point_budget(model.k, model.n, [1], "no-body")
    s = seeds.seed_of_model(model)
    pts = cones.no_body_level1(s, plabic._positroid_subsets(model))
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
    # the relations ask about every boundary value: one table serves them
    # all; each chart counts the matchings of I, so P_I(1) = F_I(1)
    for I in plabic.positroid(model):
        p = sum(charts.edge_counts(model, I).values())
        f = sum(charts.flow_counts(model, I).values())
        if p != f:
            return False, f"{tag}: I={format_ksubset(I, model.n)} P_I(1) = {p} != F_I(1) = {f}"
    for rel in charts.three_term_relations(model.k, model.n):
        if not charts.plucker_verify(model, rel):
            a, b, c, d, S = rel
            S = f";S={format_ksubset(S, model.n)}" if S else ""
            return False, f"relation ({a},{b},{c},{d}{S}) fails on {tag}"
    return True, f"{tag} all three-term relations, both charts"


def _val_kappa_mismatch(model: PlabicModel, tag: str) -> str | None:
    """The FAIL detail of the first boundary value whose flow valuation is
    not its κ vector, or None.  The two are compared packed: κ less the
    star's 0, packed as a face weight, against ``charts.flow_least``.  A κ
    entry is at most min(k, n - k), below every field's bias, so it packs."""
    s = seeds.seed_of_model(model)
    q = s.quiver
    keep = [v != q.star for v in q.vertices]
    P = plabic.positroid(model)  # the table first: the face graph reads it
    pack = plabic.face_graph(model).pack
    for I in P:
        if charts.flow_least(model, I) != pack(compress(seeds._kappa_column(s, I), keep)):
            v = charts.valuation(model, I)
            kappa = seeds.kappa_vector(s, I)
            kv = {a: kappa[a] for a in q.lattice}
            return f"{tag}: I={format_ksubset(I, model.n)} valuation {v} != kappa {kv}"
    return None


# a walk over a model's one-step neighbours, (name, neighbour) pairs, and where
# a fault on it arose: checking the step at j, or making the one after those done
_Walk = namedtuple("_Walk", "neighbours after broken")

# a suite on a walk: start(model, tag) is the instance's FAIL detail, or else
# the check of one step, (j, neighbour) -> a FAIL detail or None
_WalkingSuite = namedtuple("_WalkingSuite", "walk start passed")

# what a check may raise on a model it cannot make sense of, or on a fault
# of the package (bad input is refused as a UsageError where it is read):
# under ``verify`` it fails the suite that met it, and elsewhere it exits 3
_FAULTS = (ModelInvariantError, NotLaurent, ValueError)


def _fault(exc: Exception) -> str:
    """A fault as it reads on stderr and in a FAIL detail."""
    if isinstance(exc, ModelInvariantError):
        return f"invariant violation: {exc}"
    return f"internal error: {exc}"


def _checked(where: str, check, *args):
    """``check(*args)``; a fault it raises is the FAIL detail
    ``where: <fault>``."""
    try:
        return check(*args)
    except _FAULTS as exc:
        return f"{where}: {_fault(exc)}"


def _walk(model: PlabicModel, tag: str, walk: _Walk, names: list[str]) -> dict:
    """suite name -> (ok, detail) for the named suites on the walk, from one
    pass: each step is made once, checked by every suite not yet failed,
    and dropped before the next is made.  A fault raised by a check fails
    its suite, naming the step; one raised making a step fails every suite
    not yet failed, naming the steps made before it (``square_move`` names
    the face in its own violations)."""
    names = [name for name in names if SUITES[name].walk is walk]
    steps = {name: _checked(tag, SUITES[name].start, model, tag) for name in names}
    failed = {name: bad for name, bad in steps.items() if isinstance(bad, str)}
    done, neighbours = [], None
    while len(failed) < len(names):
        try:
            # made at the first step: a walk no suite reads is never made, and
            # a fault making it is met here
            neighbours = neighbours or walk.neighbours(model)
            j, moved = next(neighbours)
        except StopIteration:
            break
        except _FAULTS as exc:
            bad = f"{walk.broken.format(tag=tag, done=','.join(done))}: {_fault(exc)}"
            failed.update((name, bad) for name in names if name not in failed)
            break
        for name in names:
            if name not in failed and (bad := _checked(
                    walk.after.format(tag=tag, j=j), steps[name], j, moved)):
                failed[name] = bad
        del moved  # so the next step is made with none held
        done.append(j)
    return {name: (False, failed[name]) if name in failed else
            (True, SUITES[name].passed.format(tag=tag, done=",".join(done)))
            for name in names}


_MOVES = _Walk(lambda model: plabic.square_moves(model),
               "{tag} after move {j}", "{tag} at the move after [{done}]")
_MUTATIONS = _Walk(lambda model: seeds.seed_mutations(seeds.seed_of_model(model)),
                   "{tag} after mutation at {j}", "{tag} at the mutation after [{done}]")


def _trop_a(model: PlabicModel, tag: str):
    """trop-a's κ table on the seed, made once, and its check of one
    mutation: κ carried by tropical A-mutation, the involution on random
    points, and the rectangles potential (verify's models are rectangles
    models) mutated there and back by ``a_mutate_w``."""
    s = seeds.seed_of_model(model)
    q = s.quiver
    base = {I: seeds.kappa_vector(s, I) for I in ksubsets(s.n, s.k)}
    W = superpot.w_rectangles(s.k, s.n)

    def step(j: str, s2: seeds.Seed) -> str | None:
        j2 = next(iter(set(s2.labels) - set(s.labels)))
        for I, kv in base.items():
            moved = seeds.trop_a_mutate(q, j, kv)
            want = seeds.kappa_vector(s2, I)
            want = {j if a == j2 else a: b for a, b in want.items()}
            if moved != want:
                return f"{tag} at {j}, I={format_ksubset(I, s.n)}: {moved} != {want}"
        # mutating back at j2 on the mutated seed's quiver gives v back
        rng = random.Random(0)
        for _ in range(50):
            v = {x: rng.randint(-5, 5) for x in q.vertices}
            v[q.star] = 0
            moved = {j2 if a == j else a: b for a, b in seeds.trop_a_mutate(q, j, v).items()}
            back = seeds.trop_a_mutate(s2.quiver, j2, moved)
            if {j if a == j2 else a: b for a, b in back.items()} != v:
                return f"{tag} at {j}: double mutation moved {v}"
        try:
            back = superpot.a_mutate_w(s2, superpot.a_mutate_w(s, W, j), j2)
        except NotPlabicMutable as exc:
            return f"{tag} at {j}: the potential cannot mutate back at {j2}: {exc}"
        if diff := _first_difference(back.poly, W.poly):
            mono, a, b = diff
            return (f"{tag} at {j} and back at {j2}: coefficient of {mono} "
                    f"is {a}, {b} in the potential")
        return None

    return step


def _exact_seq(model: PlabicModel, tag: str):
    # every check is a call of ``exact_sequence_checks``, the span a trace
    # books it under; the witness is sought again only after a failure
    s = seeds.seed_of_model(model)
    if not seeds.exact_sequence_checks(s):
        return f"{tag} on the seed: {seeds._exact_sequence_witness(s)}"
    return lambda j, s2: None if seeds.exact_sequence_checks(s2) else (
        f"{tag} after mutation at {j}: {seeds._exact_sequence_witness(s2)}")


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
    mono, a, b = _first_difference(*superpot.wformula_sides(model.k, model.n))
    return False, (f"{tag}: coefficient of {mono} is {a} in the "
                   f"expansion, {b} in the potential")


def _first_difference(f: LaurentPoly, g: LaurentPoly) -> tuple[str, int, int] | None:
    """The first monomial, in term order, whose coefficients in f and g
    differ, written in p variables, and its coefficient in each; None when
    f = g."""
    a, b = dict(f.terms), dict(g.terms)
    odd = [x for x in a.keys() | b.keys() if a.get(x, 0) != b.get(x, 0)]
    if not odd:
        return None
    e = min(odd)
    return LaurentPoly.make(f.lattice, {e: 1}).pretty("p"), a.get(e, 0), b.get(e, 0)


def _suite_weyl_count(model: PlabicModel, tag: str, level: int):
    k, n = model.k, model.n
    cone = cones.gt_inequalities(k, n)
    for r in range(level + 1):
        got = cones.count_lattice_points(cone, r)
        want = cones.weyl_dim(k, n, r)
        if got != want:
            return False, f"{tag} level {r}: {got} points != dimension {want}"
    if level >= 1:
        # the level-1 slice is exactly the kappa points, one per k-subset
        table = cones.kappa_table(k, n)
        points = set(cones.lattice_points(cone, 1))
        odd = points ^ table.keys()
        if odd:
            p = min(odd)
            if p in points:
                return False, f"{tag} level 1: lattice point {p} is no kappa point"
            I = format_ksubset(table[p], n)
            return False, f"{tag} level 1: kappa point {p} of {I} is outside the slice"
        size = cones.weyl_dim(k, n, 1)
        if len(table) != size:
            return False, (f"{tag} level 1: {len(table)} kappa points for "
                           f"{size} k-subsets: two share a point")
    return True, f"{tag} point counts match dimensions for levels 0..{level}"


# suite name -> suite(model, tag, level) -> (ok, detail), or a _WalkingSuite
SUITES = {
    "plucker": _suite_plucker,
    "valuation-kappa": _WalkingSuite(
        _MOVES, lambda model, tag: _val_kappa_mismatch(model, tag) or (
            lambda j, moved: _val_kappa_mismatch(moved, f"{tag} after move {j}")),
        "{tag} base and after moves [{done}]"),
    "xflow": _WalkingSuite(
        _MOVES, lambda model, tag: functools.partial(_xcheck_one, model, tag),
        "{tag} flow/mutation agree at [{done}]"),
    "trop-a": _WalkingSuite(_MUTATIONS, _trop_a, "{tag} kappa-compatibility and involution"),
    "exact-seq": _WalkingSuite(
        _MUTATIONS, _exact_seq,
        "{tag} wt.beta = -id on the seed and after mutations [{done}]"),
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
    for k, n in instances:
        if "weyl-count" in chosen:
            _check_point_budget(k, n, range(level + 1), "verify weyl-count")
        # trop-a tabulates one kappa vector per k-subset, C(n, k) of them
        if "trop-a" in chosen:
            _check_point_budget(k, n, [1], "verify trop-a")
    walking = [s for s in chosen if isinstance(SUITES[s], _WalkingSuite)]
    emit = _record_writer(args.format)
    all_ok = True
    for k, n in instances:
        # one model per instance, shared by the suites and their memos
        model = plabic.build_rectangles_model(k, n)
        tag = f"rect:{k},{n}"
        walked = {**_walk(model, tag, _MOVES, walking),
                  **_walk(model, tag, _MUTATIONS, walking)}
        for suite in chosen:
            result = walked.get(suite) or _checked(tag, SUITES[suite], model, tag, level)
            ok, detail = (False, result) if isinstance(result, str) else result
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

    p = add("no-body", cmd_no_body,
            help="level-1 body points of the seed, one per positroid subset")
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
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotPlabicMutable as exc:
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
    except _FAULTS as exc:
        print(_fault(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
