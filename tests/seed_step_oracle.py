"""The routes that seed mutation and the exact-sequence check replaced, kept
as test oracles.

``oracle_mutate_labels`` is the child made whole: every vertex sorted by
its label, the matrix rule over every arrow with the corner rule at the
frozen pairs (``full_fz_counts``), the one ``make_quiver`` over the
renamed counts and ``Seed(...)``, which checks and masks every label
again.  ``seeds.mutate_labels`` builds the child from its parent.  The
oracle reads the arrows at j straight off ``Quiver.arrows``
(``arrows_at``), and ``set_exchange_label`` finds the exchanged label on
sets, so neither shares code with the package's read of them.

``dict_exact_sequence_witness`` is the exact-sequence check over the
column map ``seeds.beta_columns``, the κ columns of ``seeds._kappa_column``
and a width from the merged columns; ``seeds._exact_sequence_witness``
makes one pass over beta's entries by vertex position.  ``arrow_beta``
builds beta's column map straight from the arrows, the route
``seeds.beta_columns`` replaced.
"""

from plabicflow import seeds
from plabicflow.combinat import _mask, crossing_partner, format_ksubset
from plabicflow.plabic import ModelInvariantError, NotPlabicMutable, _field_size


def arrows_at(q, j):
    """The arrows at j as maps in-neighbour -> multiplicity and
    out-neighbour -> multiplicity, read off ``q.arrows``; an unknown or a
    frozen j is refused as ``seeds.exchange_pairs`` refuses it."""
    if j not in q.vertices:
        raise ModelInvariantError("unknown-node", f"no vertex {j}")
    if j in q.frozen:
        raise NotPlabicMutable(f"vertex {j} is frozen")
    return ({u: m for u, v, m in q.arrows if v == j},
            {v: m for u, v, m in q.arrows if u == j})


def set_exchange_label(q, labels, j):
    """``seeds.exchange_label`` on sets of elements."""
    in_mult, out_mult = arrows_at(q, j)
    ins = [labels[u] for u, mult in in_mult.items() for _ in range(mult)]
    outs = [labels[v] for v, mult in out_mult.items() for _ in range(mult)]
    if len(ins) != 2 or len(outs) != 2:
        raise NotPlabicMutable(
            f"vertex {j} has {len(ins)} in-arrows and {len(outs)} out-arrows"
        )
    S = set(ins[0]) & set(ins[1])
    quad = (set(ins[0]) | set(ins[1])) - S
    if set(outs[0]) & set(outs[1]) != S or (set(outs[0]) | set(outs[1])) - S != quad:
        raise NotPlabicMutable(f"neighbor labels of {j} do not share a quadruple")
    pair = set(labels[j]) - S
    if len(quad) != 4 or len(pair) != 2 or not pair <= quad or set(labels[j]) != S | pair:
        raise NotPlabicMutable(f"label of {j} does not match its neighborhood")
    return tuple(sorted(S | (quad - pair)))


def oracle_label_exchange(s, j):
    """The partner's name, the labels with j's exchanged, and the vertices
    with j renamed, sorted by label."""
    new_label = seeds.exchange_label(s.quiver, s.labels, j)
    new_name = format_ksubset(new_label, s.n)
    if new_label in s.labels.values():
        raise ModelInvariantError("duplicate-label", f"{new_name} already a label")
    labels = {v: lab for v, lab in s.labels.items() if v != j}
    labels[new_name] = new_label
    vertices = sorted((new_name if v == j else v for v in s.quiver.vertices),
                      key=labels.__getitem__)
    return new_name, labels, tuple(vertices)


def full_fz_counts(q, j):
    """Arrow counts of seed mutation of q at j over every arrow: the
    arrows at j reversed, and for each 2-path u -> j -> v of
    multiplicities mu and mv, the matrix rule's net count mu * mv added to
    u -> v where u or v is mutable.  Where both are frozen the arrows may
    run both ways, and the dimer corner rule moves mu * mv arrows v -> u
    to u -> v; too few v -> u arrows is a ``corner-structure`` fault."""
    ins, outs = arrows_at(q, j)
    frozen = q.frozen
    counts = {((v, u) if j in (u, v) else (u, v)): mult for u, v, mult in q.arrows}
    for u, mu in ins.items():
        for v, mv in outs.items():
            if u in frozen and v in frozen:
                if counts.get((v, u), 0) < mu * mv:
                    raise ModelInvariantError(
                        "corner-structure", f"no arrow {v} -> {u} at a corner of {j}")
                counts[(v, u)] -= mu * mv
                counts[(u, v)] = counts.get((u, v), 0) + mu * mv
                continue
            net = counts.pop((u, v), 0) - counts.pop((v, u), 0) + mu * mv
            if net:
                counts[(u, v) if net > 0 else (v, u)] = abs(net)
    return counts


def oracle_mutate_labels(s, j):
    """``seeds.mutate_labels`` with the child made whole."""
    new_name, labels2, vertices = oracle_label_exchange(s, j)
    i = s.quiver.vertices.index(j)
    others = s.masks[:i] + s.masks[i + 1:]
    partner = crossing_partner(_mask(labels2[new_name]), others)
    if partner is not None:
        partner += partner >= i
        raise ModelInvariantError(
            "labels-not-weakly-separated",
            f"after exchanging {j} -> {new_name}, which crosses "
            f"{format_ksubset(s.vertex_labels[partner], s.n)}",
        )
    q = s.quiver
    rn = lambda x: new_name if x == j else x
    counts = full_fz_counts(q, j)
    q2 = seeds.make_quiver(vertices, q.frozen, q.star,
                           {(rn(u), rn(v)): m for (u, v), m in counts.items()})
    return seeds.Seed(s.k, s.n, q2, labels2)


def arrow_beta(s):
    """beta's column map read straight off the arrows, with the same
    ``beta-unbalanced`` check as ``seeds.beta_columns``."""
    q = s.quiver
    cols = {v: {} for v in q.vertices}

    def bump(col, row, c):
        col[row] = col.get(row, 0) + c
        if col[row] == 0:
            del col[row]

    for u, v, mult in q.arrows:
        bump(cols[u], v, -mult)
        if v not in q.frozen or u not in q.frozen:
            bump(cols[v], u, mult)
    for v in q.frozen:
        bump(cols[v], v, 1)
    rowsum = {}
    for colmap in cols.values():
        for row, c in colmap.items():
            rowsum[row] = rowsum.get(row, 0) + c
    if row := next((v for v in q.vertices if rowsum.get(v)), None):
        raise ModelInvariantError(
            "beta-unbalanced",
            f"beta row {row} sums to {rowsum[row]}, not 0: all-ones vector "
            "not annihilated; seed outside the supported class",
        )
    return cols


def dict_exact_sequence_witness(s):
    """``seeds._exact_sequence_witness`` over beta's column map: the row
    check where the map is made, then the column sums, then the κ columns
    (``bad-label`` at the star) packed at the width of the largest
    Σ|beta| of a merged column, and column v of wt . beta summed over the
    entries of column v."""
    q = s.quiver
    cols = seeds.beta_columns(s)
    for v, colmap in cols.items():
        if total := sum(colmap.values()):
            return f"beta column {v} sums to {total}, not 0"
    wt = [seeds._kappa_column(s, J) for J in s.vertex_labels]
    top = max(map(max, wt))
    reach = max(sum(map(abs, colmap.values())) for colmap in cols.values())
    width = 8 * _field_size(1 + reach * top)
    packed = {v: sum(x << width * i for i, x in enumerate(col))
              for v, col in zip(q.vertices, wt)}
    for i, v in enumerate(q.vertices):
        if v == q.star:
            continue
        acc = 1 << (width * i)
        for w, c in cols[v].items():
            acc += c * packed[w]
        if acc:
            r = ((acc & -acc).bit_length() - 1) // width
            d = (acc >> (width * r)) & ((1 << width) - 1)
            d -= d >> (width - 1) << width
            want = -1 if r == i else 0
            return (f"wt.beta column {v}, row {q.vertices[r]} is {d + want}, "
                    f"not {want}")
    return None
