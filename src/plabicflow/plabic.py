"""Bipartite graphs on the disc: faces, dual quivers, matchings, flows, moves.

A model is a bicolored plane graph embedded in a disc, given combinatorially
by rotation systems (counterclockwise edge order at each internal node) plus
``n`` boundary stubs whose endpoints sit on the disc boundary, labelled
1..n clockwise.  Faces are recovered by closing the disc with virtual
boundary arcs and tracing dart orbits; every face carries the k-subset
label read off the model's trips, and the gap face between stubs n and 1,
which carries the Grassmann necklace's first element N_1, is the star (the
base face, written ``*`` informally).  ``analyze`` does this in one pass over
integer darts: dart 2x + d runs along edge or arc x, and one walk of each
rotation gives every dart its face successor and, into a node, its trip
successor (the previous edge at a black node, the next at a white one).

The module provides the dimer-model layer: perfect matchings (internal
nodes covered exactly once), their boundary values and face weights, the
equivalent flow picture, the quadrilateral move, and a builder for the
rectangles model of the (k, n) grid.  The matching layer takes analysed
models only, and its flows against the one base matching are boundary
paths (``FaceGraph``).

Three conventions carry the matching layer, and each is decided once.  The
edge order is ``Analysis.edges``, the edge ids sorted: bit i of an edge
mask, dual arrow i and edge variable i stand for its i-th edge.  Which end
of an edge is black is ``Analysis.black_white``, where a boundary tip takes
the color opposite its node.  The boundary sense, l in a matching's
boundary value iff stub l is used xor l is clockwise (Postnikov,
math/0609764), is encoded and decoded by the matching frontier
(``_Frontier.stub_bits`` and ``_Frontier.boundary``).
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .combinat import (
    KSubset,
    cyclic_interval,
    format_ksubset,
    ksubsets,
    parse_ksubset,
)
from .laurent import Packing, _field_size

BLACK = "black"
WHITE = "white"


class ModelInvariantError(Exception):
    """A named structural invariant of a model failed."""

    def __init__(self, violation: str, detail: str = ""):
        self.violation = violation
        self.detail = detail
        super().__init__(f"{violation}: {detail}" if detail else violation)


class ParseError(Exception):
    """Malformed model text; carries the 1-based line number."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class NotPlabicMutable(Exception):
    """The requested move or mutation is not available at this face or vertex."""


# An edge end is ("n", node_id) or ("t", boundary_label:int).
End = tuple[str, object]
# A dart is (edge_key, direction); direction 0 runs ends[0] -> ends[1].
# Edge keys are ("e", edge_id) for real edges, ("a", l) for boundary arcs.


@dataclass(frozen=True)
class PlabicModel:
    """A model.  Its maps are read-only copies taken at construction, and
    every field of its analysis but the memo is read-only, so nothing
    derived from a model can go stale: what it is derived from cannot
    change.  ``analyze`` alone sets ``_analysis``, None until then.  A
    model names no star: ``analyze`` takes the gap face between stubs n
    and 1."""

    k: int
    n: int
    colors: Mapping[str, str]  # internal node id -> BLACK | WHITE
    edges: Mapping[str, tuple[End, End]]
    rot: Mapping[str, tuple[str, ...]]  # node id -> CCW incident edge ids
    _analysis: Analysis | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "colors", MappingProxyType(dict(self.colors)))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "rot", MappingProxyType(
            {v: tuple(r) for v, r in self.rot.items()}))


@dataclass(frozen=True)
class Face:
    index: int
    darts: tuple  # darts whose right side is this face, in orbit order
    edge_ids: frozenset  # real edges on the boundary of the face
    label: KSubset
    gap: int | None  # l when this is the gap face between stubs l, l+1


@dataclass(frozen=True)
class Analysis:
    """A model's faces, labels, dual arrows and boundary orientation, each
    recorded once in a read-only field.  The one mutable part is
    ``_derived``, the memo that only ``derive`` writes."""

    faces: tuple[Face, ...]
    label_to_face: Mapping[KSubset, int]
    star: int  # the gap face between stubs n and 1
    edges: tuple[str, ...]  # the edge order: the edge ids sorted
    black_white: tuple[tuple[End, End], ...]  # (black end, white end) by edge
    arrows: tuple[tuple[str, int, int], ...]  # (edge id, source face, target face)
    anticlockwise: frozenset[int]
    lattice: tuple[KSubset, ...]  # face labels in subset order
    adjacency: FaceAdjacency
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    def derive(self, key, build):
        """The model's quantity named ``key``, made by ``build()`` on the
        first request and kept for the model's lifetime.  Every quantity
        derived from a model past its analysis (matching frontier, matching
        table or lists of one boundary value, face graph, flow table or
        the flow counts of one boundary value, edge charts, the polynomial
        views made from both charts for printing, face names, seed) is
        kept here and nowhere else, and each once: face weights are kept
        only as the packed keys of the flow counts.
        A build that raises keeps nothing, so the next request builds
        again."""
        try:
            return self._derived[key]
        except KeyError:
            pass
        value = self._derived[key] = build()
        return value

    def kept(self, key):
        """The quantity named ``key`` if it has been built, else None;
        builds nothing."""
        return self._derived.get(key)


@dataclass(frozen=True)
class FaceAdjacency:
    """Faces joined across the dual arrows, with edge bit i for arrow i:
    ``nbrs[f]`` holds (face bit, edge bit) per arrow at face f,
    ``around[f]`` the union of those face bits and ``edges_at[f]`` of the
    edge bits.  ``analyze`` builds it with the arrows."""

    nbrs: tuple[tuple[tuple[int, int], ...], ...]
    around: tuple[int, ...]
    edges_at: tuple[int, ...]

    def region(self, seeds: int, blocked: int) -> int:
        """The faces reached from the face mask ``seeds`` across edges
        outside the edge mask ``blocked``, as a face mask."""
        nbrs, around, edges_at = self.nbrs, self.around, self.edges_at
        region = todo = seeds
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            if edges_at[u] & blocked:
                reach = 0
                for fbit, ebit in nbrs[u]:
                    if not blocked & ebit:
                        reach |= fbit
            else:
                reach = around[u]
            todo |= reach & ~region
            region |= reach
        return region


def _tip_vertex(e: str, end, V: int, n: int) -> int:
    """The vertex int of an edge end that names no known node: tip l is
    V + l - 1.  Raises the violation of an unknown node, of an end that is
    neither a node nor a tip, and of a label outside 1..n."""
    if end[0] == "n":
        raise ModelInvariantError("unknown-node", f"edge {e}: {end[1]}")
    if end[0] != "t":
        raise ModelInvariantError("bad-end", f"edge {e}: {end}")
    if not (1 <= end[1] <= n):
        raise ModelInvariantError("bad-boundary-labels", f"edge {e}: label {end[1]}")
    return V + end[1] - 1


def analyze(model: PlabicModel) -> Analysis:
    """The model's analysis, made on the first call and kept on the model.

    One pass over integer darts.  The disc is closed up with a tip per
    boundary label and an arc per l = 1..n, from tip l to tip l + 1
    (cyclically), and tip l's rotation is arc l - 1, stub l, arc l.  The
    keys are the edges, in ``Analysis.edges`` order, then the arcs 1..n;
    dart 2x + d runs along key x from its end d to its end 1 - d, so
    dart ^ 1 is its reverse.  Node i of ``colors`` is vertex i and tip l is
    vertex V + l - 1.  One walk of each rotation gives every dart into a
    vertex its face successor, the dart out along the next edge
    counterclockwise, and every dart into a node its trip successor, the
    dart out along the previous edge at a black node and the next at a
    white one.  The faces are the orbits of the face successor but the
    outer one (the arcs run backwards), numbered in the ``str`` order of
    the keys ("e", id) and ("a", l) they are traced from; ``Face.darts``
    names dart 2x + d as (key, d) in that form.

    A model that breaks an invariant raises ModelInvariantError naming it,
    first found first: a color, the rotation keys, each edge's ends and
    colors (in the model's edge order), each node's rotation against its
    edges, connectivity, the boundary labels, the gap faces, each face's
    label and the boundary arrows.  The star is the gap face between stubs
    n and 1, which the gap-face check guarantees.
    """
    if model._analysis is not None:
        return model._analysis
    k, n, colors, rot, model_edges = model.k, model.n, model.colors, model.rot, model.edges
    for v, c in colors.items():
        if c not in (BLACK, WHITE):
            raise ModelInvariantError("bad-color", f"node {v}: {c}")
    if rot.keys() != colors.keys():
        raise ModelInvariantError("rotation-coverage", "rot keys != node set")

    V = len(colors)
    vertex = {v: i for i, v in enumerate(colors)}
    black = [c == BLACK for c in colors.values()]
    edges = tuple(sorted(model_edges))
    E = len(edges)
    key = {e: x for x, e in enumerate(edges)}
    tail = [0] * (2 * E)  # the vertex each dart of an edge leaves
    leaving: list[dict[str, int]] = [{} for _ in range(V)]  # edge id -> dart out
    # the vertices each node, and each tip an edge names, is joined to
    joined: dict[int, list[int]] = {u: [] for u in range(V)}
    stub_of: dict[int, int] = {}  # tip label -> key of its edge
    duplicate = None  # the first tip label met twice
    for e, (a, b) in model_edges.items():
        u = vertex.get(a[1]) if a[0] == "n" else None
        if u is None:
            u = _tip_vertex(e, a, V, n)
        w = vertex.get(b[1]) if b[0] == "n" else None
        if w is None:
            w = _tip_vertex(e, b, V, n)
        x = key[e]
        tail[2 * x], tail[2 * x + 1] = u, w
        if u < V and w < V:
            if black[u] == black[w]:
                raise ModelInvariantError("bipartite", f"edge {e} joins equal colors")
            leaving[u][e], leaving[w][e] = 2 * x, 2 * x + 1
        else:
            if u >= V and w >= V:
                raise ModelInvariantError("edge-both-boundary", f"edge {e}")
            if u < V:
                leaving[u][e], tip = 2 * x, w
            else:
                leaving[w][e], tip = 2 * x + 1, u
            l = tip - V + 1
            if l not in stub_of:
                stub_of[l] = x
            elif duplicate is None:
                duplicate = l
            joined.setdefault(tip, [])
        joined[u].append(w)
        joined[w].append(u)

    succ = [0] * (2 * E)  # dart -> the next dart of the face on its right
    trip = [-1] * (2 * E)  # dart into a node -> the dart its trip leaves by
    for u, v in enumerate(colors):
        r, out = rot[v], leaving[u]
        if len(r) != len(out) or out.keys() != set(r):
            raise ModelInvariantError(
                "rotation-mismatch", f"node {v}: rot {r} vs incident {sorted(out)}")
        if not r:
            continue
        prev = out[r[-1]]
        if black[u]:
            for e in r:
                d = out[e]
                succ[prev ^ 1] = d
                trip[d ^ 1] = prev
                prev = d
        else:
            for e in r:
                d = out[e]
                succ[prev ^ 1] = trip[prev ^ 1] = d
                prev = d

    if model_edges:
        start = tail[2 * key[next(iter(model_edges))]]
        seen = {start}
        todo = [start]
        while todo:
            for w in joined[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(joined):
            names = list(colors)
            missing = sorted(("n", names[u]) if u < V else ("t", u - V + 1)
                             for u in joined if u not in seen)
            raise ModelInvariantError("disconnected", f"missing {missing}")
    if duplicate is not None:
        raise ModelInvariantError("duplicate-boundary-label", f"label {duplicate}")
    # checked before anything is built per boundary label, so a huge n in
    # the kn line costs nothing
    if len(stub_of) != n or set(stub_of) != set(range(1, n + 1)):
        raise ModelInvariantError(
            "bad-boundary-labels", f"have {sorted(stub_of)}, expected 1..{n}")

    succ += [0] * (2 * n)
    starts = [0] * (n + 1)  # tip l -> its stub's dart out of it
    for l in range(1, n + 1):
        x = stub_of[l]
        starts[l] = d = 2 * x if tail[2 * x] == V + l - 1 else 2 * x + 1
        arc, arc_back = 2 * (E + l - 1), 2 * (E + (l - 2) % n) + 1
        succ[arc_back ^ 1] = d
        succ[d ^ 1] = arc
        succ[arc ^ 1] = arc_back

    # every arc run backwards, tip l + 1 to tip l, is the outer face
    face = [-1] * (2 * (E + n))
    face[2 * E + 1::2] = [-2] * n
    keys = [("e", e) for e in edges] + [("a", l) for l in range(1, n + 1)]
    orbits: list[list[int]] = []
    for x in sorted(range(E + n), key=lambda x: str(keys[x])):
        for start in (2 * x, 2 * x + 1):
            if face[start] != -1:
                continue  # on an orbit already traced
            f = len(orbits)
            orbit = [start]
            face[start] = f
            d = succ[start]
            while d != start:
                orbit.append(d)
                face[d] = f
                d = succ[d]
            orbits.append(orbit)
    F = len(orbits)
    gap: list[int | None] = [None] * F
    for l in range(1, n + 1):
        f = face[2 * (E + l - 1)]
        if gap[f] is not None:
            for orbit in orbits:
                arcs = [(d >> 1) - E + 1 for d in orbit if d >= 2 * E]
                if len(arcs) > 1:
                    raise ModelInvariantError(
                        "gap-structure", f"face with two arcs {arcs[0]},{arcs[1]}")
        gap[f] = l
    gap_face = {l: f for f, l in enumerate(gap) if l is not None}

    # the one place that says which end of an edge is black (a tip takes the
    # color opposite its node), and one dual arrow per edge, from the face
    # right of its black-to-white dart to the face right of its
    # white-to-black one
    black_white, arrows = [], []
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(F)]
    around, edges_at = [0] * F, [0] * F
    for x, e in enumerate(edges):
        a, b = model_edges[e]
        u = tail[2 * x]
        if black[u] if u < V else not black[tail[2 * x + 1]]:
            s, t = face[2 * x], face[2 * x + 1]
            black_white.append((a, b))
        else:
            s, t = face[2 * x + 1], face[2 * x]
            black_white.append((b, a))
        arrows.append((e, s, t))
        sbit, tbit, ebit = 1 << s, 1 << t, 1 << x
        nbrs[s].append((tbit, ebit))
        nbrs[t].append((sbit, ebit))
        around[s] |= tbit
        around[t] |= sbit
        edges_at[s] |= ebit
        edges_at[t] |= ebit
    adjacency = FaceAdjacency(tuple(map(tuple, nbrs)), tuple(around), tuple(edges_at))

    # Postnikov's target labelling, read off the trips.  The trip from tip l
    # leaves it by starts[l] and follows ``trip`` until it reaches a tip j.
    # A face carries j iff it lies left of that trip: the faces left of the
    # trip's darts (right of their reverses), flooded across every edge the
    # trip does not use.
    left = [0] * (n + 1)  # j -> mask of the faces left of the trip ending at j
    for l in range(1, n + 1):
        d = starts[l]
        path = seeds = 0
        while True:
            path |= 1 << (d >> 1)
            seeds |= 1 << face[d ^ 1]
            nxt = trip[d]
            if nxt < 0:
                break
            d = nxt
        left[tail[d ^ 1] - V + 1] = adjacency.region(seeds, path)
    labels: list[list[int]] = [[] for _ in range(F)]
    for j in range(1, n + 1):
        mask = left[j]
        while mask:
            low = mask & -mask
            labels[low.bit_length() - 1].append(j)
            mask ^= low

    darts = [(kx, d) for kx in keys for d in (0, 1)]  # dart int -> dart
    E2 = 2 * E
    faces: list[Face] = []
    label_to_face: dict = {}
    for f, (orbit, label) in enumerate(zip(orbits, labels)):
        label = tuple(label)
        edge_ids = frozenset([edges[d >> 1] for d in orbit if d < E2])
        if len(label) != k:
            raise ModelInvariantError(
                "bad-label",
                f"face bounded by {sorted(edge_ids)} lies left of "
                f"{len(label)} trips, not k = {k}",
            )
        if label in label_to_face:
            raise ModelInvariantError("duplicate-label", format_ksubset(label, n))
        label_to_face[label] = f
        faces.append(Face(f, tuple(map(darts.__getitem__, orbit)), edge_ids, label, gap[f]))

    # orientation class per boundary edge
    anticlockwise = []
    for l in range(1, n + 1):
        prev = n if l == 1 else l - 1
        _, s, t = arrows[stub_of[l]]
        if (s, t) == (gap_face[l], gap_face[prev]):
            anticlockwise.append(l)
        elif (s, t) != (gap_face[prev], gap_face[l]):
            raise ModelInvariantError(
                "boundary-arrow", f"stub {l} arrow {s}->{t} not between gap faces"
            )

    analysis = Analysis(
        tuple(faces),
        MappingProxyType(label_to_face),
        gap_face[n],
        edges,
        tuple(black_white),
        tuple(arrows),
        frozenset(anticlockwise),
        tuple(sorted(label_to_face)),
        adjacency,
    )
    object.__setattr__(model, "_analysis", analysis)
    return analysis


# ----------------------------------------------------------------- text I/O


def _format_end(end: End) -> str:
    return f"n:{end[1]}" if end[0] == "n" else f"b:{end[1]}"


def _parse_end(tok: str, line_no: int) -> End:
    if tok.startswith("n:"):
        return ("n", tok[2:])
    if tok.startswith("b:"):
        try:
            return ("t", int(tok[2:]))
        except ValueError:
            raise ParseError(line_no, f"bad boundary label in {tok!r}") from None
    raise ParseError(line_no, f"bad edge end {tok!r} (want n:<node> or b:<label>)")


def _text_id(name: str) -> bool:
    """Whether a node or edge id can be written in the text format: one
    token, with no ``#`` (a comment) and no ``,`` (label and star lines
    join edge ids with it)."""
    return name.split() == [name] and "#" not in name and "," not in name


def save_model(model: PlabicModel) -> str:
    bad = [name for name in (*model.colors, *model.edges) if not _text_id(name)]
    if bad:
        raise ModelInvariantError(
            "unrepresentable", f"id {bad[0]!r} is not one token free of ',' and '#'")
    an = analyze(model)
    seen_specs = set()
    for f in an.faces:
        if f.edge_ids in seen_specs:
            raise ModelInvariantError(
                "unrepresentable",
                f"two faces share the bounding edge set {sorted(f.edge_ids)}; "
                "the text format identifies faces by that set",
            )
        seen_specs.add(f.edge_ids)
    out = ["plabic v1", f"kn {model.k} {model.n}"]
    for v in sorted(model.colors):
        out.append(f"node {v} {model.colors[v]}")
    for e in an.edges:
        a, b = model.edges[e]
        out.append(f"edge {e} {_format_end(a)} {_format_end(b)}")
    for v in sorted(model.rot):
        out.append(f"rot {v} " + " ".join(model.rot[v]))
    for f in sorted(an.faces, key=lambda f: sorted(f.edge_ids)):
        lab = format_ksubset(f.label, model.n)
        out.append(f"label {','.join(sorted(f.edge_ids))} {lab}")
    out.append(f"star {','.join(sorted(an.faces[an.star].edge_ids))}")
    return "\n".join(out) + "\n"


def load_model(text: str) -> PlabicModel:
    """The model a text in the ``save_model`` format describes.  Each
    label line must state the label its face's trips give, and the star
    line must name the face between stubs n and 1 (``star-mismatch``)."""
    k = n = None
    colors: dict[str, str] = {}
    edges: dict[str, tuple[End, End]] = {}
    rot: dict[str, tuple[str, ...]] = {}
    label_specs: dict[frozenset, KSubset] = {}
    star_ids = None
    saw_header = False
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not saw_header:
            if parts != ["plabic", "v1"]:
                raise ParseError(line_no, "expected header 'plabic v1'")
            saw_header = True
            continue
        cmd = parts[0]
        if cmd == "kn":
            if len(parts) != 3:
                raise ParseError(line_no, "kn wants two integers")
            if k is not None:
                raise ParseError(line_no, "duplicate kn line")
            try:
                k, n = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(line_no, "kn wants two integers") from None
            if not (1 <= k <= n - 1):
                raise ParseError(line_no, f"need 1 <= k <= n-1, got k={k} n={n}")
        elif cmd == "node":
            if len(parts) != 3 or parts[2] not in (BLACK, WHITE):
                raise ParseError(line_no, "node wants <id> black|white")
            if not _text_id(parts[1]):
                raise ParseError(line_no, f"node id {parts[1]!r} contains ','")
            if parts[1] in colors:
                raise ParseError(line_no, f"duplicate node {parts[1]}")
            colors[parts[1]] = parts[2]
        elif cmd == "edge":
            if len(parts) != 4:
                raise ParseError(line_no, "edge wants <id> <end> <end>")
            if not _text_id(parts[1]):
                raise ParseError(line_no, f"edge id {parts[1]!r} contains ','")
            if parts[1] in edges:
                raise ParseError(line_no, f"duplicate edge {parts[1]}")
            edges[parts[1]] = (
                _parse_end(parts[2], line_no),
                _parse_end(parts[3], line_no),
            )
        elif cmd == "rot":
            if len(parts) < 2:
                raise ParseError(line_no, "rot wants <node> <edges...>")
            if parts[1] in rot:
                raise ParseError(line_no, f"duplicate rot for {parts[1]}")
            rot[parts[1]] = tuple(parts[2:])
        elif cmd == "label":
            if len(parts) != 3:
                raise ParseError(line_no, "label wants <edge-set> <ksubset>")
            if n is None:
                raise ParseError(line_no, "label before kn line")
            spec = frozenset(parts[1].split(","))
            try:
                lab = parse_ksubset(parts[2], n)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            if spec in label_specs:
                raise ParseError(line_no, "duplicate face spec")
            label_specs[spec] = lab
        elif cmd == "star":
            if len(parts) != 2:
                raise ParseError(line_no, "star wants <edge-set>")
            if star_ids is not None:
                raise ParseError(line_no, "duplicate star line")
            star_ids = frozenset(parts[1].split(","))
        else:
            raise ParseError(line_no, f"unknown directive {cmd!r}")
    if not saw_header:
        raise ParseError(1, "empty input")
    if k is None:
        raise ParseError(1, "missing kn line")
    if star_ids is None:
        raise ParseError(1, "missing star line")
    model = PlabicModel(k, n, colors, edges, rot)
    an = analyze(model)
    # every face needs a label line, and every line must state the label
    # the trips give that face
    derived = {f.edge_ids: f.label for f in an.faces}
    for spec, label in label_specs.items():
        if spec not in derived:
            raise ModelInvariantError("label-spec-unmatched", f"{sorted(spec)}")
        if derived[spec] != label:
            raise ModelInvariantError(
                "label-mismatch",
                f"face {','.join(sorted(spec))} labelled "
                f"{format_ksubset(label, n)}, its trips give "
                f"{format_ksubset(derived[spec], n)}",
            )
    if len(label_specs) != len(an.faces):
        # a face without a line, or two faces bounded by the same edges
        f = next(f for f in an.faces if label_specs.get(f.edge_ids) != f.label)
        raise ModelInvariantError("unlabeled-face", f"face bounded by {sorted(f.edge_ids)}")
    star = an.faces[an.star].edge_ids
    if star_ids != star:
        raise ModelInvariantError(
            "star-mismatch",
            f"star {','.join(sorted(star_ids))}, the face between stubs "
            f"{n} and 1 is {','.join(sorted(star))}",
        )
    return model


# ------------------------------------------------------------- matchings


# byte b with its eight bits in reverse order, at index b
_BITS_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

# Most perfect matchings one request lists (at least 1): all of a model's for
# ``matching_masks(model)``, those of one boundary value for
# ``matching_masks(model, I)``.  A request for more is refused with
# MatchingBudgetExceeded.  rect (6,12) has 207,997 matchings in all, rect
# (6,13) 1,205,690 and rect (7,14) 10,094,282.  Of those of (7,14), 58,800
# have boundary value 1,2,4,8,9,10,12; ``plabicflow flow rect:7,14
# 1,2,4,8,9,10,12`` lists and weighs just them, in about 1.6 s and 70 MB on
# a 2-vCPU x86 box with Python 3.11.
MATCHING_BUDGET = 1_000_000

# Most covered masks one of the two matching recursions keeps
# (``_completions`` and ``_count_completions``); a search that needs more is
# refused with MatchingBudgetExceeded.  It is its own constant: tests shrink
# ``MATCHING_BUDGET`` to pin exact matching counts.
STATE_BUDGET = 1_000_000


class MatchingBudgetExceeded(Exception):
    """A request would list more perfect matchings than the matching budget
    (``count`` of them), or its search would pass ``limit``, the state
    budget or Python's recursion limit (``count`` None); ``I`` is the
    boundary value asked for, or None for all matchings."""

    def __init__(self, model: PlabicModel, count: int | None, budget: int, I=None,
                 limit: str = "matching budget"):
        self.k, self.n = model.k, model.n
        self.count = count
        self.budget = budget
        self.I = I
        at = "" if I is None else f" with boundary value {format_ksubset(I, model.n)}"
        if count is None:
            super().__init__(f"a matching search{at} past the {limit} of {budget:,}")
        else:
            super().__init__(
                f"{count:,} perfect matchings{at}, past the {limit} of {budget:,}")


class _Frontier:
    """The layout of one analysed model's matching recursion, shared by the
    whole enumeration and the lists of one boundary value.

    Bit i of an edge mask is edge i of the edge order (``Analysis.edges``).
    The internal nodes are numbered breadth-first over the internal edges,
    each component from its first node in (fewest incident edges, id)
    order, so node b is bit b of a covered mask and the frontier between
    covered and uncovered nodes stays narrow.  ``options[b]`` lists (edge
    bit, covered mask) for each edge at node b, ``inner[b]`` the same
    without the boundary stubs, and ``stubs`` holds (boundary label, edge
    bit, covered mask) for each stub in label order.

    The boundary sense lives here: a matching's stub bits are those of its
    boundary value flipped at the ``clockwise`` stubs (those not
    ``anticlockwise``), so ``stub_bits`` encodes a value and ``boundary``
    decodes it.  Nothing here
    refers to the model, so keeping it keeps no model alive.
    """

    def __init__(self, model: PlabicModel, anticlockwise):
        incident: dict[str, list[int]] = {v: [] for v in model.colors}
        ends = []  # the internal nodes of each edge
        stub_at = []  # (boundary label, edge index) per stub
        for i, e in enumerate(analyze(model).edges):
            nodes = []
            for kind, val in model.edges[e]:
                if kind == "n":
                    nodes.append(val)
                else:
                    stub_at.append((val, i))
            ends.append(nodes)
            for u in nodes:
                incident[u].append(i)
        bit = dict.fromkeys(incident, 0)
        order: list[str] = []
        for start in sorted(incident, key=lambda u: (len(incident[u]), u)):
            if bit[start]:
                continue
            bit[start] = 1 << len(order)
            order.append(start)
            head = len(order) - 1
            while head < len(order):
                for i in incident[order[head]]:
                    for w in ends[i]:
                        if not bit[w]:
                            bit[w] = 1 << len(order)
                            order.append(w)
                head += 1
        covers = [sum(map(bit.__getitem__, nodes)) for nodes in ends]
        stub_edges = {i for _, i in stub_at}
        self.full = (1 << len(order)) - 1
        self.options = [[(1 << i, covers[i]) for i in incident[v]] for v in order]
        self.inner = [[(1 << i, covers[i]) for i in incident[v] if i not in stub_edges]
                      for v in order]
        self.stubs = tuple((l, 1 << i, covers[i]) for l, i in sorted(stub_at))
        self.clockwise = sum(ebit for l, ebit, _ in self.stubs if l not in anticlockwise)

    def stub_bits(self, I) -> int:
        """The stub bits of every matching with boundary value I."""
        return self.clockwise ^ sum(ebit for l, ebit, _ in self.stubs if l in I)

    def boundary(self, mask: int) -> tuple[int, ...]:
        """The boundary value of an edge mask, read at its stub bits: the
        inverse of ``stub_bits``.  Its size is not checked (``_sized``)."""
        mask ^= self.clockwise
        return tuple(l for l, ebit, _ in self.stubs if mask & ebit)


def _frontier(model: PlabicModel) -> _Frontier:
    """The model's frontier, made once per model on its analysis."""
    an = analyze(model)
    return an.derive("frontier", lambda: _Frontier(model, an.anticlockwise))


def _sized(model: PlabicModel, value: KSubset) -> KSubset:
    """A matching's boundary value, which must have k elements."""
    if len(value) != model.k:
        raise ModelInvariantError(
            "boundary-size",
            f"matching boundary {format_ksubset(value, model.n)} has size != k")
    return value


def matching_masks(model: PlabicModel, I=None) -> list[int]:
    """The edge sets covering every internal node exactly once, as edge
    masks over the edge order (``Analysis.edges``): all of them, or, given
    a boundary value I, those with boundary value I.

    A memoised recursion over the covered-node mask (frontier-based search,
    see ``_Frontier``).  ``rest(covered)`` lists the edge masks that
    complete ``covered``: it branches on the lowest uncovered node's edges,
    skips an edge that covers a covered node (a boundary edge covers only
    its own node), and is kept per mask, so a dead end is explored once.
    Given I, every matching uses exactly the stubs of ``stub_bits(I)``:
    these forced stubs cover their nodes before the recursion starts, which
    then runs on the internal edges alone; two forced stubs at one node
    leave no matching.

    The matchings come out sorted by their sorted edge names: of two, the
    one holding the lowest edge where they differ comes first, which is
    descending order of the bit-reversed mask (two perfect matchings are
    never nested, so neither is a prefix of the other).  So the list of I
    is the whole list's matchings with boundary value I, in the same order.

    A model ``analyze`` refuses raises its error.  Raises
    MatchingBudgetExceeded, having built at most about twice
    ``MATCHING_BUDGET`` list entries, when the request holds more matchings
    than that: once the lists built pass the budget, one integer count over
    the same recursion decides.  It raises MatchingBudgetExceeded too when
    either recursion keeps more than ``STATE_BUDGET`` covered masks or runs
    past Python's recursion limit.
    """
    fr = _frontier(model)
    options, covered, forced = fr.options, 0, 0
    if I is not None:
        I = tuple(I)
        if I != tuple(l for l in range(1, model.n + 1) if l in I):
            return []  # not a sorted subset of 1..n: no boundary value
        options, forced = fr.inner, fr.stub_bits(I)
        for _, ebit, mask in fr.stubs:
            if forced & ebit:
                if covered & mask:
                    return []
                covered |= mask
    found = _completions(model, I, options, fr.full, covered)
    if forced:
        found = [forced | m for m in found]
    # the little-endian bytes of a mask, each bit-reversed, read it lowest
    # bit first
    size = (len(model.edges) + 7) // 8
    found.sort(key=lambda m: m.to_bytes(size, "little").translate(_BITS_REVERSED),
               reverse=True)
    return found


def _completions(model: PlabicModel, I, options, full: int, start: int) -> list[int]:
    """The edge masks that complete the covered mask ``start`` over
    ``options``, unsorted; the recursion of ``matching_masks``."""
    memo = {full: [0]}
    budget = MATCHING_BUDGET
    built, limit = 0, budget  # list entries built, and how many before counting

    def rest(covered: int) -> list[int]:
        nonlocal built, limit
        out = memo.get(covered)
        if out is None:
            out = []
            free = full & ~covered
            for ebit, mask in options[(free & -free).bit_length() - 1]:
                if not covered & mask:
                    out += [ebit | c for c in rest(covered | mask)]
            memo[covered] = out
            if len(memo) > STATE_BUDGET:
                raise MatchingBudgetExceeded(model, None, STATE_BUDGET, I, "state budget")
            built += len(out)
            if built > limit:
                count = _count_completions(model, I, options, full, memo, start)
                if count > budget:
                    raise MatchingBudgetExceeded(model, count, budget, I)
                limit = float("inf")  # counted, and it fits
        return out

    try:
        return rest(start)
    except RecursionError:
        raise MatchingBudgetExceeded(model, None, sys.getrecursionlimit(), I,
                                     "recursion limit") from None
    finally:
        # rest refers to itself: without this its memo and the model would
        # live on until the next garbage collection
        del rest


def _count_completions(model: PlabicModel, I, options, full: int, memo: dict,
                       start: int) -> int:
    """The number of matchings ``_completions`` lists from ``start``, by
    the same recursion over integers; a covered mask already in ``memo``
    counts its list."""
    counts = {covered: len(out) for covered, out in memo.items()}

    def count(covered: int) -> int:
        got = counts.get(covered)
        if got is None:
            free = full & ~covered
            got = counts[covered] = sum(
                count(covered | mask)
                for _, mask in options[(free & -free).bit_length() - 1]
                if not covered & mask)
            if len(counts) > STATE_BUDGET:
                raise MatchingBudgetExceeded(model, None, STATE_BUDGET, I, "state budget")
        return got

    try:
        return count(start)
    finally:
        del count  # it refers to itself, as ``_completions``' rest does


def edge_names(model: PlabicModel, mask: int) -> list[str]:
    """The edges of an edge mask by name, lowest bit first, so in the edge
    order."""
    names = analyze(model).edges
    out = []
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return out


def enumerate_matchings(model: PlabicModel) -> list[frozenset]:
    """``matching_masks`` as sets of edge names, in the same order."""
    return [frozenset(edge_names(model, m)) for m in matching_masks(model)]


def boundary_value(model: PlabicModel, m) -> KSubset:
    """The k-subset cut out on the boundary by a matching."""
    edges, fr = analyze(model).edges, _frontier(model)
    m = set(m)
    return _sized(model, fr.boundary(
        sum(ebit for _, ebit, _ in fr.stubs if edges[ebit.bit_length() - 1] in m)))


class MatchingTable:
    """The perfect matchings of one model, grouped by boundary value.

    ``masks`` is the output of one ``matching_masks`` call, in its order,
    over the edge order (``Analysis.edges``).
    ``groups`` maps each boundary value to the masks of its matchings and
    ``positroid`` lists the boundary values in sorted order; the boundary
    value of one matching is read off its stub bits (``boundary_of``).  The
    public fields are tuples and a read-only mapping, so callers cannot
    change the table.
    """

    def __init__(self, model: PlabicModel, masks):
        fr = _frontier(model)
        self.masks: tuple[int, ...] = tuple(masks)
        self._stubs = stubs = sum(ebit for _, ebit, _ in fr.stubs)
        self._values = values = {}  # the stub bits of a mask -> its boundary value
        groups: dict[KSubset, list[int]] = {}
        for mask in self.masks:
            key = mask & stubs
            I = values.get(key)
            if I is None:
                I = values[key] = _sized(model, fr.boundary(key))
            groups.setdefault(I, []).append(mask)
        self.groups = MappingProxyType({I: tuple(ms) for I, ms in groups.items()})
        self.positroid: tuple[KSubset, ...] = tuple(sorted(groups))

    def boundary_of(self, mask: int) -> KSubset:
        """The boundary value of one of the table's matchings."""
        return self._values[mask & self._stubs]


def matching_table(model: PlabicModel) -> MatchingTable:
    """The model's matching table, built from one enumeration on the first
    request; later requests are lookups.  Where the model has its table,
    ``_base_mask`` checks the table's lex-max against ``base_value``."""
    return analyze(model).derive(
        "matching table", lambda: MatchingTable(model, matching_masks(model)))


def masks_at(model: PlabicModel, I) -> tuple[int, ...]:
    """The edge masks of the matchings with boundary value I, in
    enumeration order: the group of the model's matching table when the
    model has one, else ``matching_masks(model, I)``, listed once per model
    and I.  So a query about one boundary value lists only its matchings."""
    I = tuple(I)
    an = analyze(model)
    table = an.kept("matching table")
    if table is not None:
        return table.groups.get(I, ())
    return an.derive(("matchings at", I), lambda: tuple(matching_masks(model, I)))


def positroid(model: PlabicModel) -> tuple[KSubset, ...]:
    return matching_table(model).positroid


def _gap_labels(an: Analysis) -> dict[int, KSubset]:
    """The gap-face labels by gap index l (the face between stubs l, l + 1)."""
    return {f.gap: f.label for f in an.faces if f.gap is not None}


def _cyclic_necklace(k: int, n: int) -> dict[int, KSubset]:
    """Gap l -> the cyclic interval l + 1, ..., l + k, sorted: the gap
    labels of a model whose positroid holds every k-subset."""
    return {l: tuple(sorted(cyclic_interval(l % n + 1, (l + k - 1) % n + 1, n)))
            for l in range(1, n + 1)}


def _positroid_subsets(model: PlabicModel) -> list[KSubset]:
    """The k-subsets of the model's positroid in lexicographic order, read
    off its gap labels without listing a matching.

    On a reduced model gap l carries N_{l+1} of the positroid's Grassmann
    necklace, and I is in the positroid iff N_i <=_i I in the Gale order of
    i < i+1 < ... < i-1, for every i (Oh, "Positroids and Schubert
    matroids", JCTA 2011): each element of N_i, shifted to that order and
    sorted, is at most I's.  When the necklace is the cyclic intervals, as
    on every rectangles model, every k-subset passes and none is tested.
    """
    k, n = model.k, model.n
    gaps = _gap_labels(analyze(model))
    subsets = ksubsets(n, k)
    if gaps == _cyclic_necklace(k, n):
        return subsets
    # gap l carries N_{l+1}: shift by l + 1
    lows = [(l, sorted((x - l - 1) % n for x in N)) for l, N in gaps.items()]
    return [I for I in subsets
            if all(a <= b for l, low in lows
                   for a, b in zip(low, sorted((x - l - 1) % n for x in I)))]


def _check_necklace(model: PlabicModel, want, violation: str, where: str) -> None:
    """Raise ``violation`` at the first gap l whose face label is not
    ``want[l]``: the positroid check of the builder and the square move."""
    got = _gap_labels(analyze(model))
    for l in sorted(want):
        if got[l] != want[l]:
            raise ModelInvariantError(violation, f"{where} gap {l}: " + " != ".join(
                format_ksubset(I, model.n) for I in (got[l], want[l])))


def base_value(model: PlabicModel) -> KSubset:
    """The lexicographically largest boundary value of the model's
    matchings (the base value), read off its gap labels without listing a
    matching.

    The positroid is a matroid, so its lex-max value is its Gale-max basis,
    a function of the decorated permutation pi (Postnikov, math/0609764
    §16-17; Oh, "Positroids and Schubert matroids", JCTA 2011).  On a
    reduced model gap l carries N_{l+1} of the Grassmann necklace, and for
    i in N_i, N_{i+1} = N_i - {i} + {pi(i)}.  The base value is the i in
    N_i with pi(i) <= i; the <= keeps a coloop, where N_{i+1} = N_i.
    """
    n = model.n
    gaps = _gap_labels(analyze(model))
    # N_i is on gap i - 1 (gap n for i = 1); pi(i) is what N_{i+1} adds
    return tuple(i for i in range(1, n + 1)
                 if i in gaps[i - 1 or n]
                 and min(set(gaps[i]) - set(gaps[i - 1 or n]), default=i) <= i)


def _base_mask(model: PlabicModel) -> int:
    """The edge mask of the base matching, the one matching of the base
    value.  Where the model has its matching table, the table's lex-max
    must be ``base_value`` (``base-value-mismatch`` otherwise)."""
    target = base_value(model)
    table = analyze(model).kept("matching table")
    if table is not None:
        want = table.positroid[-1] if table.positroid else None
        if want != target:
            want = "none" if want is None else format_ksubset(want, model.n)
            raise ModelInvariantError(
                "base-value-mismatch",
                f"the table's lex-max boundary value is {want}, "
                f"the gap labels give {format_ksubset(target, model.n)}")
    hits = masks_at(model, target)
    if len(hits) != 1:
        raise ModelInvariantError(
            "base-matching-not-unique",
            f"{len(hits)} matchings reach {format_ksubset(target, model.n)}"
        )
    return hits[0]


def base_matching(model: PlabicModel) -> frozenset:
    """The unique matching whose boundary value is lex-maximal."""
    return frozenset(edge_names(model, _base_mask(model)))


class FaceGraph:
    """The face graph of one model, indexed for face weights of matchings
    given as edge masks over the edge order (``Analysis.edges``).

    The weight of a matching M relative to the base matching solves
    w(target) - w(source) = [e in base] - [e in M] over the dual arrows,
    with w = 0 on the star face.  Both routes give it as one packed int: a
    field of ``width`` bits per face, in the flow polynomial's column order
    with the star last (``fields``, the ``laurent.Packing`` ``packing``),
    then one per non-tree arrow (``cotree``), each holding its value plus
    the bias 2^(width - 1).  ``width`` is the least of 8, 16, 32, 64, 128,
    ... bits (``_field_size``) with 2^(width - 1) > max(2F, E), for F faces
    and E edges, so no field carries into the next for any edge mask: a
    weight sums at most F - 1 tree arrows, a residual the at most F arrows
    of one cycle, and a flow count is at most the number of components.

    - The dual route is an affine map of the edge mask: ``constant`` less
      the column of each edge of M, summed four edges at a time, one hex
      digit of the mask per lookup in ``digit_sums``.  Down a breadth-first
      spanning tree from the star, w[f] sums +-([e in base] - [e in M])
      over the tree arrows of f's path, and a non-tree arrow s -> t leaves
      the residual w[t] - w[s] - ([e in base] - [e in M]), which must
      vanish.  So a tree arrow's column is the sum, over its subtree, of
      each face's field and of the residual fields of the non-tree arrows
      that enter (+) or leave (-) the face, all made in one pass from the
      leaves up; ``digit_sums`` takes 15 sums per four edges.
    - The flow route decomposes M ^ base into vertex-disjoint
      boundary-to-boundary paths of darts (base edges run black to white,
      all others white to black), each adding 1 to every face enclosed on
      its left.  Dart i has ``head[i]`` as its head node (internal nodes
      numbered from 0, tip l as -l) and the face ``left[i]`` on its left,
      as a face bit; ``leaving[v]`` is the mask of the darts with tail v,
      ``at_node[v]`` of every dart at v, and ``from_tips`` of those with a
      tip as tail.  ``components`` keeps per tip dart each path found from
      it, as (its darts, the darts at its nodes, its packed flood): the
      faces left of its darts, flooded through ``region`` and blocked on
      its darts.

    ``face_graph`` takes as base the only matching of its boundary value
    (``_base_mask``), so this orientation has no directed cycle: a cycle
    would alternate base and other edges, and flipping it would give a
    second matching of that value (Postnikov, math/0609764).  A dart of
    M ^ base left over after its paths raises ``flow-degree``.
    """

    def __init__(self, model: PlabicModel, base: int):
        an = analyze(model)
        nodes = {v: i for i, v in enumerate(sorted(model.colors))}
        F, E = len(an.faces), len(an.arrows)
        self.base = base
        self.labels = tuple(f.label for f in an.faces)
        self.region = an.adjacency.region
        self.components: dict[int, list[tuple[int, int, int]]] = {}
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(F)]
        self.head = heads = []
        self.left = lefts = []
        self.leaving = leaving = [0] * len(nodes)
        self.at_node = at_node = [0] * len(nodes)
        from_tips = 0
        for i, ((_, s, t), (black, white)) in enumerate(zip(an.arrows, an.black_white)):
            ebit = 1 << i
            adj[s].append((t, i, 1))
            adj[t].append((s, i, -1))
            # the arrow runs from the face right of the black-to-white dart
            # to the face right of the white-to-black one
            if base & ebit:
                tail, head, left = black, white, t
            else:
                tail, head, left = white, black, s
            if tail[0] == "n":
                v = nodes[tail[1]]
                leaving[v] |= ebit
                at_node[v] |= ebit
            else:
                from_tips |= ebit
            if head[0] == "n":
                v = nodes[head[1]]
                heads.append(v)
                at_node[v] |= ebit
            else:
                heads.append(-head[1])
            lefts.append(1 << left)
        self.from_tips = from_tips
        # the spanning tree as (child, parent, edge index, +1 when the arrow
        # runs parent -> child)
        tree: list[tuple[int, int, int, int]] = []
        reached = [False] * F
        reached[an.star] = True
        order = [an.star]
        tree_edges = 0
        for u in order:
            for v, i, sign in adj[u]:
                if not reached[v]:
                    reached[v] = True
                    order.append(v)
                    tree.append((v, u, i, sign))
                    tree_edges |= 1 << i
        if len(order) != F:
            raise ModelInvariantError("disconnected", "face graph not connected")
        faces = [an.label_to_face[J] for J in an.lattice]
        faces.remove(an.star)
        self.fields = (*faces, an.star)
        # the face fields, the star's last
        self.packing = Packing(_field_size(max(2 * F, E)), F)
        width = self.width = self.packing.width
        self.face_bits = self.packing.bits
        unit = self.unit = [0] * F  # the 1 of each face's field, by face index
        for p, f in enumerate(self.fields):
            unit[f] = 1 << width * p
        # a tree arrow's column sums its subtree's face fields and the
        # residual fields of the non-tree arrows into (+) and out of (-) it
        sub = unit[:]
        columns = [0] * E
        self.cotree = []  # (source, target) of each non-tree arrow
        one = 1 << self.face_bits  # the 1 of the next residual field
        for i, (_, s, t) in enumerate(an.arrows):
            if not tree_edges >> i & 1:
                self.cotree.append((s, t))
                sub[t] += one
                sub[s] -= one
                columns[i] = -one
                one <<= width
        for child, parent, i, sign in reversed(tree):
            sub[parent] += sub[child]
            columns[i] = sub[child] if sign > 0 else -sub[child]
        self.bias = (one - 1) // ((1 << width) - 1) << (width - 1)
        self.guards = self.packing.bias
        # per hex digit of an edge mask's little-endian bytes (each byte's
        # high digit first, as ``bytes.hex`` writes them): digit -> the sum
        # of the columns of its four edges that it sets
        self.nbytes = (E + 7) // 8
        columns += [0] * (8 * self.nbytes - E)
        self.digit_sums = []
        for j in range(0, E, 8):
            for low in (j + 4, j):
                a, b, c, d = columns[low:low + 4]
                ab, cd = a + b, c + d
                self.digit_sums.append({
                    "0": 0, "1": a, "2": b, "3": ab, "4": c, "5": a + c,
                    "6": b + c, "7": ab + c, "8": d, "9": a + d, "a": b + d,
                    "b": ab + d, "c": cd, "d": a + cd, "e": b + cd, "f": ab + cd})
        self.constant = self.bias + sum(
            sums[digit] for sums, digit in zip(
                self.digit_sums, base.to_bytes(self.nbytes, "little").hex()))

    def weights(self, packed: int) -> list[int]:
        """The face fields of a packed value by face index, less the bias."""
        width, half = self.width, 1 << (self.width - 1)
        w = [0] * len(self.labels)
        for p, f in enumerate(self.fields):
            w[f] = (packed >> width * p & (2 * half - 1)) - half
        return w

    def _named(self, packed: int) -> dict[KSubset, int]:
        return dict(zip(self.labels, self.weights(packed)))

    def exponents(self, packed: int) -> tuple[int, ...]:
        """The weights of a value ``weigh`` returned, in the flow
        polynomial's column order (the star's 0 left out): the face
        fields unpacked."""
        return self.packing.unpack(packed)[:-1]

    def pack(self, exponents) -> int:
        """The value ``weigh`` returns for weights given in the flow
        polynomial's column order, as ``exponents`` reads them."""
        return self.packing.pack((*exponents, 0)) + self.bias - self.guards

    def extremes(self, values) -> tuple[int, int]:
        """The coordinatewise least and greatest of a nonempty collection of
        values ``weigh`` returned, as packed values.  Less the bias, each
        field is below its guard bit, so setting the guard bits of x and
        subtracting y leaves the guard bit of a field set exactly where x
        >= y there, with no borrow between fields."""
        width, top = self.width, self.bias  # top: every field's guard bit
        fill = (1 << width) - 1
        values = iter(values)
        low = high = next(values) - top
        for x in values:
            x -= top
            keep = (((x | top) - high & top) >> width - 1) * fill  # x >= high
            high = x & keep | high & ~keep
            keep = (((x | top) - low & top) >> width - 1) * fill  # x >= low
            low = low & keep | x & ~keep
        return low + top, high + top

    def dual_route(self, mask: int) -> int:
        """The packed face weights from the dual-arrow system: ``constant``
        less one column per edge of the mask; then every residual field
        must hold its bias and every weight field have its guard bit (the
        top one) set, as a weight is nonnegative."""
        w = self.constant
        digits = mask.to_bytes(self.nbytes, "little").hex()
        for sums, digit in zip(self.digit_sums, digits):
            w -= sums[digit]
        off = (w ^ self.bias) >> self.face_bits  # residual fields off their bias
        if off:
            s, t = self.cotree[((off & -off).bit_length() - 1) // self.width]
            raise ModelInvariantError(
                "weight-inconsistent",
                f"arrow {self.labels[s]} -> {self.labels[t]}: {self._named(w)}",
            )
        if w & self.guards != self.guards:
            raise ModelInvariantError("weight-negative", f"{self._named(w)}")
        return w

    def flow_route(self, mask: int) -> int:
        """The packed face weights from the flow picture: ``bias`` plus the
        flood of each path of M ^ base, walked from its tip dart.

        The decomposition runs on every call.  A path stored under its tip
        dart is taken when the difference holds exactly its darts among the
        darts at its nodes and no earlier path used one of them: then the
        walk would find it without raising.  The one taken moves to the
        front of its list, as matchings in enumeration order share most
        paths with the one before.  Any other tip dart is walked
        (``_walk``); a dart on no path raises ``flow-degree``.  What the
        walks found is stored once the whole decomposition has succeeded,
        so a mask that raises stores nothing and no path is stored twice.
        """
        diff = mask ^ self.base
        components = self.components
        packed, used, found = self.bias, 0, []
        starts = diff & self.from_tips
        while starts:
            first = starts & -starts
            starts ^= first
            stored = components.get(first, ())
            for p, entry in enumerate(stored):
                comp, guard, flood = entry
                if diff & guard == comp and not comp & used:
                    if p:  # to the front: the next matching likely shares it
                        del stored[p]
                        stored.insert(0, entry)
                    break
            else:
                comp, guard, flood = self._walk(first, diff, used)
                found.append((first, (comp, guard, flood)))
            used |= comp
            packed += flood
        if used != diff:
            raise ModelInvariantError(
                "flow-degree", f"{bin(diff ^ used).count('1')} darts on no boundary path")
        for first, entry in found:
            components.setdefault(first, []).append(entry)
        return packed

    def _walk(self, first: int, diff: int, used: int) -> tuple[int, int, int]:
        """The path of ``diff`` from the tip dart ``first`` to a tip, as
        (its darts, the darts at its nodes, its packed flood), following the
        one dart of ``diff`` that leaves each head node; ``used`` holds the
        darts of the paths found before it."""
        head, left, leaving, at_node = self.head, self.left, self.leaving, self.at_node
        i = first.bit_length() - 1
        comp = guard = first
        seeds = left[i]
        while head[i] >= 0:
            guard |= at_node[head[i]]
            out = leaving[head[i]] & diff
            if not out or out & (out - 1):
                raise ModelInvariantError(
                    "flow-degree",
                    f"{bin(out).count('1')} darts leave node {head[i]}")
            if out & (used | comp):
                raise ModelInvariantError(
                    "flow-degree", f"two darts enter node {head[i]}")
            comp |= out
            i = out.bit_length() - 1
            seeds |= left[i]
        region, flood, unit = self.region(seeds, comp), 0, self.unit
        while region:
            low = region & -region
            region ^= low
            flood += unit[low.bit_length() - 1]
        return comp, guard, flood

    def weigh(self, mask: int) -> int:
        """The packed face weights of one matching, after both routes agree."""
        flow = self.flow_route(mask)
        dual = self.dual_route(mask)
        if flow != dual:
            raise ModelInvariantError(
                "flow-weight-mismatch",
                f"flow {self._named(flow)} vs matching {self._named(dual)}")
        return dual


def face_graph(model: PlabicModel) -> FaceGraph:
    """The model's face graph, built on the first face-weight request.
    Face weights are not kept: the flow counts of ``charts`` keep them,
    packed, as their keys."""
    return analyze(model).derive(
        "face graph", lambda: FaceGraph(model, _base_mask(model)))


def weight_of_matching(model: PlabicModel, m) -> dict[KSubset, int]:
    """Face weights of a matching relative to the base matching.

    Solved from w(target) - w(source) = [e in base] - [e in m] over the dual
    arrows, normalized by w = 0 on the star face; the solution must be
    consistent and nonnegative.
    """
    an = analyze(model)
    m, mstar = set(m), base_matching(model)
    adj: dict[int, list[tuple[int, int]]] = {f.index: [] for f in an.faces}
    for e, s, t in an.arrows:
        rhs = (1 if e in mstar else 0) - (1 if e in m else 0)
        adj[s].append((t, rhs))
        adj[t].append((s, -rhs))
    w = {an.star: 0}
    queue = [an.star]
    while queue:
        u = queue.pop()
        for v, d in adj[u]:
            val = w[u] + d
            if v in w:
                if w[v] != val:
                    raise ModelInvariantError(
                        "weight-inconsistent", f"face {v}: {w[v]} vs {val}"
                    )
            else:
                w[v] = val
                queue.append(v)
    if len(w) != len(an.faces):
        raise ModelInvariantError("disconnected", "face graph not connected")
    if min(w.values()) < 0:
        raise ModelInvariantError("weight-negative", f"{w}")
    return {an.faces[i].label: wi for i, wi in w.items()}


def flow_of_matching(model: PlabicModel, m):
    """The paths of the oriented symmetric difference with the base matching.

    Edges of the base matching run black to white, all others white to
    black; the difference then decomposes into vertex-disjoint directed
    boundary-to-boundary paths, with no cycle (``FaceGraph``), and a dart
    on no path raises ``flow-degree`` with their number.  Returns a list of
    paths, each an ordered list of darts (edge_id, tail_end, head_end).
    """
    an = analyze(model)
    m, mstar = set(m), base_matching(model)
    diff = sorted(m ^ mstar)
    black_white = dict(zip(an.edges, an.black_white))
    darts = {}
    out_of: dict = {}
    for e in diff:
        black, white = black_white[e]
        tail, head = (black, white) if e in mstar else (white, black)
        dart = (e, tail, head)
        darts[e] = dart
        if tail in out_of:
            raise ModelInvariantError("flow-degree", f"two darts leave {tail}")
        out_of[tail] = dart
    components = []
    used = set()
    for e in diff:
        dart = darts[e]
        if dart[1][0] != "t" or e in used:
            continue
        comp = [dart]
        used.add(e)
        while comp[-1][2][0] != "t":
            nxt = out_of.get(comp[-1][2])
            if nxt is None or nxt[0] in used:
                raise ModelInvariantError("flow-degree", "broken path")
            comp.append(nxt)
            used.add(nxt[0])
        components.append(comp)
    if len(used) != len(diff):
        raise ModelInvariantError(
            "flow-degree", f"{len(diff) - len(used)} darts on no boundary path")
    return components


def flow_weight(model: PlabicModel, m) -> dict[KSubset, int]:
    """Face weights computed from the flow picture.

    Each path contributes 1 to every face enclosed on its left: the faces
    immediately left of its darts (read off ``Face.darts``) are flooded
    through face adjacency, blocked on the path's own edges.  The result
    must agree with the matching-weight computation, which is asserted.
    This and the two routes it calls work on edge-name sets; they are the
    reference for the edge-mask routes of ``FaceGraph``.
    """
    an = analyze(model)
    comps = flow_of_matching(model, m)
    face_of_dart = {d: f.index for f in an.faces for d in f.darts}
    adj: dict[int, list[tuple[int, str]]] = {f.index: [] for f in an.faces}
    for e, s, t in an.arrows:
        adj[s].append((t, e))
        adj[t].append((s, e))
    total = {f.index: 0 for f in an.faces}
    for comp in comps:
        blocked = {d[0] for d in comp}
        seeds = set()
        for e, tail, head in comp:
            ends = model.edges[e]
            rev = (("e", e), 1) if (tail, head) == ends else (("e", e), 0)
            seeds.add(face_of_dart[rev])
        region = set(seeds)
        stack = list(seeds)
        while stack:
            u = stack.pop()
            for v, e in adj[u]:
                if e in blocked or v in region:
                    continue
                region.add(v)
                stack.append(v)
        for f in region:
            total[f] += 1
    weights = {an.faces[i].label: wi for i, wi in total.items()}
    check = weight_of_matching(model, m)
    if weights != check:
        raise ModelInvariantError(
            "flow-weight-mismatch", f"flow {weights} vs matching {check}"
        )
    return weights


# ------------------------------------------------------------ square move


def _fresh(base: str, taken: set) -> str:
    """``base``, or else ``base`` with the least suffix 2, 3, ... that is
    not in ``taken``; the name is added to ``taken``."""
    name, i = base, 2
    while name in taken:
        name, i = f"{base}{i}", i + 1
    taken.add(name)
    return name


def square_move(model: PlabicModel, face_label: KSubset) -> PlabicModel:
    """Urban renewal at an internal quadrilateral face.

    The face's four edges give way to a square of four new corners of
    opposite colors, each tied by a leg to its old corner.  A corner whose
    only other edge is a boundary stub hands that stub to its new corner;
    a corner whose only other edge goes to an internal node z goes away
    with that edge, and the two square edges at its new corner join z in
    its place (same-colored neighbors identified).  The result is built in
    one pass, creating only what it keeps.  The moved model's trip labels
    must be the model's with the face's label replaced by its Plucker
    exchange partner (``seeds.label_exchange``), it must keep the
    positroid, and the arrows of its dual quiver with a mutable end must be
    those of the matrix mutation of the model's.  The positroid is compared
    on the gap labels (``_check_necklace``): on a reduced model they are its
    Grassmann necklace, which fixes it (Postnikov, math/0609764 §16-17;
    Oh-Postnikov-Speyer, arXiv:1109.4434), and a move keeps a model reduced,
    reducedness being defined up to moves.  ``cli._xcheck_one`` compares
    the positroids themselves, off reduced models too.  The moved face is
    internal, so the star, the face between stubs n and 1, keeps its label.
    """
    an = analyze(model)
    face_label = tuple(face_label)
    j = format_ksubset(face_label, model.n)
    if face_label not in an.label_to_face:
        raise NotPlabicMutable(f"no face labelled {j}")
    face = an.faces[an.label_to_face[face_label]]
    if face.gap is not None:
        raise NotPlabicMutable(f"face {j} touches the boundary")
    first = face.darts.index(min(face.darts))
    orbit = face.darts[first:] + face.darts[:first]
    if len(orbit) != 4:
        raise NotPlabicMutable(f"face {j} has {len(orbit)} sides, need 4")
    sides = [ek[1] for ek, _ in orbit]
    if len(set(sides)) != 4:
        raise NotPlabicMutable(f"face {j} has a repeated edge")
    # corner i is the head of side i; there the rotation runs side i, then
    # side i + 1 (the face successor of ``analyze``), and the colors alternate
    corners = []
    for (_, e), d in orbit:
        head = model.edges[e][1 - d]
        if head[0] != "n":
            raise NotPlabicMutable(f"face {j} has a boundary corner")
        corners.append(head[1])
    if len(set(corners)) != 4:
        raise NotPlabicMutable(f"face {j} has a repeated corner")

    from . import seeds

    seed = seeds.seed_of_model(model)
    try:
        j_new, _label, vertices = seeds.label_exchange(seed, j)
    except NotPlabicMutable as exc:
        raise ModelInvariantError("exchange-mismatch", f"face {j}: {exc}") from None

    # fresh names for every new corner, leg and square edge, dropped or not
    taken_nodes, taken_edges = set(model.colors), set(model.edges)
    new_corner = {c: _fresh(f"{c}x", taken_nodes) for c in corners}
    leg = {c: _fresh(f"leg_{c}", taken_edges) for c in corners}
    square = [_fresh(f"sq_{c}_{corners[(i + 1) % 4]}", taken_edges)
              for i, c in enumerate(corners)]

    colors = dict(model.colors)
    edges = {e: ends for e, ends in model.edges.items() if e not in sides}
    rot = {v: list(r) for v, r in model.rot.items()}
    attach = []  # where square edges i - 1 and i meet, for corner i
    for i, c in enumerate(corners):
        r = rot.pop(c)
        p = r.index(sides[i])
        rest = (r[p:] + r[:p])[2:]  # c's other edges, counterclockwise
        pair = [square[i - 1], square[i]]
        far = next(x for x in edges[rest[0]] if x != ("n", c)) if len(rest) == 1 else None
        if far is not None and far[0] == "n":
            # c and its one edge go away; the square joins z in their place
            g, z = rest[0], far[1]
            if z in corners:
                raise ModelInvariantError(
                    "contracted-into-corner", f"moving {j}: corner {c} contracts into {z}"
                )
            del colors[c], edges[g]
            q = rot[z].index(g)
            rot[z][q:q + 1] = pair
            attach.append(z)
            continue
        nc = new_corner[c]
        colors[nc] = WHITE if colors[c] == BLACK else BLACK
        if far is None:
            # c keeps its other edges and a leg to the new corner
            edges[leg[c]] = (("n", c), ("n", nc))
            rot[c] = [leg[c]] + rest
            rot[nc] = [leg[c]] + pair
        else:
            # c goes away and hands its boundary stub to the new corner
            g = rest[0]
            del colors[c]
            edges[g] = tuple(("n", nc) if x == ("n", c) else x for x in edges[g])
            rot[nc] = [g] + pair
        attach.append(nc)
    for i, se in enumerate(square):
        edges[se] = (("n", attach[i]), ("n", attach[(i + 1) % 4]))

    # every face but the moved one keeps its label
    result = PlabicModel(model.k, model.n, colors, edges, rot)
    got = tuple(format_ksubset(I, model.n) for I in analyze(result).lattice)
    if got != vertices:
        raise ModelInvariantError(
            "exchange-mismatch",
            f"moving {j} gives labels {list(got)}, exchange gives {list(vertices)}",
        )

    _check_necklace(result, _gap_labels(an), "positroid-changed", f"moving {j}")
    # compare the arrows with a mutable end, the moved face renamed back to j
    expect = seeds.fz_mutate(seed.quiver, j)
    q_new = seeds.seed_of_model(result).quiver
    rn = lambda x: j if x == j_new else x
    got = {(rn(u), rn(v), m) for u, v, m in q_new.arrows
           if u not in q_new.frozen or v not in q_new.frozen}
    want = {(u, v, m) for u, v, m in expect.arrows
            if u not in expect.frozen or v not in expect.frozen}
    if got != want:
        raise ModelInvariantError(
            "quiver-fz-mismatch", f"moving {j}: arrows differ at {sorted(got ^ want)}"
        )
    return result


def square_moves(model: PlabicModel) -> Iterator[tuple[str, PlabicModel]]:
    """Yield (face name, moved model) for every mutable face whose square
    move is defined, in ``mutable_vertices`` order, skipping the faces
    refused with NotPlabicMutable; a move is made when asked for and not
    held past its yield.  The model-level twin of ``seeds.seed_mutations``."""
    from . import seeds

    seed = seeds.seed_of_model(model)
    for j in seeds.mutable_vertices(seed.quiver):
        try:
            moved = square_move(model, seed.labels[j])
        except NotPlabicMutable:
            continue
        yield j, moved
        del moved


# --------------------------------------------------------- builtin models


SHARK_TEXT = """\
plabic v1
kn 2 5
node B1 white
node B2 black
node B3 black
node B4 white
node B5 black
edge B1B2 n:B1 n:B2
edge B1B3 n:B1 n:B3
edge B1B5 n:B1 n:B5
edge B3B4 n:B3 n:B4
edge B4B5 n:B4 n:B5
edge E1 n:B5 b:1
edge E2 n:B4 b:2
edge E3 n:B3 b:3
edge E4 n:B2 b:4
edge E5 n:B2 b:5
rot B1 B1B5 B1B2 B1B3
rot B2 B1B2 E5 E4
rot B3 B3B4 B1B3 E3
rot B4 E2 B4B5 B3B4
rot B5 E1 B1B5 B4B5
label B1B2,B1B5,E1,E5 12
label B4B5,E1,E2 23
label B3B4,E2,E3 34
label B1B2,B1B3,E3,E4 14
label E4,E5 15
label B1B3,B1B5,B3B4,B4B5 24
star B1B2,B1B5,E1,E5
"""


def shark_model() -> PlabicModel:
    return load_model(SHARK_TEXT)


def _star_model(k: int, n: int) -> PlabicModel:
    """The one-node fan of k = 1 or n - 1.  Every face is a gap face; at
    n = 2 both are bounded by the same two edges, so only the gap tells
    the star apart, and ``save_model`` refuses the model."""
    colors = {"C": BLACK if k == 1 else WHITE}
    edges = {f"E{l}": (("n", "C"), ("t", l)) for l in range(1, n + 1)}
    rot = {"C": tuple(f"E{l}" for l in range(n, 0, -1))}
    return PlabicModel(k, n, colors, edges, rot)


def build_rectangles_model(k: int, n: int) -> PlabicModel:
    """The rectangles model for the (k, n) grid.

    Planar dual of the grid quiver whose vertices are the rectangle labels:
    each closed quiver face becomes one graph node (clockwise faces white,
    counterclockwise black), each arrow one edge, and the quiver vertices
    come back as the faces of the result, whose trips label them; a star
    when k is 1 or n - 1.
    """
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    model = _star_model(k, n) if k == 1 or k == n - 1 else _grid_model(k, n)
    # the gap faces, by l, must carry the cyclic intervals l + 1, ..., l + k
    _check_necklace(model, _cyclic_necklace(k, n), "gap-necklace-mismatch",
                    f"rect({k},{n})")
    return model


def _grid_model(k: int, n: int) -> PlabicModel:
    w = n - k  # grid width

    def r_id(t, s):
        return f"r{t}_{s}"

    def c_id(t, s):
        return f"c{t}_{s}"

    def d_id(t, s):
        return f"d{t}_{s}"

    # node cycles, as drawn: white faces listed clockwise, black ones
    # counterclockwise, so reversing the white ones makes all rotations CCW
    cycles: dict[str, tuple[str, list[str]]] = {}
    for t in range(1, k):
        for s in range(1, w):
            cycles[f"A{t}_{s}"] = (WHITE, [d_id(t, s), c_id(t, s + 1), r_id(t, s)])
            cycles[f"B{t}_{s}"] = (BLACK, [d_id(t, s), r_id(t + 1, s), c_id(t, s)])
    cycles["L"] = (WHITE, ["scol"] + [c_id(t, 1) for t in range(k - 1, 0, -1)] + ["istar"])
    cycles["Bo"] = (BLACK, ["srow"] + [r_id(1, s) for s in range(w - 1, 0, -1)] + ["istar"])

    arrow_ids = (
        [r_id(t, s) for t in range(1, k + 1) for s in range(1, w)]
        + [c_id(t, s) for t in range(1, k) for s in range(1, w + 1)]
        + [d_id(t, s) for t in range(1, k) for s in range(1, w)]
        + ["istar", "scol", "srow"]
    )
    boundary_label = {"scol": 1, "srow": n}
    for l in range(2, w + 1):
        boundary_label[r_id(k, l - 1)] = l
    for l in range(w + 1, n):
        boundary_label[c_id(n - l, w)] = l

    colors = {}
    rot = {}
    carriers: dict[str, list[str]] = {a: [] for a in arrow_ids}
    for node in sorted(cycles):
        col, cyc = cycles[node]
        colors[node] = col
        rot[node] = tuple(reversed(cyc)) if col == WHITE else tuple(cyc)
        for a in cyc:
            carriers[a].append(node)

    edges: dict[str, tuple[End, End]] = {}
    for a in arrow_ids:
        nodes = sorted(carriers[a])
        if len(nodes) == 2:
            if a in boundary_label:
                raise ModelInvariantError(
                    "rect-build", f"arrow {a} is internal but labelled"
                )
            edges[a] = (("n", nodes[0]), ("n", nodes[1]))
        elif len(nodes) == 1:
            if a not in boundary_label:
                raise ModelInvariantError("rect-build", f"arrow {a} has one face, no label")
            edges[a] = (("n", nodes[0]), ("t", boundary_label[a]))
        else:
            raise ModelInvariantError("rect-build", f"arrow {a} in {len(nodes)} cycles")

    return PlabicModel(k, n, colors, edges, rot)

