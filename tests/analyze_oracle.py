"""The keyed route of ``plabic.analyze``: the test oracle of the dart route.

Faces are traced over dart tuples (("e", id) or ("a", l), direction) in
dicts, trips step through the rotation tuples with ``index``, and the
structural checks run in their own passes before anything is traced.  It
gives the same ``Analysis`` field for field and raises the same violations
with the same details; ``tests/test_analyze_oracle.py`` holds the two
routes to that.
"""

from __future__ import annotations

from types import MappingProxyType

from plabicflow.combinat import format_ksubset
from plabicflow.plabic import (
    BLACK,
    WHITE,
    Analysis,
    Face,
    FaceAdjacency,
    ModelInvariantError,
    PlabicModel,
)


def _adjacency(F: int, arrows) -> FaceAdjacency:
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(F)]
    for i, (_, s, t) in enumerate(arrows):
        nbrs[s].append((1 << t, 1 << i))
        nbrs[t].append((1 << s, 1 << i))
    nbrs = tuple(map(tuple, nbrs))
    # distinct bits sum to their union
    return FaceAdjacency(nbrs, tuple(sum({fbit for fbit, _ in nb}) for nb in nbrs),
                         tuple(sum({ebit for _, ebit in nb}) for nb in nbrs))


def _closed_rotation_system(model: PlabicModel):
    """Rotations for the disc closed up with virtual tips and arcs.

    Returns (rots, ends, stub_of) over vertex keys ("n", id) / ("t", l) and
    edge keys ("e", id) / ("a", l), where arc l joins tips l and l+1
    (cyclically) and stub_of[l] is the edge at tip l.
    """
    n = model.n
    stub_of: dict[int, str] = {}
    for e, (a, b) in model.edges.items():
        for end in (a, b):
            if end[0] == "t":
                if end[1] in stub_of:
                    raise ModelInvariantError(
                        "duplicate-boundary-label", f"label {end[1]}"
                    )
                stub_of[end[1]] = e
    # checked before anything is built per boundary label, so a huge n in
    # the kn line costs nothing
    if len(stub_of) != n or set(stub_of) != set(range(1, n + 1)):
        raise ModelInvariantError(
            "bad-boundary-labels",
            f"have {sorted(stub_of)}, expected 1..{n}",
        )
    ends: dict = {("e", e): ab for e, ab in model.edges.items()}
    for l in range(1, n + 1):
        nxt = 1 if l == n else l + 1
        ends[("a", l)] = (("t", l), ("t", nxt))

    rots: dict = {}
    for v, r in model.rot.items():
        rots[("n", v)] = [("e", e) for e in r]
    for l in range(1, n + 1):
        prev = n if l == 1 else l - 1
        rots[("t", l)] = [("a", prev), ("e", stub_of[l]), ("a", l)]
    return rots, ends, stub_of


def _dart_successors(rots, ends) -> dict:
    """The next dart of each dart's face: at its head, the edge after it
    in the counterclockwise rotation, leaving the head.  A bijection on
    the darts, as every rotation lists each edge at its node once."""
    succ = {}
    for head, r in rots.items():
        for i, ekey in enumerate(r):
            nxt = r[(i + 1) % len(r)]
            succ[(ekey, 0 if ends[ekey][1] == head else 1)] = (
                nxt, 0 if ends[nxt][0] == head else 1)
    return succ


def _trace_faces(model: PlabicModel):
    """All dart orbits of the closed surface but the outer face.

    Returns (orbits, stub_of) where each orbit is the ordered dart list of
    one face (the face lies on the right of each of its darts).  Only a
    model that passed ``_validate_raw`` may be traced.  The outer face is
    the one orbit of arcs alone: each arc run from tip l to tip l + 1 turns
    into stub l + 1, and the arcs run the other way close up.
    """
    rots, ends, stub_of = _closed_rotation_system(model)
    succ = _dart_successors(rots, ends)
    orbits = []
    for ek in sorted(ends, key=str):
        for start in ((ek, 0), (ek, 1)):
            if start not in succ:
                continue  # on an orbit already traced
            orbit = [start]
            cur = succ.pop(start)
            while cur != start:
                orbit.append(cur)
                cur = succ.pop(cur)
            if any(e[0] == "e" for e, _ in orbit):
                orbits.append(orbit)
    return orbits, stub_of


def _validate_raw(model: PlabicModel):
    for v, c in model.colors.items():
        if c not in (BLACK, WHITE):
            raise ModelInvariantError("bad-color", f"node {v}: {c}")
    if set(model.rot) != set(model.colors):
        raise ModelInvariantError("rotation-coverage", "rot keys != node set")
    incident: dict[str, list[str]] = {v: [] for v in model.colors}
    for e, (a, b) in model.edges.items():
        for end in (a, b):
            if end[0] == "n":
                if end[1] not in model.colors:
                    raise ModelInvariantError("unknown-node", f"edge {e}: {end[1]}")
                incident[end[1]].append(e)
            elif end[0] == "t":
                if not (1 <= end[1] <= model.n):
                    raise ModelInvariantError(
                        "bad-boundary-labels", f"edge {e}: label {end[1]}"
                    )
            else:
                raise ModelInvariantError("bad-end", f"edge {e}: {end}")
        if a[0] == "n" and b[0] == "n":
            if model.colors[a[1]] == model.colors[b[1]]:
                raise ModelInvariantError("bipartite", f"edge {e} joins equal colors")
        if a[0] == "t" and b[0] == "t":
            raise ModelInvariantError("edge-both-boundary", f"edge {e}")
    for v in model.colors:
        if sorted(model.rot[v]) != sorted(incident[v]):
            raise ModelInvariantError(
                "rotation-mismatch",
                f"node {v}: rot {model.rot[v]} vs incident {sorted(incident[v])}",
            )
    # connectivity over internal nodes and tips
    adj: dict = {}
    for e, (a, b) in model.edges.items():
        ka = (a[0], a[1])
        kb = (b[0], b[1])
        adj.setdefault(ka, set()).add(kb)
        adj.setdefault(kb, set()).add(ka)
    if adj:
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        want = set(adj) | {("n", v) for v in model.colors}
        if seen != want:
            raise ModelInvariantError("disconnected", f"missing {sorted(want - seen)}")


def _trip_labels(model: PlabicModel, black_white, arrows, stub_of,
                 adjacency: FaceAdjacency) -> list[tuple[int, ...]]:
    """Postnikov's target labelling, read off the trips.

    The trip from tip l enters the graph along stub l; at a black node it
    leaves by the previous edge of the counterclockwise rotation, at a
    white node by the next one, until it reaches a tip j.  A face carries j
    iff it lies left of the trip ending at j: the faces left of the trip's
    darts, flooded across every edge the trip does not use.  Returns the
    sorted label of each face by index.
    """
    index = {e: i for i, (e, _, _) in enumerate(arrows)}
    edges, rot, colors = model.edges, model.rot, model.colors
    left = [0] * (model.n + 1)  # j -> mask of the faces left of trip j
    for l in range(1, model.n + 1):
        e, here = stub_of[l], ("t", l)
        from_black = black_white[index[e]][0] == here
        path = seeds = 0
        while True:
            i = index[e]
            path |= 1 << i
            # the arrow of edge i runs from the face right of its black-to-
            # white dart to the face right of its white-to-black dart
            _, s, t = arrows[i]
            seeds |= 1 << (t if from_black else s)
            a, there = edges[e]
            if a != here:
                there = a
            if there[0] == "t":
                break
            here = there
            r = rot[there[1]]
            from_black = colors[there[1]] == BLACK
            i = r.index(e)
            e = r[i - 1] if from_black else r[(i + 1) % len(r)]
        left[there[1]] = adjacency.region(seeds, path)
    return [tuple(j for j in range(1, model.n + 1) if left[j] >> f & 1)
            for f in range(len(adjacency.around))]


def analyze_oracle(model: PlabicModel) -> Analysis:
    """The analysis of ``model`` along the keyed route, made afresh: the
    model keeps nothing."""
    _validate_raw(model)
    orbits, stub_of = _trace_faces(model)

    face_of_dart: dict = {}
    gaps: list[int | None] = []
    for i, orbit in enumerate(orbits):
        gap = None
        for ek, d in orbit:
            if ek[0] == "a":
                if gap is not None and gap != ek[1]:
                    raise ModelInvariantError(
                        "gap-structure", f"face with two arcs {gap},{ek[1]}"
                    )
                gap = ek[1]
        gaps.append(gap)
        for dart in orbit:
            face_of_dart[dart] = i

    gap_face = {g: i for i, g in enumerate(gaps) if g is not None}
    if set(gap_face) != set(range(1, model.n + 1)):
        raise ModelInvariantError("gap-structure", f"gap faces {sorted(gap_face)}")

    # which end of an edge is black (_validate_raw has checked the colors;
    # a tip takes the color opposite its node), and one dual arrow per edge,
    # from the face right of its black-to-white dart (dart d runs ends[d] ->
    # ends[1 - d]) to the face right of its white-to-black one
    edges = tuple(sorted(model.edges))
    black_white, arrows = [], []
    for e in edges:
        a, b = ends = model.edges[e]
        black0 = (model.colors[a[1]] == BLACK if a[0] == "n"
                  else model.colors[b[1]] == WHITE)
        d = 0 if black0 else 1
        black_white.append((ends[d], ends[1 - d]))
        arrows.append((e, face_of_dart[(("e", e), d)], face_of_dart[(("e", e), 1 - d)]))
    black_white, arrows = tuple(black_white), tuple(arrows)

    adjacency = _adjacency(len(orbits), arrows)
    faces: list[Face] = []
    label_to_face: dict = {}
    for i, (orbit, label) in enumerate(zip(
            orbits, _trip_labels(model, black_white, arrows, stub_of, adjacency))):
        edge_ids = frozenset(ek[1] for ek, _ in orbit if ek[0] == "e")
        if len(label) != model.k:
            raise ModelInvariantError(
                "bad-label",
                f"face bounded by {sorted(edge_ids)} lies left of "
                f"{len(label)} trips, not k = {model.k}",
            )
        if label in label_to_face:
            raise ModelInvariantError("duplicate-label", format_ksubset(label, model.n))
        label_to_face[label] = i
        faces.append(Face(i, tuple(orbit), edge_ids, label, gaps[i]))
    # orientation class per boundary edge
    anticlockwise = set()
    arrow_of = {e: (s, t) for e, s, t in arrows}
    for l in range(1, model.n + 1):
        prev = model.n if l == 1 else l - 1
        s, t = arrow_of[stub_of[l]]
        if (s, t) == (gap_face[l], gap_face[prev]):
            anticlockwise.add(l)
        elif (s, t) != (gap_face[prev], gap_face[l]):
            raise ModelInvariantError(
                "boundary-arrow", f"stub {l} arrow {s}->{t} not between gap faces"
            )

    analysis = Analysis(
        tuple(faces),
        MappingProxyType(label_to_face),
        gap_face[model.n],  # the star: the face between stubs n and 1
        edges,
        black_white,
        arrows,
        frozenset(anticlockwise),
        tuple(sorted(label_to_face)),
        adjacency,
    )
    return analysis
