"""Transforms that change a model's graph but not what it computes.

``insert_degree_two_pair`` is Postnikov's move (M2) read backwards
(math/0609764, §12): an edge becomes a path of three edges through two new
degree-2 nodes.  The colours alternate along the path, so the graph stays
bipartite, and the faces, their labels and the flow polynomials are those
of the model without the pair.
"""

from plabicflow.plabic import BLACK, WHITE, PlabicModel


def insert_degree_two_pair(model: PlabicModel, e: str) -> PlabicModel:
    """The model with edge e, whose first end is a node u, split into
    e, ``e+"x"`` and ``e+"y"`` through a node ``"X"+e`` of the other colour
    than u and a node ``"Y"+e`` of u's colour."""
    (kind, u), far = model.edges[e]
    assert kind == "n", f"edge {e} does not start at a node"
    x, y, ex, ey = f"X{e}", f"Y{e}", f"{e}x", f"{e}y"
    assert not {x, y} & set(model.colors) and not {ex, ey} & set(model.edges)
    colors = dict(model.colors)
    colors[y] = colors[u]
    colors[x] = WHITE if colors[u] == BLACK else BLACK
    edges = dict(model.edges)
    edges[e] = (("n", u), ("n", x))
    edges[ex] = (("n", x), ("n", y))
    edges[ey] = (("n", y), far)
    rot = dict(model.rot)
    rot[x] = (e, ex)
    rot[y] = (ex, ey)
    if far[0] == "n":
        rot[far[1]] = tuple(ey if d == e else d for d in rot[far[1]])
    return PlabicModel(model.k, model.n, colors, edges, rot)
