"""``queries``: a seeded stream of one-shot commands.

Every op is a fresh ``cli.main`` call (``flow``, ``partition``, ``valuation``,
``kappa`` or ``matchings``) that builds or loads its model from scratch and
asks about one boundary value ``I``.  Models are ``rect:k,n`` for (3,6),
(3,7), (4,8) and two model files each of (3,6) and (3,7), written in set-up
by ``save_model`` from seeded square-move orbits, so ``load_model`` is timed.
Each file is the orbit, of six, with the number of matchings closest to that
of the rectangles model of its shape.

One block asks every command of every model once (rect:4,8 twice), and
``size`` blocks make the stream, which is repeated run.REPEATS times.  Flow and
partition share their ``I`` in an ask, as do valuation and kappa, so the
oracle can compare the two routes op against op.  Each
(model, pair) draws its ``I`` across the blocks by stratified sampling over the
positroid sorted by the number of matchings at ``I``; that number sets an op's
cost, so the stream keeps its heavy tail while the total work of a run hardly
depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from functools import cached_property

from plabicflow import plabic, seeds
from plabicflow.combinat import format_ksubset

from common import Attempts, Op, Workload, cli_failure, mutation_path, run_cli

NAME = "queries"
# (see flows.py) one block of 39 ops takes ~0.9 s
SIZE_SECONDS = 0.9

SHAPES = ((3, 6), (3, 7), (4, 8))
# Model files only for the smaller shapes: a (4,8) orbit model has 400 to
# 480 matchings and a flow costs about the square of that, so two seeded
# (4,8) files would swing a run's total work by a third from seed to seed.
FILE_SHAPES = ((3, 6), (3, 7))
FILES_PER_SHAPE = 2
# seeded orbits drawn per model file (see _orbit)
ORBITS = 6
# rect:4,8 asks twice per block, so the heavy ops are a tenth of the stream
# and op_tail_ms lands inside them
ASKS = {(4, 8): 2}
PAIRS = (("flow", "partition"), ("valuation", "kappa"))


class _Model:
    """A model the stream names, with what the oracle knows about it."""

    def __init__(self, spec: str, name: str, model):
        self.spec = spec  # what the command line names
        self.name = name  # the same, without the run's work directory
        self.model = model
        self.shape = (model.k, model.n)
        counts = Counter(plabic.boundary_value(model, m)
                         for m in plabic.enumerate_matchings(model))
        self.counts = {format_ksubset(I, model.n): c for I, c in counts.items()}
        # boundary values sorted by cost, for stratified draws
        self.by_cost = sorted(self.counts, key=lambda I: (self.counts[I], I))

    @cached_property
    def star(self) -> str:
        """The star vertex of the model's seed, for the oracle, after set-up."""
        return seeds.seed_of_model(self.model).quiver.star

    def tag(self) -> str:
        k, n = self.shape
        return f"rect:{k},{n}" if self.spec == self.name else f"file:{k},{n}"


def build(seed: int, size: int, rng, workdir: str) -> Workload:
    attempts = Attempts()
    models, files = [], {}
    for k, n in SHAPES:
        spec = f"rect:{k},{n}"
        rect = plabic.build_rectangles_model(k, n)
        models.append(_Model(spec, spec, rect))
        for i in range(FILES_PER_SHAPE if (k, n) in FILE_SHAPES else 0):
            text = plabic.save_model(_orbit(k, n, rect, rng, attempts))
            name = f"orbit-{k}-{n}-{i}.plabic"
            path = os.path.join(workdir, name)
            with open(path, "w") as fh:
                fh.write(text)
            files[name] = text
            models.append(_Model(path, name, plabic.load_model(text)))

    asks = [ASKS.get(m.shape, 1) for m in models]
    draws = {(mi, p): _stratified(m.by_cost, size * asks[mi], rng)
             for mi, m in enumerate(models) for p in range(len(PAIRS))}
    queries = []  # (model index, command, I or None, ask)
    for b in range(size):
        block = []
        for mi in range(len(models)):
            for p, pair in enumerate(PAIRS):
                for a in range(b * asks[mi], (b + 1) * asks[mi]):
                    block += [(mi, cmd, draws[mi, p][a], a) for cmd in pair]
            block.append((mi, "matchings", None, b))
        rng.shuffle(block)
        queries += block

    argvs = [[cmd, models[mi].spec] + ([I] if I else []) + ["--format", "json"]
             for mi, cmd, I, _a in queries]
    ops = [Op(f"{cmd} {models[mi].tag()}", lambda a=a: run_cli(a))
           for (mi, cmd, _I, _a), a in zip(queries, argvs)]
    digest = {"files": files,
              "ops": [[cmd, models[mi].name, I] for mi, cmd, I, _a in queries]}
    return Workload(ops, _Oracle(models, queries).check, attempts, digest)


def _orbit(k: int, n: int, rect, rng, attempts: Attempts):
    """Of ORBITS seeded orbits of the rectangles model (2 to 4 square moves
    each), the one whose number of matchings is closest to that of ``rect``;
    on a tie, one that is not ``rect`` itself, then the first.

    The number of matchings sets the cost of every op on the model, and the
    rectangles model has the most common one among the orbits of (3,6) and
    (3,7), so a seed rarely changes it.
    """
    want, rect_text = len(plabic.enumerate_matchings(rect)), plabic.save_model(rect)
    orbits = []
    for _ in range(ORBITS):
        model = rect
        for _j, label in mutation_path(seeds.rectangles_seed(k, n), rng.randint(2, 4),
                                       rng, attempts):
            model = plabic.square_move(model, label)
        orbits.append(model)
    return min(orbits, key=lambda m: (abs(len(plabic.enumerate_matchings(m)) - want),
                                      plabic.save_model(m) == rect_text))


def _stratified(items: list, count: int, rng) -> list:
    """``count`` draws, one from each of ``count`` equal slices of ``items``,
    in random order."""
    out = [items[int((b + rng.random()) * len(items) / count)] for b in range(count)]
    rng.shuffle(out)
    return out


class _Oracle:
    """Checks each execution as it comes; paired ops meet in ``seen``."""

    def __init__(self, models, queries):
        self.models, self.queries = models, queries
        self.first: dict[int, bytes] = {}  # op -> digest of its first stdout
        self.seen: dict[tuple, object] = {}  # (model, I, ask, command) -> value

    def check(self, i: int, result) -> str | None:
        bad = cli_failure(result)
        if bad:
            return bad
        out = result[1]
        digest = hashlib.sha256(out.encode()).digest()
        if self.first.setdefault(i, digest) != digest:
            return "repeated op printed different bytes"
        try:
            value = json.loads(out)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        mi, cmd, I, b = self.queries[i]
        m = self.models[mi]
        if cmd == "matchings":
            return _check_matchings(m, value)
        if cmd in ("flow", "partition"):
            value = sum(t["coeff"] for t in value["terms"])
            if value != m.counts[I]:
                return f"coefficient sum {value}, but {m.counts[I]} matchings at {I}"
        elif cmd == "kappa":
            if value.get(m.star) != 0:
                return f"kappa at the star {m.star} is {value.get(m.star)}"
            value = {x: c for x, c in value.items() if x != m.star}
        partner = {"flow": "partition", "partition": "flow",
                   "valuation": "kappa", "kappa": "valuation"}[cmd]
        self.seen[mi, I, b, cmd] = value
        other = self.seen.get((mi, I, b, partner))
        if other is not None and other != value:
            return f"{cmd} gives {value}, {partner} gives {other} at {I}"
        return None


def _check_matchings(m: _Model, rows) -> str | None:
    """Every row is a perfect matching, and rows per boundary value agree
    with the set-up count."""
    ends = m.model.edges
    nodes = sorted(m.model.colors)
    for row in rows:
        covered = Counter(end[1] for e in row["edges"] for end in ends[e]
                          if end[0] == "n")
        if sorted(covered) != nodes or set(covered.values()) != {1}:
            return f"edges {row['edges']} are not a perfect matching"
    got = Counter(row["boundary"] for row in rows)
    if got != Counter(m.counts):
        return "matchings per boundary value differ from the set-up count"
    return None
