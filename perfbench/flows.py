"""``flows``: batch two-route verification through ``plabicflow verify`` and
``plabicflow xcheck``.

One unit of size is four fixed suite runs plus two ``xcheck`` runs along
seeded square-move paths.  The paths leave the rectangles seed, so models off
the seed are in the mix.  An op is one ``cli.main`` call.  Nearly all of the
time is spent enumerating matchings.
"""

from __future__ import annotations

from plabicflow import seeds

from common import Attempts, Op, Workload, cli_failure, mutation_path, run_cli

NAME = "flows"
# The run repeats its ops run.REPEATS times.  ``--seconds`` picks ``size``, the
# amount of distinct work, from the time one pass took at the seed commit on a
# 2-CPU x86 box with Python 3.11, in reference seconds (see run.SpeedTicks):
# size * SIZE_SECONDS, plus FIXED_SECONDS where a module sets it.  So the work
# of a run is fixed by its arguments and does not shrink when the code gets
# faster.  Size is at least 1: below about 45 seconds a flows run always does
# one unit, about 31 reference seconds over its three passes.
SIZE_SECONDS = 10.2

# ``xflow --kn 3,7`` is the slowest op whatever the seed, so op_tail_ms does
# not follow the cost of one seeded path
SUITES = (("plucker", "3,6"), ("valuation-kappa", "3,7"), ("xflow", "3,6"),
          ("xflow", "3,7"))
# (k, n, accepted moves) of the seeded xcheck paths
XCHECK = ((3, 6, 4), (3, 7, 3))


def build(seed: int, size: int, rng, workdir: str) -> Workload:
    attempts = Attempts()
    argvs = []
    for _ in range(size):
        argvs += [["verify", suite, "--kn", kn] for suite, kn in SUITES]
        for k, n, length in XCHECK:
            steps = mutation_path(seeds.rectangles_seed(k, n), length, rng, attempts)
            argvs.append(["xcheck", f"rect:{k},{n}", "--mutations",
                          ",".join(j for j, _ in steps)])
    ops = [Op(_kind(argv), lambda argv=argv: run_cli(argv)) for argv in argvs]
    return Workload(ops, lambda i, res: _check(argvs[i], res), attempts, argvs)


def _kind(argv: list[str]) -> str:
    if argv[0] == "verify":
        return f"verify {argv[1]} --kn {argv[3]}"
    return f"xcheck {argv[1]} ({argv[3].count(',') + 1} moves)"


def _check(argv, result) -> str | None:
    """Exit 0, and only PASS lines: one per suite, or one per xcheck move."""
    bad = cli_failure(result)
    if bad:
        return bad
    lines = result[1].splitlines()
    want = 1 if argv[0] == "verify" else argv[3].count(",") + 1
    if len(lines) != want or not all(l.startswith("PASS ") for l in lines):
        return f"want {want} PASS lines, got {lines[:3]}"
    return None
