"""Pieces shared by the three workloads: ops, CLI capture, seeded paths."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from plabicflow import cli, seeds
from plabicflow.plabic import NotPlabicMutable


@dataclass
class Op:
    """One timed operation: ``run`` does the work, ``kind`` groups latencies."""

    kind: str
    run: Callable[[], object]


@dataclass
class Workload:
    """Generated inputs of one run.

    ``check(i, result)`` is the oracle, called after every execution of op
    ``i`` outside its timing: it returns a failure reason, or None.  ``result``
    is what the op returned or raised.  ``digest`` is a JSON-able description
    of every generated input, used to show that a seed fixes them.
    """

    ops: list[Op]
    check: Callable[[int, object], object]
    attempts: "Attempts"
    digest: object


@dataclass
class Attempts:
    """Seed-mutation tries made while generating paths."""

    accepted: int = 0
    attempted: int = 0


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``plabicflow`` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_failure(result) -> str | None:
    """The common part of every CLI oracle: exit 0 and nothing on stderr."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    rc, _out, err = result
    if rc != 0 or err:
        return f"exit {rc}: {err.strip()[:200]}"
    return None


def mutation_path(start, length: int, rng, attempts: Attempts):
    """A seeded walk of ``length`` accepted seed mutations from ``start``.

    Each try picks a mutable vertex at random (never the one the previous
    step created, which would only undo it) and calls ``seeds.mutate_labels``;
    a ``NotPlabicMutable`` refusal is counted in ``attempts`` and retried.
    Returns the list of (vertex name, its label before the move).
    """
    steps, fresh = [], None
    s = start
    for _try in range(50 * length):
        if len(steps) == length:
            break
        choices = sorted(v for v in seeds.mutable_vertices(s.quiver) if v != fresh)
        j = rng.choice(choices)
        attempts.attempted += 1
        try:
            s2 = seeds.mutate_labels(s, j)
        except NotPlabicMutable:
            continue
        attempts.accepted += 1
        (fresh,) = set(s2.labels) - set(s.labels)
        steps.append((j, s.labels[j]))
        s = s2
    else:
        raise RuntimeError(f"only {len(steps)} of {length} moves accepted")
    return steps
