"""The benchmark's own checks: a seed fixes the inputs, another seed gives
other inputs that still pass the oracle, and a traced run can fill every
per-layer metric named in BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import os
import random
import subprocess
import sys

import pytest

import run
from tracer import Tracer

DIGEST = """
import json, random, sys, tempfile
sys.path[:0] = [{src!r}, {here!r}]
import {workload} as wl
with tempfile.TemporaryDirectory() as d:
    built = wl.build({seed}, 2, random.Random("{workload}:{seed}"), d)
print(json.dumps(built.digest, sort_keys=True))
"""


def _digest(workload: str, seed: int, hashseed: str) -> str:
    code = DIGEST.format(src=os.path.join(run.ROOT, "src"), here=run.HERE,
                         workload=workload, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


def _build(workload: str, seed: int, workdir: str):
    mod = __import__(workload)
    path = os.path.join(workdir, str(seed))
    os.makedirs(path, exist_ok=True)
    return mod.build(seed, 1, random.Random(f"{workload}:{seed}"), path)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_inputs(workload):
    assert _digest(workload, 7, "1") == _digest(workload, 7, "2")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_other_inputs_that_pass(workload, tmp_path):
    a = _build(workload, 7, str(tmp_path))
    b = _build(workload, 8, str(tmp_path))
    assert json.dumps(a.digest, sort_keys=True) != json.dumps(b.digest, sort_keys=True)
    for i, op in enumerate(b.ops):
        if workload == "flows" and "3,7" in op.kind:
            continue  # seconds each; the (3,6) ops show the oracle
        assert b.check(i, op.run()) is None, op.kind


def test_oracle_catches_wrong_answers(tmp_path):
    trop = _build("tropical", 8, str(tmp_path))
    i = next(i for i, op in enumerate(trop.ops) if op.kind.startswith("slice"))
    assert trop.check(i, trop.ops[i].run() + 1) is not None

    q = _build("queries", 8, str(tmp_path))
    i = next(i for i, op in enumerate(q.ops) if op.kind.startswith("flow "))
    rc, out, err = q.ops[i].run()
    assert q.check(i, (rc, out.replace('"coeff": 1', '"coeff": 2', 1), err)) is not None
    j = next(j for j, op in enumerate(q.ops) if op.kind.startswith("kappa"))
    rc, out, err = q.ops[j].run()
    assert q.check(j, (rc, out, err)) is None
    assert q.check(j, (rc, out + " ", err)) == "repeated op printed different bytes"
    assert q.check(j, (1, out, "error: boom")) is not None


def test_scaled_time_takes_out_the_probes():
    ticks = run.SpeedTicks()
    ticks.ends, ticks.ns = [100, 200, 300], [10, 10, 10]
    ticks._prefix = [0, 10, 20, 30]
    # 2 probes inside [150, 300]; reference over the mean probe time
    assert ticks.scale(150, 300) == (150 - 20) * run.PROBE_REF_NS / 10


def test_traced_run_fills_every_layer_metric(tmp_path):
    b = _build("tropical", 8, str(tmp_path))
    tracer = Tracer()
    run.run_passes(b, 1, tracer)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    special = {"trace_overhead", "seeds.mutate_labels.accept_ratio"}
    values = {n: tracer.metric(n) for n in names if n not in special}
    assert values["plabic.enumerate_matchings.calls"] == 0
    assert values["cones.lattice_points.calls"] > 0
    assert values["cones.lattice_points.self_s"] > 0
    # uninstall restores the package
    from plabicflow import charts, plabic
    assert charts.enumerate_matchings is plabic.enumerate_matchings
    assert not hasattr(plabic.enumerate_matchings, "__wrapped__")


def test_tail_percentile():
    assert run.tail(list(range(1, 10))) == (100.0, 9)
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail(list(range(1, 1001))) == (99.0, 990)
