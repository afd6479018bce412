"""plabicflow benchmark: one seeded workload per run, timed end to end, or
per layer with ``--trace 1``.

    python3 perfbench/run.py --workload flows --seed 1 --seconds 15 --trace 0

Workloads (see WORKLOADS.md): ``flows`` (batch two-route verification
through the CLI), ``queries`` (a stream of one-shot CLI commands) and
``tropical`` (cones, GT peeling and seed mutation; no matchings).  The run
imports ``plabicflow`` from ``src/`` of the checkout it sits in, generates its
inputs from ``--seed`` alone, runs them on one thread, checks every answer
against an independent route, and prints one JSON object as its last line.
``--seconds`` fixes the amount of work, calibrated at the seed commit, so a
faster program finishes sooner; a run never does less than one unit of its
workload, which for ``flows`` is about 10 reference seconds a pass.  Times are
reported at a reference machine speed (see SpeedTicks), because the machine
this was built on changes speed by tens of percent within seconds.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flows", "queries", "tropical")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh processes
# untraced passes over the op list; an op's time is the median of its passes
REPEATS = 3
# Ops, set-up and probes are timed in CPU time of this process, so time the
# process spends waiting for a core while other jobs run is not counted; the
# speed of the core while it runs is what SpeedTicks corrects.
CLOCK = time.process_time_ns
# speed sampling (see SpeedTicks)
TICK_S = 0.02
TICK_WINDOW_NS = 100_000_000
PROBE_ITERATIONS = 250
PROBE_REF_NS = 80_000
# nearest-rank percentiles tried for op_tail_ms, highest first; the first one
# with at least ten samples beyond it is reported
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# single hand-timed runs recorded in ROADMAP.md before this benchmark existed
ROADMAP_BASELINE_S = {
    "verify valuation-kappa --kn 3,7": 4.89,
    "verify plucker --kn 3,6": 1.11,
    "verify xflow --kn 3,7": 7.33,
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, seconds: int, workdir: str):
    """Import plabicflow and generate the inputs.

    Returns the workload module, the Workload, its size and the seconds taken
    from the start of the import, at the reference speed (see SpeedTicks).
    """
    with SpeedTicks() as ticks:
        t0 = CLOCK()
        import plabicflow  # noqa: F401  (timed: the import is part of set-up)
        import importlib

        mod = importlib.import_module(workload)
        fixed = getattr(mod, "FIXED_SECONDS", 0.0)
        size = max(1, round((seconds / REPEATS - fixed) / mod.SIZE_SECONDS))
        wl = mod.build(seed, size, random.Random(f"{workload}:{seed}"), workdir)
        t1 = CLOCK()
        time.sleep(TICK_WINDOW_NS / 1e9)  # ticks after the end
    return mod, wl, size, ticks.scale(t0, t1) / 1e9


def _probe_setup(args) -> float:
    """Set-up time of the same arguments in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


_PROBE_STATE: dict[int, int] = {}


def speed_probe() -> int:
    """A fixed piece of interpreter work (dict, tuple and int operations, no
    plabicflow code); returns its ns."""
    d, acc = _PROBE_STATE, 0
    t0 = CLOCK()
    for i in range(PROBE_ITERATIONS):
        k = i % 61
        d[k] = d.get(k, 0) + (i ^ acc) % 1009
        t = (k, i & 15)
        acc += t[0] * t[1] - len(d)
        if acc > 1 << 20:
            acc >>= 3
    return CLOCK() - t0


class SpeedTicks:
    """Samples the machine's speed every TICK_S with ``speed_probe``, from a
    SIGALRM handler, so that long ops are sampled while they run.

    ``scale(t0, t1)`` turns the CPU ns of an op that ran from t0 to t1 (on
    CLOCK) into ns at the reference speed: the probe time inside the op is taken out,
    and the rest is multiplied by PROBE_REF_NS over the mean probe time in
    the op and TICK_WINDOW_NS around it (the slowest tenth of the probes
    dropped, as interrupted ones).
    """

    def __init__(self):
        self.ends: list[int] = []
        self.ns: list[int] = []

    def _tick(self, signum, frame):
        dt = speed_probe()
        self.ends.append(CLOCK())
        self.ns.append(dt)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._prefix = list(itertools.accumulate(self.ns, initial=0))
        return False

    def scale(self, t0: int, t1: int) -> float:
        lo, hi = bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)
        inside = self._prefix[hi] - self._prefix[lo]
        a = bisect.bisect_left(self.ends, t0 - TICK_WINDOW_NS)
        b = bisect.bisect_right(self.ends, t1 + TICK_WINDOW_NS)
        near = sorted(self.ns[a:b] or self.ns[max(0, a - 1):a + 1])
        near = near[:max(1, len(near) * 9 // 10)]
        return (t1 - t0 - inside) * PROBE_REF_NS * len(near) / sum(near)


def run_passes(wl, passes: int, tracer=None):
    """The timed section: ``passes`` passes over the ops, in order.

    Each op is timed alone and checked right after, outside its timing; with
    a tracer, only the op itself runs traced.  Returns, for every op in every
    pass, its ns at the reference speed (see SpeedTicks) and its raw wall ns,
    and the (op index, reason) of every failed execution.
    """
    wall = time.perf_counter_ns
    spans = []  # (pass, op, CLOCK start, CLOCK end, wall ns)
    failures = []
    gc.collect()
    with SpeedTicks() as ticks:
        for p in range(passes):
            for i, op in enumerate(wl.ops):
                if tracer:
                    tracer.install()
                w0, t0 = wall(), CLOCK()
                try:
                    res = op.run()
                except Exception as exc:  # a failed op is counted, the run goes on
                    res = exc
                t1, w1 = CLOCK(), wall()
                if tracer:
                    tracer.uninstall()
                spans.append((p, i, t0, t1, w1 - w0))
                reason = wl.check(i, res)
                if reason is not None:
                    failures.append((i, reason))
        time.sleep(TICK_WINDOW_NS / 1e9)  # ticks after the last op
    scaled = [[0.0] * len(wl.ops) for _ in range(passes)]
    raw = [[0] * len(wl.ops) for _ in range(passes)]
    for p, i, t0, t1, w in spans:
        scaled[p][i] = ticks.scale(t0, t1)
        raw[p][i] = w
    return scaled, raw, failures


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the maximum (p100) when there are too few samples."""
    srt = sorted(values)
    n = len(srt)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, srt[rank - 1]
    return 100.0, srt[-1]


def _report_ops(workload, ops, est, raw, size, passes) -> None:
    print(f"# {workload}: size {size}, {len(ops)} ops, {passes} passes; "
          f"raw wall {sum(map(sum, raw)) / 1e9:.2f} s, "
          f"{sum(est) * passes / sum(map(sum, raw)):.3f} reference s per raw s")
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for i, op in enumerate(ops):
        by_kind.setdefault(op.kind, []).append(
            (est[i] / 1e9, statistics.median(row[i] for row in raw) / 1e9))
    for kind, ts in sorted(by_kind.items()):
        line = (f"#   {kind}: n={len(ts)} median {statistics.median(t for t, _ in ts):.4f} s"
                f" max {max(t for t, _ in ts):.4f} s"
                f" (raw median {statistics.median(r for _, r in ts):.4f} s)")
        if kind in ROADMAP_BASELINE_S:
            line += f"; ROADMAP baseline {ROADMAP_BASELINE_S[kind]} s"
        print(line)


def _report_trace(tracer, speed) -> None:
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_ns)
    layers = sorted({n.split(".")[0] for n in tracer.stats})
    share = {m: tracer.metric(f"{m}.self_s") * speed for m in layers}
    total = sum(share.values()) or 1.0
    print("# self time of the traced pass by layer: " + ", ".join(
        f"{m} {share[m]:.3f} s ({share[m] / total:.0%})"
        for m in sorted(layers, key=lambda m: -share[m])))
    for name, st in rows[:15]:
        print(f"#   {name}: calls {st.calls} self {st.self_ns / 1e9 * speed:.4f} s")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "plabicflow", "__init__.py")):
        print(f"error: no plabicflow sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    mod, wl, size, setup_s = setup(args.workload, args.seed, args.seconds, workdir)
    if args.setup_probe:
        print(setup_s)
        return 0

    scaled, raw, failures = run_passes(wl, REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    est = [statistics.median(col) for col in zip(*scaled)]  # per op, ns
    wall = sum(est) / 1e9
    _report_ops(args.workload, wl.ops, est, raw, size, REPEATS)
    if args.trace:
        from tracer import Tracer

        # one traced pass: the per-layer metrics carry no bound, and a
        # traced flows run must still end well within its time limit
        tracer = Tracer()
        traced, traced_raw, traced_failures = run_passes(wl, 1, tracer)
        failures += traced_failures
        traced_wall = sum(traced[0]) / 1e9
        # per-layer times are raw; put them on the same scale as wall_s
        speed = sum(map(sum, traced)) / sum(map(sum, traced_raw))
    attempted = len(wl.ops) * (REPEATS + args.trace)
    for i, reason in failures[:20]:
        print(f"FAIL {wl.ops[i].kind}: {reason}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        _report_trace(tracer, speed)
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace_overhead":
                value = traced_wall / wall
            elif m["name"] == "seeds.mutate_labels.accept_ratio":
                value = wl.attempts.accepted / wl.attempts.attempted
            else:
                value = tracer.metric(m["name"])
                if m["unit"] == "s":
                    value *= speed
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        setup_samples = [setup_s] + [_probe_setup(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
        pct, tail_ns = tail(est)
        print(f"# setup_s samples {[round(s, 4) for s in setup_samples]}")
        print(f"# op_tail_ms is p{pct:g} of {len(est)} ops")
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "op_p50_ms": statistics.median(est) / 1e6,
            "op_tail_ms": tail_ns / 1e6,
            "ok_ratio": (attempted - len(failures)) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
