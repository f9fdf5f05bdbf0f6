"""Layered benchmark for ryserplanes: time to a checked verdict, end to end
and per layer.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace both     # everything

Each workload runs in a worker process of its own, one thread, as a
closed loop: an op starts only after the previous verdict.  With
`--trace 0` the worker repeats whole passes over its ops for about
`--seconds` and reports the end-to-end metrics; with `--trace 1` it runs
one plain pass, then one pass with spans around every public library
call, and reports the per-layer metrics.  Every verdict is checked;
the last line printed is one JSON object.  See README.md beside this
file for what each metric means and which layer should move it.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

from speed import host_slowness

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("build-large", "verify", "decompose", "oracle")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7  # set-ups timed per run; setup_s is their median
MIN_PASSES = 2  # a one-pass median is one noisy sample
RUN_LIMIT_S = 170  # a single-workload run must end within 180 s
PASS_LIMIT_S = 140  # no pass starts that would end past this, whatever MIN_PASSES says

END_TO_END = {
    "wall_s": "s",
    "op_geomean_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
}
PER_LAYER = {
    "gf.table_s": "s",
    "gf.op_ns": "ns",
    "geometry.plane_s": "s",
    "constructions.build_s": "s",
    "constructions.edges": "count",
    "constructions.recipe_check_s": "s",
    "constructions.embed_s": "s",
    "files.save_s": "s",
    "files.load_s": "s",
    "files.digest_s": "s",
    "files.bytes": "bytes",
    "hypergraph.validate_s": "s",
    "hypergraph.matching_s": "s",
    "hypergraph.matching_memo": "count",
    "hypergraph.cover_s": "s",
    "hypergraph.cover_exact_memo": "count",
    "hypergraph.cover_lower_memo": "count",
    "hypergraph.cover_peak_mb": "MB",
    "hypergraph.relabel_slowdown": "ratio",
    "decompose.enumerate_s": "s",
    "decompose.visited": "count",
    "decompose.kernels": "count",
    "decompose.kernel_yield": "ratio",
    "decompose.visit_us": "us",
    "decompose.pair_scan_s": "s",
    "oracles.blocking_s": "s",
    "oracles.conic_blockers_s": "s",
    "oracles.nontrivial_s": "s",
    "oracles.blockers": "count",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---- worker side ----


def _summary(passes):
    """Counts over every op of every pass, plus the distinct failures."""
    rows = [r for p in passes for r in p]
    failures = sorted({f"{name}: {status}: {msg}" for name, _, status, msg, _ in rows
                       if status in ("failed", "wrong")})
    return {
        "correct": not any(r[2] == "wrong" for r in rows),
        "attempted": len(rows),
        "failed": sum(r[2] in ("failed", "wrong") for r in rows),
        "decided": sum(r[2] == "decided" for r in rows),
        "failures": failures,
    }


def timed_run(workloads, ops, seconds):
    passes, walls = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(workloads.run_pass(ops, scaled=True))
        walls.append(perf_counter() - t0)
        # start another pass only if a typical one still ends in time
        ends = perf_counter() - start + statistics.median(walls)
        if ends > PASS_LIMIT_S or (len(walls) >= MIN_PASSES and ends > seconds):
            break
    out = _summary(passes)
    # each op's time at the reference speed (see speed.py)
    scaled = [[secs / slowness for _, secs, _, _, slowness in p] for p in passes]
    per_op = [statistics.median(p[i] for p in scaled) for i in range(len(ops))]
    out["metrics"] = {
        "wall_s": statistics.median(sum(p) for p in scaled),
        "op_geomean_s": math.exp(sum(math.log(t) for t in per_op) / len(per_op)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - out["failed"] / out["attempted"],
        "decided_ratio": out["decided"] / out["attempted"],
    }
    out["walls"] = walls
    out["slowness"] = statistics.median(r[4] for p in passes for r in p)
    out["ops"] = [[op.name, t] for op, t in zip(ops, per_op)]
    return out


def traced_run(workloads, ops, seed, workdir):
    import spans

    t0 = perf_counter()
    plain = workloads.run_pass(ops)
    wall_plain = perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        traced = workloads.run_pass(ops, tracer)
        wall_traced = perf_counter() - t0
        from_ops = {}
        for per in tracer.self_times().values():
            for metric, secs in per.items():
                from_ops[metric] = from_ops.get(metric, 0.0) + secs
        needed = {k: v for k, v in workloads.probes(workdir).items()
                  if not any(m in from_ops for m in k)}
        tracer.uninstall()
        prepared = {k: prep() for k, (prep, _) in needed.items()}
        tracer.install()
        tracer.op = "probe"
        for k, (_, run) in needed.items():
            run(prepared[k])
        tracer.op = None
    finally:
        tracer.uninstall()

    out = _summary([plain, traced])
    selfs = tracer.self_times()
    top = tracer.top_level_times()
    overhead = 0.0
    for i, (name, secs, *_) in enumerate(traced):
        overhead += secs - top.get(i, 0.0)
        # the layers' self times and the op's own glue account for the op
        if abs(sum(selfs.get(i, {}).values()) - top.get(i, 0.0)) > 1e-6:
            out["correct"] = False
            out["failures"].append(f"{name}: spans do not add up to the op time")
    probe = selfs.get("probe", {})
    probed = sorted(m for k in needed for m in k)
    m = {metric: (probe if metric in probed else from_ops).get(metric, 0.0)
         for _, metric in spans.TRACED.values()}
    for counter, owner in spans.COUNTER_OWNER.items():
        phase = "probe" if owner in probed else "ops"
        m[counter] = tracer.counts.get(phase, {}).get(counter, 0)
        if phase == "probe":
            probed.append(counter)
    m["decompose.kernel_yield"] = m["decompose.kernels"] / m["decompose.visited"]
    m["decompose.visit_us"] = m["decompose.enumerate_s"] / m["decompose.visited"] * 1e6
    if "decompose.enumerate_s" in probed:
        probed += ["decompose.kernel_yield", "decompose.visit_us"]
    m["cli.overhead_s"] = overhead
    m["trace.overhead_ratio"] = wall_traced / wall_plain
    m["gf.op_ns"] = workloads.field_op_ns()
    m["hypergraph.relabel_slowdown"] = workloads.relabel_slowdown(seed)
    # TC(7): the family whose TC(9) member holds verify's largest memo, at
    # a size tracemalloc can afford (it slows the search about tenfold)
    fresh = workloads.instance("TC(7)")[0]
    m["hypergraph.cover_peak_mb"] = spans.peak_traced_mb(
        lambda: workloads.hypergraph.cover_number(fresh))
    out["metrics"] = m
    out["probed"] = probed
    return out


def worker(args):
    sys.path.insert(0, SRC)
    import ryserplanes

    if not os.path.abspath(ryserplanes.__file__).startswith(SRC + os.sep):
        print(f"ryserplanes imported from {ryserplanes.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    ops = workloads.SETUPS[args.workload](args.workdir, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = traced_run(workloads, ops, args.seed, args.workdir)
    else:
        out = timed_run(workloads, ops, args.seconds)
    print(json.dumps(out), flush=True)
    return 0


# ---- parent side ----


def _spawn(argv, timeout):
    """Run one worker; (seconds from spawn to "ready", its last JSON line).

    The worker is killed if it outlives `timeout`; either way it has
    ended when this returns.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(timeout, 0.0), proc.kill)
    timer.start()
    try:
        ready, last = None, None
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv[2:])} exited with {code}")
    return ready, (json.loads(last) if last else None)


def run_workload(name, seed, seconds, trace, deadline):
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    base = [sys.executable, os.path.join(BENCH, "run.py"), "--worker", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        setups = []
        if not trace:
            # set-up time at the reference speed, like every op's
            for i in range(SETUP_SAMPLES):
                sub = os.path.join(workdir, f"setup{i}")
                before = host_slowness()
                t, _ = _spawn(base + ["--workdir", sub, "--setup-only"], deadline - perf_counter())
                setups.append(t / ((before + host_slowness()) / 2))
        _, out = _spawn(base + ["--workdir", os.path.join(workdir, "run")], deadline - perf_counter())
        if out is None:
            raise RuntimeError(f"{name} worker printed no result")
        if not trace:
            out["metrics"]["setup_s"] = statistics.median(setups)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def _report(name, trace, out):
    units = PER_LAYER if trace else END_TO_END
    mode = "traced" if trace else (
        "passes " + " ".join(f"{w:.3f}" for w in out["walls"])
        + f" s as measured, host slowness {out['slowness']:.3f}")
    print(f"== {name} ({mode}): attempted {out['attempted']}, failed {out['failed']}, "
          f"correct {out['correct']}")
    for f in out["failures"]:
        print(f"   failed op  {f}")
    for op, t in out.get("ops", ()):
        print(f"   op {op:34s} {t:10.4f} s")
    for metric, unit in units.items():
        v = out["metrics"][metric]
        tag = "  (probe)" if metric in out.get("probed", ()) else ""
        print(f"   {metric:30s} {'null' if v is None else f'{v:.6g}':>12s} {unit}{tag}")
    return {m: {"value": out["metrics"][m], "unit": u} for m, u in units.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", default="0", choices=["0", "1", "both"])
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        args.trace = int(args.trace)
        return worker(args)

    if not os.path.isfile(os.path.join(SRC, "ryserplanes", "cli.py")):
        print(f"error: no ryserplanes sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    single = len(names) == 1 and len(modes) == 1
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in modes:
            deadline = perf_counter() + RUN_LIMIT_S
            try:
                out = run_workload(name, args.seed, args.seconds, trace, deadline)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            metrics = _report(name, trace, out)
            result["correct"] &= out["correct"]
            result["attempted"] += out["attempted"]
            result["failed"] += out["failed"]
            if single:
                result["metrics"] = metrics
            else:
                result["metrics"].update({f"{name}.{m}": v for m, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
