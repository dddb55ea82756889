"""ncharm benchmark: one closed-loop client in one process, no threads.

    python3 perfbench/run.py --workload basis|sweep|classify|cli --seed N \
        --seconds S --trace 0|1

--trace 0 measures the workload untraced for S seconds and prints the
end-to-end metrics.  --trace 1 runs one round of the pool untraced, then the
same round with every public ncharm function wrapped (tracer.py), runs each
CLI command once in-process, times interpreter and import start-up, and
prints the per-layer metrics.  That is a fixed amount of work, so counts
are constants of the pool and self times are seconds per round.  Every
output is checked (workloads.py); a wrong output makes the run print
`"correct": false` and exit 1.  Human-readable
`metric` lines and a provenance block precede the JSON result, which is the
last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STARTUP_REPEATS = 5
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Record:
    kind: str
    label: str
    round: int
    seconds: float
    ok: bool
    points: int
    canon: bytes


def measure(pool, workload, seed, seconds, records, tracer=None):
    """Run whole seeded rounds of the pool until `seconds` have passed (one
    round when `seconds` is 0), appending a Record per op to `records`."""
    start = time.perf_counter()
    rnd = 0
    while True:
        order = random.Random(f"{workload}:{seed}:{rnd}").sample(range(len(pool)), len(pool))
        for i in order:
            op = pool[i]
            if tracer is not None:
                tracer.op_id = len(records)
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a crash on valid input is a failed op, not a stop
                dt = time.perf_counter() - t0
                print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
                records.append(Record(op.kind, op.label, rnd, dt, False, 0, b"error"))
                continue
            finally:
                if tracer is not None:
                    tracer.recording = False
            dt = time.perf_counter() - t0
            try:
                ok = op.check(out)
            except Exception:
                records.append(Record(op.kind, op.label, rnd, dt, False, op.points, b""))
                raise
            records.append(Record(op.kind, op.label, rnd, dt, ok, op.points, op.canon(out)))
            del out
            if op.reset is not None:
                op.reset()
        rnd += 1
        if time.perf_counter() - start >= seconds:
            return


def time_startup(code, env):
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def ops_per_s(records, weight=lambda r: 1):
    """Weight (ops by default) completed per second of op time."""
    return sum(weight(r) for r in records) / sum(r.seconds for r in records)


def outputs_digest(records):
    """sha256 over the outputs of the first round, in op order."""
    h = hashlib.sha256()
    for r in records:
        if r.round == 0:
            h.update(hashlib.sha256(r.canon).digest())
    return h.hexdigest()


def peak_rss_mb(workload):
    """Peak resident memory of the processes the workload measures: the
    largest `ncharm.cli` child on `cli` (every child of an untraced run is
    one), this process on the others."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance(workload, seed, records, pool):
    import numpy

    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += len(data.splitlines())
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "ops": len(records),
        "rounds": max(r.round for r in records) + 1,
        "pool_size": len(pool),
    }


def fastest_repeats(records):
    """The records with each op's latency replaced by its fastest repeat in
    the run.  The pool's ops do fixed work, and the host this was written on
    runs at two speeds about 1.75x apart, each held for a minute or more at
    a time.  An op's fastest repeat comes from the fast state whenever the
    run saw it, so runs agree where plain means would follow the host."""
    best = {}
    for r in records:
        best[r.label] = min(best.get(r.label, r.seconds), r.seconds)
    return [replace(r, seconds=best[r.label]) for r in records]


def end_to_end(records, setup_s, peak_mb):
    records = fastest_repeats(records)
    lat = [r.seconds for r in records]
    value, pct, beyond = tail(lat)
    failed = sum(not r.ok for r in records)
    metrics = {
        "setup_s": (setup_s, "s", ""),
        "ops_per_s": (ops_per_s(records), "1/s", ""),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", f"n={len(lat)}"),
        "op_tail_ms": (value * 1e3, "ms", f"p{pct:.1f} n={len(lat)} beyond={beyond}"),
        "peak_rss_mb": (peak_mb, "MB", ""),
    }
    extra = {"fail_ratio": (failed / len(records), "ratio", f"{failed}/{len(records)}")}
    for kind in sorted({r.kind for r in records}):
        extra[f"{kind}_ops_per_s"] = (ops_per_s([r for r in records if r.kind == kind]), "1/s", "")
    point_records = [r for r in records if r.points]
    if point_records:
        extra["points_per_s"] = (ops_per_s(point_records, lambda r: r.points), "1/s", "")
    return metrics, extra


# Spans whose call counts and self times the traced run reports.
SPAN_METRICS = (
    ("_exactla.sparse_nullspace", ("self_s",)),
    ("_exactla.dense_rref", ("calls", "self_s")),
    ("_exactla.express_over_rows", ("self_s",)),
    ("_exactla.congruence_diagonalize", ("self_s",)),
    ("harmonicspace.harmonic_basis", ("self_s",)),
    ("harmonicspace.laplacian_coefficient_matrix", ("self_s",)),
    ("calculus.laplacian", ("calls", "self_s")),
    ("ncpoly.evaluate", ("calls", "self_s")),
    ("ncpoly.parse", ("self_s",)),
    ("ncpoly.Poly.render", ("self_s",)),
    ("positivity.draw_symmetric", ("calls", "self_s")),
    ("positivity.min_eigenvalue", ("calls", "self_s")),
    ("positivity.ldl_pivots", ("calls", "self_s")),
    ("middlematrix.evaluate_middle", ("calls", "self_s")),
    ("classify2.classify", ("self_s",)),
    ("classify2.gram_from_neighbors", ("self_s",)),
    ("classify2.sos_decompose", ("self_s",)),
    ("classify2.high_even_membership", ("self_s",)),
    ("cli.emit_json", ("self_s",)),
)


def per_layer(tracer, base, traced, command_s, interp_s, import_s):
    from tracer import SAMPLER, VERDICT_KINDS

    stats = tracer.layer_stats()
    counts = tracer.counts
    metrics = {}
    for name, fields in SPAN_METRICS:
        calls, self_s = stats.get(name, (0, 0.0))
        key = name.lstrip("_")  # metric names must start with a letter
        if "calls" in fields:
            metrics[f"{key}.calls"] = (calls, "count", "")
        if "self_s" in fields:
            metrics[f"{key}.self_s"] = (self_s, "s", f"calls={calls}")
    for key in ("rows", "cols", "dim"):
        metrics[f"harmonicspace.{key}"] = (counts[f"harmonicspace.{key}"], "count", "")
    witnesses = counts["positivity.witnesses"]
    metrics["positivity.points_to_witness"] = (
        counts["positivity.points_to_witness_total"] / witnesses if witnesses else 0.0,
        "count", f"witnesses={witnesses}")
    inside = tracer.calls_inside("ncpoly.evaluate", SAMPLER)
    metrics["positivity.useful_point_ratio"] = (
        counts["positivity.samples_tested"] / inside if inside else 0.0,
        "ratio", f"{counts['positivity.samples_tested']}/{inside}")
    for kind in VERDICT_KINDS:
        metrics[f"classify2.branch.{kind}"] = (counts[f"classify2.branch.{kind}"], "count", "")
    refutations = counts["classify2.refutations"]
    metrics["classify2.witness_ratio"] = (
        counts["classify2.witnesses"] / refutations if refutations else 0.0,
        "ratio", f"{counts['classify2.witnesses']}/{refutations}")
    metrics["cli.interp_ms"] = (interp_s * 1e3, "ms", "python -c pass")
    metrics["cli.import_ms"] = (import_s * 1e3, "ms", "python -c 'import ncharm.cli'")
    metrics["cli.command_ms"] = (statistics.median(command_s) * 1e3, "ms",
                                 f"in-process median of {len(command_s)} commands")
    metrics["trace.overhead"] = (ops_per_s(traced) / ops_per_s(base), "ratio",
                                 "traced ops_per_s / untraced ops_per_s")
    return metrics


def print_metrics(metrics):
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f"  [{note}]" if note else ""))


def result(correct, records, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("basis", "sweep", "classify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds and args.seconds > 0):
        parser.error("--seconds must be given and positive")
    if not (ROOT / "src" / "ncharm" / "__init__.py").is_file():
        print(f"error: no ncharm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Set-up: importing numpy and ncharm, building the pool and warming up.
    setup_start = time.perf_counter()
    import workloads

    goldens = workloads.load_goldens()
    pool = workloads.WORKLOADS[args.workload](goldens)
    setup_s = time.perf_counter() - setup_start
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    base, records = [], []
    try:
        if not args.trace:
            measure(pool, args.workload, args.seed, args.seconds, records)
            metrics, extra = end_to_end(records, setup_s,
                                        peak_rss_mb(args.workload))
        else:
            from tracer import Tracer

            measure(pool, args.workload, args.seed, 0, base)
            tracer = Tracer()
            tracer.install()
            try:
                measure(pool, args.workload, args.seed, 0, records, tracer)
                tracer.recording = True
                command_s = workloads.layer_probe(goldens)
            finally:
                tracer.recording = False
                tracer.uninstall()
            for i, (a, b) in enumerate(zip(base, records)):
                if a.canon != b.canon:
                    raise workloads.WrongOutput(f"op {i}: traced output differs from untraced")
            env = workloads.cli_env()
            interp_s = time_startup("pass", env)
            import_s = time_startup("import ncharm.cli", env)
            metrics = per_layer(tracer, base, records, command_s, interp_s, import_s)
            extra = {}
            tracer.write(workloads.WORK / f"spans-{args.workload}.jsonl")
    except workloads.WrongOutput as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        print(result(False, base + records, {}))
        return 1
    print("provenance " + json.dumps(provenance(args.workload, args.seed, records, pool)))
    print(f"outputs_sha256 {outputs_digest(records)}")
    print_metrics(metrics)
    print_metrics(extra)
    print(result(True, base + records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
