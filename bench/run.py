"""etklab benchmark: closed-loop runs of two workloads against the source tree.

One caller runs one op at a time and waits for it.  Usage, from the root of
a checkout:

    python3 bench/run.py --workload krr --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --seed 1            # both workloads, one after another

With --trace 0 the last stdout line is the JSON result carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of
bench/layers.py.  Human-readable lines, the environment and any failures come
before it.  Results and span files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ["krr", "spectra"]
DEFAULT_SECONDS = 45
SETUP_SAMPLES = {"full": 5, "tiny": 1}

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
]


@dataclass
class Op:
    k: int
    traced: bool
    latency: float
    inp: Any
    out: Any
    error: Optional[str]
    failures: list = field(default_factory=list)


def use_source_tree():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "etklab" / "__init__.py").is_file():
        sys.exit(f"error: no etklab source tree at {src}")
    sys.path.insert(0, str(src))


def set_up(name: str, seed: int, size: str):
    """Import etklab and build the workload's inputs; returns (seconds, ...)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    st = wl.setup(seed, size, OUT)
    return time.perf_counter() - t0, wl, st


def setup_seconds(args, size: str, first: float) -> list[float]:
    """The in-process set-up time plus fresh-process repeats, run one at a time."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_SAMPLES[size] - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha(),
    }


def run_ops(wl, st, seconds: float, trace: bool, rec):
    """Warm-up op, then ops back to back until `seconds` have passed.

    In a traced run every second op is traced, so traced and untraced ops
    share the machine's conditions and their rates give the tracing overhead.
    """
    from layers import PROBES
    from spans import instrument, maybe_span

    ops: list[Op] = []

    def one(k: int, traced: bool):
        inp = wl.op_input(st, k)
        op_rec = rec if traced else None
        if traced:
            rec.op = k
        probes = []
        with instrument(rec, PROBES) if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                with maybe_span(op_rec, "bench.op"):
                    out, probes = wl.run_op(st, inp)
                error = None
            except Exception:
                out, error = None, traceback.format_exc()
            latency = time.perf_counter() - t0
        for kernel, points in probes if traced else []:
            with rec.span("feature_maps.local_vectors"):
                for x in points:
                    kernel.local_vectors(x)
            rec.count("feature_maps.local_vectors.points", len(points))
        ops.append(Op(k, traced, latency, inp, out, error))

    one(-1, False)
    start = time.perf_counter()
    k = 0
    while True:
        one(k, trace and k % 2 == 1)
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    return ops, time.perf_counter() - start


def check_ops(wl, st, ops: list[Op], rec) -> dict:
    """Oracle checks outside the timed phase; returns run-level failure counts."""
    from spans import maybe_span

    counts = dict.fromkeys(wl.counters, 0)
    for op in ops:
        if op.error is not None:
            op.failures.append(op.error)
            continue
        op_rec = rec if op.traced else None
        if op.traced:
            rec.op = op.k
        with maybe_span(op_rec, "bench.oracle"):
            found = wl.check(st, op.k, op.inp, op.out, op_rec)
        op.failures += [msg for _, msg in found]
        for counter in {c for c, _ in found if c}:
            counts[counter] += 1
    by_k = {op.k: op for op in ops}
    for k, counter, msg in wl.finish(st, ops):
        by_k[k].failures.append(msg)
        if counter:
            counts[counter] += 1
    return counts


def rate(ops: list[Op]) -> float:
    """Successful ops per second of op latency."""
    ok = [op for op in ops if not op.failures]
    total = sum(op.latency for op in ops)
    return len(ok) / total if total > 0 else 0.0


def run_workload(args) -> int:
    use_source_tree()
    OUT.mkdir(exist_ok=True)
    size = "tiny" if args.tiny else "full"
    first, wl, st = set_up(args.workload, args.seed, size)
    if args.setup_only:
        wl.close(st)
        print(first)
        return 0
    import etklab
    if not Path(etklab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: etklab imported from {etklab.__file__}, not {ROOT / 'src'}")
    from layers import layer_metrics
    from spans import Recorder

    setups = [] if args.trace else setup_seconds(args, size, first)
    rec = Recorder() if args.trace else None
    try:
        ops, elapsed = run_ops(wl, st, args.seconds, bool(args.trace), rec)
        failure_counts = check_ops(wl, st, ops, rec)
    finally:
        wl.close(st)
    timed = [op for op in ops if op.k >= 0]
    attempted = len(ops)
    failed = sum(bool(op.failures) for op in ops)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(args)
    print("env " + json.dumps(env))
    for op in ops:
        for msg in op.failures:
            print(f"FAILED {args.workload} op {op.k}: {msg}", file=sys.stderr)

    tag = f"{args.workload}: "
    if args.trace:
        untraced = [op for op in timed if not op.traced]
        traced = [op for op in timed if op.traced]
        extra = dict(failure_counts)
        extra["bench.ops_per_s.untraced"] = rate(untraced)
        extra["bench.ops_per_s.traced"] = rate(traced)
        extra["bench.trace_overhead.ops_per_s"] = rate(traced) - rate(untraced)
        metrics = layer_metrics(rec, len(traced), extra)
        print(f"{tag}{len(traced)} traced and {len(untraced)} untraced ops; "
              f"tracing overhead {extra['bench.trace_overhead.ops_per_s']!r} 1/s "
              f"({rate(traced)!r} traced against {rate(untraced)!r} untraced)")
        with open(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
            for s in rec.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    else:
        ok = sum(not op.failures for op in timed)
        values = {
            "ops_per_s": ok / elapsed,
            "op_p50_s": statistics.median(op.latency for op in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
            "success_ratio": (attempted - failed) / attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        notes = {"op_p50_s": f"(n={len(timed)} ops)",
                 "setup_s": f"(median of {len(setups)})"}
        for n, m in metrics.items():
            print(f"{tag}{n} {m['value']!r} {m['unit']} {notes.get(n, '')}".rstrip())
        print(f"{tag}fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, **result, "setup_samples": setups,
                   "latencies": [[op.k, op.traced, op.latency] for op in ops]}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), in turn."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        status = status or (0 if results[name]["correct"] else 1)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; every workload when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: seconds-long, for checking the harness")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
