#!/usr/bin/env python3
"""Benchmark of fgdist's sweeps, timed from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ising-window --seed 0 --seconds 12 --trace 0

One op is one workload sweep, run in a closed loop by a single client in
this process (no extra threads or processes while ops are timed).  The
untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) alternates untraced and traced ops and reports per-layer self
times, call counts, the branch mix and the tracing overhead.  Every op's
output is checked outside the timed region.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md in this directory for the workloads and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2  # fresh processes that repeat the set-up, for the set-up medians
# Host-speed calibration.  The host's other tenants change its speed by 30% to
# 60%, in phases from seconds to many minutes long.  A fixed calibration kernel
# that never calls fgdist runs next to every op; op_s and setup_s are wall
# times scaled by CALIBRATION_REF_S over the kernel's time at that moment, so
# they read as seconds on the host at a fixed speed.
CALIBRATION_REF_S = 0.2  # about the kernel's time on the 2-core Xeon host (0.15-0.2 s)
SETUP_CALIBRATIONS = 3   # kernel runs after a set-up; their median scales it

# One BLAS thread: a second one waits at barriers on whatever the host's other
# tenants run, and on the matrix sizes of these sweeps it saves no wall time.
# Set before numpy is imported; the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed op wall time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_fgdist():
    """Import fgdist from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fgdist
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fgdist from {src}: {exc}")
    if Path(fgdist.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported fgdist from {fgdist.__file__}, not from {src}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS, by library file name."""
    import numpy
    import scipy

    counts = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    counts[path.name] = getter()
                    break
    return counts


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "clients": 1,
        "loop": "closed",
    }


def peak_rss_mib() -> float:
    """Peak resident memory of this process image.  VmHWM is reset by exec;
    ru_maxrss is not, so it would also count the memory of whichever process
    started this one."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Wall time of a fixed kernel that mixes the work of the sweeps:
    interpreted Python and small dense LAPACK calls."""
    import numpy as np

    start = time.perf_counter()
    table, acc = {}, 0.0
    for i in range(480_000):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    a = np.random.default_rng(0).standard_normal((48, 48))
    a += a.T
    for _ in range(240):
        w, v = np.linalg.eigh(a)
        v @ np.diag(w) @ v.T
    return time.perf_counter() - start


def setup_probe(args) -> dict:
    """Set-up time and peak memory of a fresh process that imports, builds
    its inputs and runs the warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    args = parse_args()
    import_fgdist()
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    sweeps = [workloads.SWEEPS[name] for name in workloads.WORKLOADS[args.workload]]
    OUT.mkdir(exist_ok=True)

    def op(index):
        return [sweep.run(sweep.grid[index], OUT) for sweep in sweeps]

    warmup, indices = workloads.op_inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    # the warm-up op runs on an input no timed op uses; it fills size-keyed
    # caches (dense Majoranas) and imports lazily loaded code
    if tracer:
        _, warmup_root = tracer.op(op, warmup)
    else:
        op(warmup)
    setup = {"setup_wall_s": time.perf_counter() - T0, "peak_rss_mib": peak_rss_mib()}
    setup["setup_s"] = setup["setup_wall_s"] * CALIBRATION_REF_S / statistics.median(
        calibrate() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_probe:
        print(json.dumps(setup))
        return 0

    references = json.loads((HERE / "references.json").read_text())
    untraced_s, traced_s, roots, scaled_s, calibrations = [], [], [], [], [calibrate()]
    mix, work, attempted, failed, succeeded_ops, spent = {}, Counter(), 0, 0, 0, 0.0
    # a traced run attempts at least one untraced and one traced op
    while spent < args.seconds or (tracer and attempted < 2):
        index = indices[attempted % len(indices)]
        use_trace = tracer is not None and attempted % 2 == 1
        attempted += 1
        start = time.perf_counter()
        errors, outputs, results = [], [], []
        try:
            if use_trace:
                results, root = tracer.op(op, index)
            else:
                results = op(index)
        except Exception:  # an op raising is a failed op; keep measuring
            errors.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        spent += elapsed
        calibrations.append(calibrate())
        try:
            rng = np.random.default_rng([args.seed, attempted])
            for sweep, result in zip(sweeps, results):
                param = sweep.grid[index]
                csv_text, fit = sweep.output(result, OUT)
                rows = workloads.csv_rows(csv_text)
                found = sweep.check(param, rows, rng)
                found += workloads.compare_to_reference(workloads.digest(csv_text, fit), references[sweep.name][param])
                errors += [f"{sweep.name} on {param}: {e}" for e in found]
                outputs.append((sweep, param, rows))
        except Exception:  # so is a check raising
            errors.append(traceback.format_exc())
        if errors:
            failed += 1
            print(f"perfbench: {args.workload} op {attempted} failed:\n  " + "\n  ".join(errors), file=sys.stderr)
            continue
        if use_trace:
            traced_s.append(elapsed)
            roots.append(root)
        else:
            untraced_s.append(elapsed)
            # the host's speed during the op: the kernel runs just before and after it
            scaled_s.append(elapsed * CALIBRATION_REF_S / statistics.mean(calibrations[-2:]))
        for sweep, param, rows in outputs:
            if succeeded_ops == 0:  # the branch mix of every run, from its first op
                mix[sweep.name] = dict(sorted(sweep.branch_mix(param, rows).items()))
            work[(sweep.name, sweep.unit)] += sweep.work(rows)
        succeeded_ops += 1

    report = {"workload": args.workload, "sweeps": [s.name for s in sweeps], "trace": args.trace,
              "ops": attempted, "ops_failed": failed, "branch_mix_per_op": mix}
    if tracer:
        metrics = tracing.layer_metrics(tracer, roots, warmup_root, traced_s, untraced_s) if roots else {}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setups = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = {"op_s": (statistics.median(scaled_s) if scaled_s else 0.0, "s"),
                   "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
                   "peak_rss_mib": (statistics.median(s["peak_rss_mib"] for s in setups), "MiB")}
        # throughput of each sweep: its work per op over the op's wall time
        report["throughput"] = {f"{name}.{unit}_per_s": {"value": count / sum(untraced_s), "unit": "1/s"}
                                for (name, unit), count in work.items()}
        report["wall"] = {"op_s": statistics.median(untraced_s) if untraced_s else 0.0,
                          "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
                          "calibration_s": statistics.median(calibrations)}
        report["samples"] = {"op_s": len(untraced_s), "setup_s": len(setups), "peak_rss_mib": len(setups)}
        report["loop_peak_rss_mib"] = peak_rss_mib()
    print("provenance " + json.dumps(provenance(args.seed)))
    print("result " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
