"""dissipgeo benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload linear-flows --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the benchmark imports dissipgeo
from ``src/`` and exits with code 2 if it is not there.  It writes the
workload's seeded configs and every op's output under ``.bench_out/``,
then drives the CLI in-process, ``cli.main(["run", config, ...])`` and
``cli.main(["checks", "--filter", suite, ...])``, as a closed loop: one
client, one op at a time, no other threads.

The op list is run in whole passes; the pass count follows from
``--seconds`` and the workload's nominal pass time, so every run of a
workload takes the same number of samples.  After each op the benchmark
checks the output against its own reference (see reference.py); an op
fails when it exits non-zero, reports a failed invariant or misses the
reference.

``--trace 0`` prints the end-to-end metrics (END_TO_END).  ``--trace 1``
runs half the passes untraced and half with spans around the layer
functions (spans.py), prints the per-layer metrics (PER_LAYER, a subset
of the full table written to result.json) and trace_overhead_s, and
writes the spans to spans.jsonl.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import reference                                     # noqa: E402
from calibrate import (CAL_REF_S, SpeedLog, child_setup_s,  # noqa: E402
                       setup_factor)
import workloads                                     # noqa: E402
from spans import TARGETS, Tracer                    # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

# Layers reported with --trace 1.  Every workload reaches rk4_path, so its
# times are never 0; layers a workload does not reach report 0 calls, and
# their self times are in result.json only.
PER_LAYER = {f"{m}.{a}.calls": "count" for m, a in TARGETS}
PER_LAYER.update({
    "integrators.rk4_path.steps": "count",
    "integrators.rk4_path.rhs_calls": "count",
    "integrators.rk4_path.rhs_per_step": "calls/step",
    "integrators.rk4_path.self_s": "s",
    "integrators.rk4_path.rhs_s": "s",
    "cli.write_csv.bytes": "bytes",
    "trace_overhead_s": "s",
})

# Median raw pass time on a 2-core Xeon (Python 3.11, numpy 2.4, scipy 1.17);
# passes = seconds / nominal, so the sample count does not depend on load.
NOMINAL_PASS_S = {"linear-flows": 4.7, "nonlinear-flows": 1.1,
                  "gkls-large-n": 1.85, "checks-suite": 3.1,
                  "free-horizons": 0.8}
MIN_PASSES = 3
SETUP_REPEATS = 9
EXIT_USAGE = 2


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(latencies):
    """(value, percentile): the highest order statistic with at least ten
    samples above it; the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure_setup(repeats):
    """Median calibrated import time of dissipgeo.cli in fresh
    interpreters, and the raw (import time, kernel time) pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    pairs = [child_setup_s(env, ROOT, BENCH) for _ in range(repeats)]
    return _median([t * setup_factor(k) for t, k in pairs]), pairs


def _blas():
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads,
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS") if k in os.environ}}


def _git_commit():
    """HEAD of ROOT/.git read from the files, or None outside git."""
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
    return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg)
           for pkg in ("numpy", "scipy", "jsonschema")},
        "blas": _blas(), "git_commit": _git_commit(),
        "src_sha256": _src_digest(), "seed": seed,
        "client": "closed loop, 1 client, in-process, one op at a time",
    }


def _outputs(op, ops_dir):
    if op.kind == "checks":
        return [ops_dir / "checks_report.json"]
    name = op.path.stem
    return [ops_dir / f"{name}.csv", ops_dir / f"{name}_report.json"]


def run_op(cli, op, ops_dir):
    """(latency_s, failure causes, steps or None) of one CLI invocation."""
    for path in _outputs(op, ops_dir):
        path.unlink(missing_ok=True)
    verb = "checks" if op.kind == "checks" else "run"
    argv = [verb, *op.argv_tail, "--out", str(ops_dir)]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # the CLI contract is exit codes, not raises
        return time.perf_counter() - start, [f"raised {exc!r}"], None
    latency = time.perf_counter() - start
    causes = [] if code == 0 else [f"exit code {code}"]
    try:
        if op.kind == "checks":
            causes += reference.check_suite(op.suite, ops_dir)
            steps = reference.SUITES[op.suite]["rk4_steps"]
        else:
            more, steps = reference.check_scenario(op.config, ops_dir,
                                                   op.path.stem)
            causes += more
    except (OSError, ValueError, KeyError, IndexError) as exc:
        causes.append(f"output unreadable: {exc!r}")
        steps = None
    return latency, causes, steps


class Passes:
    """Raw latencies, steps and failures of whole passes over the op list,
    with the speed log that calibrates them."""

    def __init__(self):
        self.raw = []               # (pass, op id, seconds)
        self.failures = []
        self.steps = 0
        self.speed = None

    def run(self, cli, ops, ops_dir, count, deadline, tracer=None):
        """Run up to ``count`` passes; stop early only past ``deadline``
        (time.monotonic), a guard against a host far slower than usual."""
        self.speed = SpeedLog()
        for index in range(count):
            for op in ops:
                if tracer is not None:
                    tracer.op_id = op.op_id
                raw, causes, steps = run_op(cli, op, ops_dir)
                self.speed.mark()
                self.raw.append((index, op.op_id, raw))
                self.steps += steps or 0
                if causes:
                    self.failures.append(
                        {"pass": index, "op": op.op_id, "kind": op.kind,
                         "n": op.n, "suite": op.suite, "causes": causes})
            if time.monotonic() > deadline:
                break

    def latencies(self):
        """Calibrated per-op latencies in run order."""
        if not self.raw:
            return []
        return [raw * f for (_, _, raw), f in zip(self.raw,
                                                  self.speed.factors())]

    def walls(self):
        """Calibrated time of each pass: the sum of its op latencies."""
        walls = {}
        for (index, _, _), latency in zip(self.raw, self.latencies()):
            walls[index] = walls.get(index, 0.0) + latency
        return list(walls.values())


def _import_cli():
    sys.path.insert(0, str(SRC))
    from dissipgeo import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dissipgeo imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def run(workload, seed, seconds, trace, out_dir, tiny=False):
    """Run one workload; returns (final line object, full result)."""
    setup_s, setup_pairs = None, []
    if not trace:
        setup_s, setup_pairs = measure_setup(1 if tiny else SETUP_REPEATS)
    cli = _import_cli()
    out_dir = Path(out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    ops_dir = out_dir / "ops"
    ops_dir.mkdir(parents=True)
    ops = workloads.generate(workload, seed, out_dir / "configs", tiny=tiny)
    passes = 1 if tiny else max(MIN_PASSES,
                                round(seconds / NOMINAL_PASS_S[workload]))
    deadline = time.monotonic() + 3 * seconds + 30

    run_op(cli, ops[0], ops_dir)        # warm-up: lazy imports, file cache
    plain, traced = Passes(), Passes()
    tracer = Tracer()
    if trace:
        half = max(1, math.ceil(passes / 2))
        plain.run(cli, ops, ops_dir, half, deadline)
        tracer.install()
        try:
            traced.run(cli, ops, ops_dir, half, deadline, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(out_dir / "spans.jsonl")
    else:
        plain.run(cli, ops, ops_dir, passes, deadline)

    shutil.rmtree(ops_dir)      # every output is checked; keep disk use flat
    latencies = plain.latencies()
    attempted = len(plain.raw) + len(traced.raw)
    failures = plain.failures + traced.failures
    tail_s, tail_pct = tail(latencies)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": _median(plain.walls()),
        "op_p50_s": _median(latencies),
        "op_tail_s": tail_s,
        "steps_per_s": plain.steps / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    layers = {}
    if trace:
        layers = tracer.layers(len(traced.walls()),
                               _median(traced.speed.factors()))
        layers["trace_overhead_s"] = _median(traced.walls()) \
            - end_to_end["wall_s"]
    declared = PER_LAYER if trace else END_TO_END
    values = layers if trace else end_to_end
    final = {"correct": not failures, "attempted": attempted,
             "failed": len(failures),
             "metrics": {name: {"value": values[name], "unit": unit}
                         for name, unit in declared.items()}}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny,
        "environment": environment(seed),
        "workload_info": workloads.describe(workload, ops),
        "passes": len(plain.walls()) + len(traced.walls()),
        "op_samples": len(latencies), "op_tail_pct": tail_pct,
        "failed_ops": len(failures) / attempted,
        "failures": failures,
        "end_to_end": {"wall_s": end_to_end["wall_s"],
                       "traced_wall_s": _median(traced.walls())}
        if trace else end_to_end,
        "layers": layers,
        "calibration": {
            "ref_s": CAL_REF_S,
            "setup_import_and_kernel_s": setup_pairs,
            "ops_pass_id_raw_s_factor": [
                [*sample, f] for sample, f in zip(plain.raw,
                                                  plain.speed.factors())],
            "kernels_s": plain.speed.kernels},
        "final": final,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return final, result


def print_result(result):
    final = result["final"]
    info = result["workload_info"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['passes']} passes x "
          f"{info['ops_per_pass']} ops, {result['op_samples']} untraced "
          f"op samples, op_tail_s is p{result['op_tail_pct']:.1f}")
    print(f"why: {info['why']}")
    print(f"n distribution {info['n_distribution']}, "
          f"n_repeat_share {info['n_repeat_share']:.3f}, "
          f"off_grid_share {info['off_grid_share']:.3f}")
    print("env " + json.dumps(result["environment"], sort_keys=True))
    table = result["layers"] if result["trace"] else result["end_to_end"]
    for name, value in table.items():
        unit = (PER_LAYER.get(name) or END_TO_END.get(name)
                or ("s" if name.endswith(("_s", ".s")) else "count"))
        print(f"{name} {value!r} {unit}")
    print(f"failed_ops {result['failed_ops']!r} share "
          f"({final['failed']} of {final['attempted']} ops)")
    passes = {}
    for f in result["failures"]:
        what = f["suite"] or f"n={f['n']}"
        line = f"op{f['op']:02d} {f['kind']} {what}: " + "; ".join(f["causes"])
        passes[line] = passes.get(line, 0) + 1
    for line, count in passes.items():
        print(f"FAILED {line} (in {count} of {result['passes']} passes)")
    print(json.dumps(final))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dissipgeo" / "cli.py").is_file():
        print(f"error: no dissipgeo sources under {SRC}; run from a "
              f"source checkout", file=sys.stderr)
        return EXIT_USAGE
    out_dir = ROOT / ".bench_out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _, result = run(args.workload, args.seed, args.seconds, args.trace,
                    out_dir)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
