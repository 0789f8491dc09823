"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --trace 0 \
        [--workloads linear-flows,checks-suite] [--write bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one process at a time,
for BENCHMARK.json's run_seconds, and prints for every metric its median,
quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them) next to the bound in
BENCHMARK.json.  ``--write`` stores the
summary, the raw values, the first run's environment record and the command
line that regenerates it, per workload under the key ``trace0`` or
``trace1``.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))
            if statistics.median(values) else None}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]),
                        help="default: the workloads in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    command = "python3 bench/collect.py " \
        + " ".join(shlex.quote(a) for a in (argv or sys.argv[1:]))
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        raw, envs, failures = {}, [], []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit "
                                 f"{proc.returncode}")
            final = json.loads(proc.stdout.strip().splitlines()[-1])
            result = json.loads((ROOT / ".bench_out" / f"{workload}-seed"
                                 f"{seed}-trace{args.trace}" / "result.json")
                                .read_text())
            envs.append(result["environment"])
            failures += [dict(f, seed=seed) for f in result["failures"]]
            ok = ok and final["correct"]
            for name, m in final["metrics"].items():
                raw.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={final['correct']} "
                  f"failed={final['failed']}/{final['attempted']}",
                  flush=True)
        stats = {}
        for name, values in raw.items():
            stats[name] = summarise(values)
            bound = bounds.get(name) if args.trace == 0 else None
            s = stats[name]
            flag = ""
            if bound and s["spread"] is not None and s["spread"] > bound / 3:
                flag = f"  spread above bound/3 = {bound / 3:.3f}"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:45s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {spread}" + (f" bound {bound}" if bound else "")
                  + flag, flush=True)
        summary[workload] = {
            "command": command, "seconds": spec["run_seconds"],
            "seeds": _seeds(args.seeds), "metrics": stats, "values": raw,
            "failures": failures, "environment": envs[0],
            "environment_seeds": [env["seed"] for env in envs]}
    if args.write:
        path = Path(args.write)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault(f"trace{args.trace}", {}).update(summary)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
