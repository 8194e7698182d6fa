#!/usr/bin/env python3
"""Build pqbench and run the repository benchmark.

One workload, as the benchmark contract calls it (the last stdout line is the
result object):

    python3 benchmark/run.py --workload full_lattice --seed 3 --seconds 10 --trace 0

Every workload in BENCHMARK.json, one after another, printing
"workload metric value unit" lines and, with --out, a JSONL result file whose
first line is the run manifest:

    python3 benchmark/run.py [--seed S] [--trace 1] [--out results.jsonl]

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload traced
and reports the per-layer metrics, writing <workload>.trace.json (Chrome
trace-event JSON, loadable in Perfetto) to --trace-dir. In the all-workloads
mode --trace 1 runs each workload untraced and then traced.

PQTLS_BACKEND is removed from the environment, so the default automatic
backend selection is what gets measured; its value is kept in the manifest.
Exit code: 0 when every correctness check passed, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
PQBENCH = os.path.join(BUILD, "pqbench")
# A workload process must finish well inside the contract's 180 s.
PQBENCH_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build pqbench; build output goes to stderr."""
    steps = []
    # CTestTestfile.cmake exists only once a configure run has succeeded.
    if not os.path.exists(os.path.join(BUILD, "CTestTestfile.cmake")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "pqbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("run.py: build failed: " + " ".join(cmd))


def git_describe():
    """`git describe --always --dirty` of this checkout, if it is one."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != ROOT:
            return "unknown"
        return git("describe", "--always", "--dirty") or "unknown"
    except OSError:
        return "unknown"


def run_workload(name, seed, seconds, trace_dir, env):
    """Runs pqbench once; returns (manifest, result, exit code)."""
    cmd = [PQBENCH, name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=PQBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("run.py: %s timed out" % name)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit("run.py: %s printed no result (exit %d)"
                         % (name, proc.returncode))
    return json.loads(lines[0]), json.loads(lines[-1]), proc.returncode


def select(values, declared, what):
    """The declared metrics, in declaration order; all must be present."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit("run.py: missing %s metrics: %s"
                         % (what, ", ".join(missing)))
    return {m["name"]: values[m["name"]] for m in declared}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir", default=os.path.join(BUILD, "trace"))
    ap.add_argument("--out", help="write manifest + results as JSONL")
    args = ap.parse_args()

    env = dict(os.environ)
    backend_env = env.pop("PQTLS_BACKEND", None)
    build()

    # (workload, traced) runs: the contract mode runs exactly one; the
    # all-workloads mode runs each untraced, then traced when asked.
    runs = []
    for name in [args.workload] if args.workload else names:
        if args.workload is None or not args.trace:
            runs.append((name, False))
        if args.trace:
            runs.append((name, True))

    manifest, results, correct = None, [], True
    for name, traced in runs:
        m, res, code = run_workload(name, args.seed, args.seconds,
                                    args.trace_dir if traced else None, env)
        if manifest is None:
            manifest = dict(m, git=git_describe(), seed=args.seed,
                            pqtls_backend_env=backend_env)
            manifest.pop("workload", None)
        ok = code == 0 and res["correct"]
        correct = correct and ok
        declared = spec["per_layer"] if traced else spec["end_to_end"]
        metrics = select(res["layers"] if traced else res["metrics"],
                         declared, "per-layer" if traced else "end-to-end")
        for metric, v in metrics.items():
            print("%s %s %s %s" % (name, metric, repr(v["value"]), v["unit"]))
        res["traced"] = traced
        results.append(res)
        if args.workload:
            print(json.dumps({"correct": ok, "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": metrics}))
    if args.out:
        with open(args.out, "w") as f:
            for line in [manifest] + results:
                f.write(json.dumps(line) + "\n")
    if not args.workload:
        log("run.py: %s" % ("all checks passed" if correct
                            else "CORRECTNESS CHECKS FAILED"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
