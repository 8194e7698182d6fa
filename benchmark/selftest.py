#!/usr/bin/env python3
"""Self-tests of pqbench, registered with ctest by benchmark/CMakeLists.txt.

    selftest.py metrics|golden|early_data PQBENCH BUILD_DIR

metrics     every workload, one op per caller and traced, emits a value for
            exactly the metric names BENCHMARK.json declares, passes its
            checks (the campaigns at seed 0 against tests/golden) and writes
            a loadable trace.
golden      the campaigns checked against a corrupted copy of the goldens
            must fail.
early_data  resume_0rtt expecting the wrong 0-RTT payload must count
            failures.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pqbench(binary, *args):
    proc = subprocess.run([binary, *args, "--seconds", "0"],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit("%s printed no result (exit %d)" % (args[0], proc.returncode))
    manifest, result = json.loads(lines[0]), json.loads(lines[-1])
    if not manifest.get("manifest") or not manifest.get("backend"):
        sys.exit("%s: bad manifest line %s" % (args[0], lines[0]))
    return proc.returncode, result


def check_metrics(binary, build_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    trace_dir = os.path.join(build_dir, "selftest-trace")
    os.makedirs(trace_dir, exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        code, res = pqbench(binary, name, "--seed", "0", "--trace-dir", trace_dir)
        if code != 0 or not res["correct"] or res["failed"]:
            sys.exit("%s failed its checks: %s" % (name, res))
        values = list(res["metrics"].values()) + list(res["layers"].values())
        if any(not isinstance(v["value"], (int, float)) for v in values):
            sys.exit("%s reported a metric without a value: %s" % (name, res))
        if set(res["metrics"]) != e2e or set(res["layers"]) != layers:
            sys.exit("%s: metric names differ from BENCHMARK.json:\n"
                     "  end-to-end %s\n  per-layer %s"
                     % (name, sorted(set(res["metrics"]) ^ e2e),
                        sorted(set(res["layers"]) ^ layers)))
        with open(os.path.join(trace_dir, name + ".trace.json")) as f:
            events = json.load(f)["traceEvents"]
        if not events or any(e["ph"] != "X" for e in events):
            sys.exit("%s: trace file has no complete spans" % name)
        print("%s: %d metrics, %d spans" % (name, len(res["metrics"]) +
                                              len(res["layers"]), len(events)))


def check_golden(binary, build_dir):
    corrupt = os.path.join(build_dir, "selftest-golden")
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "tests", "golden"), corrupt)
    path = os.path.join(corrupt, "fleet_rows.jsonl")
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace('"ok":true', '"ok":false', 1))
    code, res = pqbench(binary, "campaigns", "--seed", "0",
                        "--golden-dir", corrupt)
    if code == 0 or res["correct"] or res["failed"] < 1:
        sys.exit("a corrupted golden file went unnoticed: %s" % res)
    print("corrupted golden caught: %d failed" % res["failed"])


def check_early_data(binary, _build_dir):
    code, res = pqbench(binary, "resume_0rtt", "--wrong-early-data")
    if code == 0 or res["correct"] or res["failed"] < 1:
        sys.exit("a wrong 0-RTT payload went unnoticed: %s" % res)
    print("wrong early data caught: %d of %d failed"
          % (res["failed"], res["attempted"]))


if __name__ == "__main__":
    checks = {"metrics": check_metrics, "golden": check_golden,
              "early_data": check_early_data}
    if len(sys.argv) != 4 or sys.argv[1] not in checks:
        sys.exit(__doc__)
    checks[sys.argv[1]](sys.argv[2], sys.argv[3])
