#!/usr/bin/env python3
"""Self-test of the benchmark, on smoke-sized inputs.

    python3 perfbench/selftest.py

Run from the root of a netctl source tree; takes about a minute.  It
checks that
  * every workload's end-to-end run is correct and prints every
    end_to_end metric of BENCHMARK.json by name with its unit, then the
    result line with exactly the keys correct/attempted/failed/metrics;
  * traced runs print every per_layer metric and write spans with a
    name, start, end, parent and request id covering all ten layers;
  * a deliberately wrong oracle value makes the run incorrect and
    fail_frac > 0;
  * without a netctl source tree the benchmark exits non-zero and
    prints no result.
Exits 0 when all checks pass.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = {"cli", "graphs", "structural", "generators", "cavity", "exact",
          "energy", "observability", "steering", "collective"}
SPAN_KEYS = {"span_id", "parent", "request", "name", "start_ns", "end_ns"}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def printed(stdout, name, unit):
    return re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s",
                     stdout, re.M) is not None


def check_run(proc, metrics, label):
    expect(proc.returncode == 0, f"{label}: exit code 0 "
                                 f"(stderr: {proc.stderr.strip()[-300:]})")
    res = result_of(proc)
    expect(res is not None and set(res) == {"correct", "attempted", "failed",
                                            "metrics"},
           f"{label}: last line has exactly the four result keys")
    if res is None:
        return None
    expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
           f"{label}: correct, {res['failed']} of {res['attempted']} failed")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == want, f"{label}: result metrics match BENCHMARK.json")
    missing = [n for n, u in want.items() if not printed(proc.stdout, n, u)]
    expect(not missing, f"{label}: every metric printed with its unit "
                        f"(missing: {missing})")
    expect(printed(proc.stdout, "fail_frac", "ratio"),
           f"{label}: fail_frac printed")
    return res


def spans_of(proc):
    path = re.search(r"^results: (\S+)\.json$", proc.stdout, re.M)
    spans_file = Path(path.group(1) + ".spans.jsonl") if path else None
    if spans_file is None or not spans_file.is_file():
        return []
    return [json.loads(line) for line in spans_file.read_text().splitlines()]


def main():
    for w in SPEC["workloads"]:
        check_run(bench(w["name"], 0), SPEC["end_to_end"],
                  f"{w['name']} --trace 0")

    layers = set()
    for name in ("dense-linear", "cli-mix"):
        proc = bench(name, 1)
        check_run(proc, SPEC["per_layer"], f"{name} --trace 1")
        spans = spans_of(proc)
        expect(spans and all(SPAN_KEYS <= set(s) for s in spans),
               f"{name} --trace 1: spans carry {sorted(SPAN_KEYS)}")
        layers |= {s["name"].split(".")[0] for s in spans}
    expect(layers == LAYERS, f"traced runs cover all ten layers "
                             f"(missing: {sorted(LAYERS - layers)})")

    proc = bench("structural-sparse", 0, "--corrupt-oracle")
    res = result_of(proc)
    frac = re.search(r"^fail_frac\s+(\S+)", proc.stdout, re.M)
    expect(res is not None and not res["correct"] and res["failed"] > 0
           and frac is not None and float(frac.group(1)) > 0,
           "a wrong oracle value gives fail_frac > 0")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("structural-sparse", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without a source tree: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
