#!/usr/bin/env python3
"""netctl benchmark.

    python3 perfbench/run.py --workload structural-sparse --seed 1 \
        --seconds 25 --trace 0

Run from the root of a netctl source tree.  The workload's inputs are
generated from --seed, its reference answers are computed once by
independent code, and its requests are then sent as a closed loop with
one client: real `netctl` subprocesses (`python3 -c "from netctl.cli
import main; ..."` with PYTHONPATH=src), one at a time, each checked
against its oracle.

--trace 0 measures the end-to-end metrics: after one untimed warm-up
start, `netctl --help` is timed several times (setup_s) and whole passes
over the request list are repeated for --seconds.

--trace 1 measures the per-layer metrics: one subprocess pass, then the
same requests in-process through netctl.cli.main, once untraced and once
with every public netctl function wrapped in a span (see tracing.py).

Every metric is printed with its unit; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A results
file with run metadata, per-request samples (and, traced, the spans) is
written under .perfbench/results/.
"""
import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
ENTRY = "import sys; from netctl.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import sys, time; before = set(sys.modules); "
                "t = time.perf_counter(); import netctl.cli; "
                "t = time.perf_counter() - t; "
                "print(t, len(set(sys.modules) - before))")
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# Request samples a timed run takes at least.  One pass of
# structural-sparse is four requests, too few for a steady req_p50_s, and
# a run that took one pass or two depending on the machine's speed made
# req_tail_s (the slowest request) jump between runs.
MIN_REQUESTS = 8


# ---------------------------------------------------------------------------
# Subprocesses


class Child:
    """One finished subprocess: wall time from spawn to exit, its own
    resource usage (os.wait4), exit code and output."""

    def __init__(self, argv, env, work):
        out_path, err_path = work / "child.out", work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.spawned = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=env, cwd=ROOT)
            guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            guard.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                guard.cancel()
            self.exited = time.perf_counter()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall = self.exited - self.spawned
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.cpu = usage.ru_utime + usage.ru_stime
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")


def child_env(work):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    env["PYTHONHASHSEED"] = "0"  # same inputs, same execution
    env.pop("NETCTL_SEED", None)
    return env


def judge(req, returncode, stdout, stderr, payloads):
    """None if the request's answer is right, else the reason it failed.
    A right answer is kept in `payloads` for requests that depend on it."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-200:]}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if payload.get("schema") != "netctl/1":
        return 'missing "schema": "netctl/1"'
    try:
        reason = req.check(payload, payloads)
    except Exception as exc:  # a malformed payload fails its request
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is None:
        payloads[req.name] = payload
    return reason


def subprocess_pass(reqs, env, work):
    """One pass over the request list; returns a record per request and
    the harness time between each child's exit and the next spawn."""
    payloads, records, gaps = {}, [], []
    last_exit = None
    for req in reqs:
        try:
            argv = req.resolve(payloads)
        except KeyError as exc:
            records.append({"request": req.name, "wall_s": None,
                            "error": f"needs the answer of {exc}"})
            continue
        child = Child(["-c", ENTRY] + argv, env, work)
        if last_exit is not None:
            gaps.append(child.spawned - last_exit)
        last_exit = child.exited
        records.append({
            "request": req.name, "wall_s": child.wall,
            "maxrss_mb": child.maxrss_mb, "cpu_s": child.cpu,
            "error": judge(req, child.returncode, child.stdout, child.stderr,
                           payloads)})
    return records, gaps


def help_wall(env, work):
    child = Child(["-c", ENTRY, "--help"], env, work)
    if child.returncode != 0:
        raise RuntimeError(f"netctl --help failed: {child.stderr[-300:]}")
    return child.wall


# ---------------------------------------------------------------------------
# In-process


def inprocess_pass(reqs, tracer=None):
    """The same requests through netctl.cli.main in this process; returns
    a record per request with the time spent in main.  With a tracer,
    its spans are tagged with the request's name."""
    import netctl.cli

    payloads, records = {}, []
    for req in reqs:
        if tracer is not None:
            tracer.request = req.name
        try:
            argv = req.resolve(payloads)
        except KeyError as exc:
            records.append({"request": req.name, "main_s": None,
                            "error": f"needs the answer of {exc}"})
            continue
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = netctl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        records.append({"request": req.name, "main_s": elapsed,
                        "error": judge(req, code, out.getvalue(),
                                       err.getvalue(), payloads)})
    return records


# ---------------------------------------------------------------------------
# Statistics and reporting


def tail(samples):
    """(value, percentile, samples beyond) of the highest percentile with
    at least ten samples beyond it.  With 20 samples or fewer that
    percentile is at or below the median, so the maximum is returned."""
    xs = sorted(samples)
    if len(xs) <= 20:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def git_commit():
    """Commit of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metadata(args):
    import importlib.metadata
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next((f"{k}={os.environ[k]}" for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ),
                   f"unset (OpenBLAS default: {os.cpu_count()})")
    try:
        networkx = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        networkx = "not installed"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "networkx": networkx,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "git_commit": git_commit(),
        "loop": "closed, one client, one request at a time",
    }


def emit(spec_metrics, values, attempted, failed, meta, records, spans,
         args):
    """Print every metric, write the results file, print the JSON line."""
    metrics = {}
    detail = {}
    for m in spec_metrics:
        value, samples, how = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        detail[m["name"]] = {"value": value, "unit": m["unit"],
                             "better": m["better"], "samples": samples,
                             "how": how}
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<6} "
              f"[{how}; {samples}]")
    fail_frac = failed / attempted
    print(f"{'fail_frac':<44} {fail_frac:>14.6g} ratio  "
          f"[{failed} failed of {attempted} attempted]")
    for r in records:
        if r.get("error"):
            print(f"FAILED {r['request']}: {r['error']}")

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    doc = {"metadata": meta, "attempted": attempted, "failed": failed,
           "fail_frac": fail_frac, "metrics": detail, "requests": records}
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if spans is not None:
        with open(results / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    print(f"results: {results / (stem + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(args, reqs, env, work):
    help_wall(env, work)  # warm-up: .pyc files and the page cache
    setup = [help_wall(env, work) for _ in range(SETUP_SAMPLES)]

    passes, records = [], []
    start = time.perf_counter()
    while True:
        recs, _ = subprocess_pass(reqs, env, work)
        for r in recs:
            r["pass"] = len(passes)
        records += recs
        passes.append(recs)
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_REQUESTS and \
                elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    timed = [r for r in records if r["wall_s"] is not None]
    walls = [r["wall_s"] for r in timed]
    t_val, t_pct, t_beyond = tail(walls)
    n_pass = f"{len(passes)} passes of {len(reqs)} requests"
    values = {
        "wall_s": (statistics.median(sum(r["wall_s"] or 0.0 for r in p)
                                     for p in passes),
                   n_pass, "measured: median over passes of the summed "
                           "request wall times"),
        "peak_rss_mb": (max(r["maxrss_mb"] for r in timed),
                        f"{len(timed)} requests",
                        "measured: largest ru_maxrss of any request"),
        "setup_s": (statistics.median(setup), f"{len(setup)} runs",
                    "measured: median wall time of netctl --help"),
        "req_p50_s": (statistics.median(walls), f"{len(walls)} requests",
                      "measured: median request wall time"),
        "req_tail_s": (t_val, f"{len(walls)} requests",
                       f"measured: p{t_pct:.1f} request wall time, "
                       f"{t_beyond} requests beyond it"),
    }
    failed = sum(1 for r in records if r["error"])
    return values, len(records), failed, records


def per_layer(reqs, env, work, tracer, names):
    import tracemalloc

    import netctl.graphs
    import tracing

    help_wall(env, work)  # warm-up
    probes = []
    for _ in range(IMPORT_SAMPLES):
        child = Child(["-c", IMPORT_PROBE], env, work)
        t, n_mod = child.stdout.split()
        probes.append((float(t), int(n_mod)))

    sub, gaps = subprocess_pass(reqs, env, work)
    plain = inprocess_pass(reqs)
    restore = tracing.install(tracer)
    try:
        traced = inprocess_pass(reqs, tracer)
    finally:
        restore()
    spans = tracer.spans

    edge_files = sorted(work.glob("*.edges"), key=lambda p: p.stat().st_size)
    parse_peak = 0.0
    if edge_files:
        text = edge_files[-1].read_text()
        tracemalloc.start()
        netctl.graphs.parse_edge_list(text)
        parse_peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    own = tracing.self_times(spans)
    main_plain = sum(r["main_s"] or 0.0 for r in plain)
    main_traced = sum(r["main_s"] or 0.0 for r in traced)
    sub_wall = sum(r["wall_s"] or 0.0 for r in sub)
    clusters = sum(s.attrs.get("clusters", 0) for s in spans)
    rank_tests = clusters + sum(s.attrs.get("n", 0) for s in spans)
    n_span = f"{len(spans)} spans"
    values = {
        "cli.import_s": (statistics.median(p[0] for p in probes),
                         f"{len(probes)} fresh processes",
                         "measured: median time of import netctl.cli"),
        "cli.import_modules": (probes[0][1], "1 fresh process",
                               "measured: modules import netctl.cli adds"),
        "cli.main_s": (main_plain, f"{len(plain)} requests",
                       "measured: untraced in-process main time"),
        "cli.overhead_s": (sub_wall - main_plain, f"{len(sub)} requests",
                           "measured: subprocess wall minus in-process main"),
        "cli.child_cpu_s": (sum(r.get("cpu_s") or 0.0 for r in sub),
                            f"{len(sub)} requests",
                            "measured: user+sys time of the children"),
        "bench.gap_s": (sum(gaps), f"{len(gaps)} gaps",
                        "measured: harness time from child exit to next "
                        "spawn"),
        "bench.trace_overhead_frac": (
            main_traced / main_plain - 1.0, "1 traced + 1 untraced pass",
            "measured: traced / untraced in-process main time - 1"),
        "graphs.parse_peak_mb": (parse_peak, "1 parse",
                                 "measured: tracemalloc peak of "
                                 "parse_edge_list on the largest edge list"),
        "graphs.matching_size": (
            max([s.attrs.get("matching_size", 0) for s in spans] or [0]),
            n_span, "measured: largest matching returned"),
        "exact.clusters": (clusters, n_span,
                           "computed: eigenvalue clusters from eigen_table"),
        "exact.rank_tests": (rank_tests, n_span,
                             "computed: clusters + n (one SVD per cluster, "
                             "one per row)"),
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = (own.get(name[:-6], (0.0, 0))[1], n_span,
                            "measured: span count")
        elif name.endswith(".self_s"):
            layer = name[:-7]
            values[name] = (sum(t for k, (t, _) in own.items()
                                if k.split(".")[0] == layer), n_span,
                            "measured: summed self time of the layer's spans")
        else:
            values[name] = (own.get(name[:-2], (0.0, 0))[0], n_span,
                            "measured: summed self time of the spans")
    errors = {}
    for s in spans:
        if s.error:
            layer = s.name.split(".")[0]
            errors[layer] = errors.get(layer, 0) + 1
    for layer in ("cli",) + tracing.LAYERS:
        print(f"{layer + '.errors':<44} {errors.get(layer, 0):>14d} count  "
              f"[NetctlErrors raised out of the layer's spans]")
    records = ([dict(r, mode="subprocess") for r in sub]
               + [dict(r, mode="in-process") for r in plain]
               + [dict(r, mode="traced") for r in traced])
    attempted = len(records)
    failed = sum(1 for r in records if r["error"])
    return values, attempted, failed, records, spans


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="self-test: small inputs and fewer requests")
    p.add_argument("--corrupt-oracle", action="store_true",
                   help="self-test: give the first driver count a wrong "
                        "reference value")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "netctl" / "cli.py").is_file():
        print(f"perfbench: no netctl source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{workload_names}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env(work)
        meta = metadata(args)
        # traced runs also record the input build (the generators layer)
        tracer = tracing.Tracer()
        tracer.request = "build"
        restore = tracing.install(tracer) if args.trace else (lambda: None)
        try:
            reqs = workloads.build(args.workload, work, args.seed, args.smoke,
                                   args.corrupt_oracle)
        finally:
            restore()
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, attempted, failed, records, spans = per_layer(
                reqs, env, work, tracer, names)
            emit(spec["per_layer"], values, attempted, failed, meta, records,
                 spans, args)
        else:
            values, attempted, failed, records = end_to_end(args, reqs, env,
                                                            work)
            emit(spec["end_to_end"], values, attempted, failed, meta,
                 records, None, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
