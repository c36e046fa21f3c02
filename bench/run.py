"""twistblocks benchmark: cold `verlinde` requests, one after another.

    python3 bench/run.py --workload crosscheck --seed 0 --seconds 40 --trace 0

Each request runs in a fresh child process,
`PYTHONPATH=src python -m twistblocks.cli - --format structured`, which is
the cold process a CLI user pays for every time.  The loop is closed: one
client, at most one child at a time.  The requests run in order, over and
over, while the next one still ends within `--seconds`; each runs at least
once.  Per request the median over its runs is taken.

With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run (bench/tracer.py), which
runs each request untraced and traced back to back to give the tracing
overhead.  Every answer goes through the correctness gate in
bench/checks.py.  The line before the last one is a JSON report with the
run's metadata, the request set digest, sample counts, `request_p50_s`,
`error_frac` and failures.  Workloads and metrics are
described in bench/README.md.

This process never imports numpy or twistblocks: Linux counts the parent's
resident set at fork time into a child's ru_maxrss, so a large benchmark
process would inflate `peak_rss_mb`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# set-up samples: one every SETUP_EVERY_S of the run, at least SETUP_SAMPLES
SETUP_EVERY_S = 4.0
SETUP_SAMPLES = 7
# a child slower than this is killed and counted as failed, so one run
# stays well inside its 180 s limit
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# layers each workload must exercise; a name instead of None is the answer
# count the layer's calls must equal
COMMON_LAYERS = ("cli.parse_request", "cli.emit_report",
                 "liecore.build_root_datum", "twist.build_twist",
                 "liecore.signed_orbit", "liecore.character_at_exponents",
                 "alcove.enumerate_sigma_c", "alcove.lattice_orders",
                 "util.smith_normal_form", "util.tree_sum")
REQUIRED_LAYERS = {
    "crosscheck": {"liecore.weight_system": None,
                   "liecore.tensor_multiplicities": None,
                   "twist.branch_to_fixed": None,
                   "alcove.fold_to_alcove": None,
                   "kacwalton.kac_walton_dimension": "crosscheck_rows",
                   "dims.twisted_three_point": "crosscheck_rows"},
    "pointsum": {"dims.twisted_three_point": None,
                 "dims.fusion_coefficient": "fusion_table_rows",
                 "dims.general_dimension": "general_requests",
                 "dims.factorized_dimension": "factorized_requests"},
    "classical": {"dims.classical_verlinde": "classical_requests"},
}


class Sample:
    """One finished request: its timing, its own rusage and its judged answer."""

    def __init__(self, doc, wall_s, usage, answer, trace):
        self.doc = doc
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024     # Linux reports KiB
        self.answer = answer
        self.trace = trace
        self.stderr_tail = ""


def run_child(argv, data=b""):
    """Run one child to completion; rusage comes from wait4 on its pid.

    RUSAGE_CHILDREN would not do: its ru_maxrss is a high-water mark over
    every child reaped so far.  If the benchmark itself is interrupted, the
    child is killed and reaped before the exception goes on.
    """
    # One OpenBLAS thread: the program makes no BLAS calls, but numpy's
    # OpenBLAS pool spins for about 0.1 s after import.  That adds CPU time
    # when the second core is idle and wall time when it is busy, so it made
    # both depend on the machine's other load rather than on the program.
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    try:
        killer.start()
        reader.start()
        try:
            proc.stdin.write(data)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if reader.ident is not None:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out.decode(), err[0].decode(), wall, usage


def run_request(doc, traced, golden, seed):
    entry = [tracer.__file__] if traced else ["-m", "twistblocks.cli"]
    argv = [sys.executable, *entry, "-", "--format", "structured"]
    code, out, err, wall, usage = run_child(argv, json.dumps(doc).encode())
    answer = checks.check_answer(doc, code, out, golden, seed)
    trace = parse_trace(err) if traced else None
    if traced and trace is None:
        answer.problems.append("traced child printed no TRACE line")
    sample = Sample(doc, wall, usage, answer, trace)
    if answer.problems:
        sample.stderr_tail = err[-400:]
    return sample


def parse_trace(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith(tracer.TRACE_PREFIX):
            return json.loads(line[len(tracer.TRACE_PREFIX):])
    return None


def child_output(argv):
    code, out, err, _, _ = run_child(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{err}")
    return out


def setup_sample():
    """Wall time of a fresh interpreter that imports twistblocks and exits."""
    code, _, err, wall, _ = run_child([sys.executable, "-c", "import twistblocks"])
    if code != 0:
        raise SystemExit(f"import twistblocks failed:\n{err}")
    return wall


def run_cycles(reqs, seconds, kinds, golden, seed):
    """Run the requests in order, over and over, until the next one would end
    after `seconds`; every request runs at least once.  Each step runs one
    request once per kind (False untraced, True traced), back to back, so
    the tracing overhead is measured under the same machine load.  Set-up
    samples are spread over the run in the same way, one every
    SETUP_EVERY_S and at least SETUP_SAMPLES.

    Returns ({kind: [samples of request i, for each i]}, set-up walls).
    """
    samples = {kind: [[] for _ in reqs] for kind in kinds}
    setup_walls = []
    last_step = [0.0] * len(reqs)
    start = time.perf_counter()
    step = 0
    while True:
        if time.perf_counter() - start >= len(setup_walls) * SETUP_EVERY_S:
            setup_walls.append(setup_sample())
        i = step % len(reqs)
        t0 = time.perf_counter()
        for kind in kinds:
            samples[kind][i].append(run_request(reqs[i], kind, golden, seed))
        last_step[i] = time.perf_counter() - t0
        step += 1
        elapsed = time.perf_counter() - start
        if step >= len(reqs) and elapsed + last_step[step % len(reqs)] > seconds:
            break
    while len(setup_walls) < SETUP_SAMPLES:
        setup_walls.append(setup_sample())
    return samples, setup_walls


def medians(per_request, attr):
    """Median of one sample attribute for each request."""
    return [statistics.median(getattr(s, attr) for s in runs) for runs in per_request]


def end_to_end(per_request, setup_s):
    return {"wall_s": sum(medians(per_request, "wall_s")),
            "cpu_s": sum(medians(per_request, "cpu_s")),
            "peak_rss_mb": max(medians(per_request, "maxrss_mb")),
            "setup_s": setup_s}


def layer_medians(runs):
    """One request's layer numbers: the median over its traced samples."""
    traces = [(s.trace or {}).get("layers", {}) for s in runs]
    layers = {layer for t in traces for layer in t}
    return {layer: {field: statistics.median(t.get(layer, {}).get(field, 0)
                                             for t in traces)
                    for field in {f for t in traces for f in t.get(layer, {})}}
            for layer in layers}


def answer_counts(reqs, per_request):
    counts = {"crosscheck_rows": 0, "fusion_table_rows": 0, "general_requests": 0,
              "factorized_requests": 0, "classical_requests": 0}
    for doc, runs in zip(reqs, per_request):
        comp = doc["computation"]
        if comp in ("crosscheck", "fusion_table"):
            counts[f"{comp}_rows"] += runs[0].answer.rows
        else:
            counts[f"{comp}_requests"] += 1
    return counts


def per_layer(workload, reqs, samples):
    """Per-layer metrics summed over the request set, tracing cost, and the
    self-check problems."""
    traced = samples[True]
    totals = {}
    for runs in traced:
        for layer, st in layer_medians(runs).items():
            acc = totals.setdefault(layer, {})
            for field, v in st.items():
                acc[field] = acc.get(field, 0) + v
    absent = sorted({layer for runs in traced for s in runs
                     for layer in (s.trace or {}).get("absent", [])})
    metrics = {}
    for layer, (_, _, fields, _) in tracer.LAYERS.items():
        st = totals.get(layer, {})
        metrics[f"{layer}.self_s"] = (st.get("self_s", 0.0), "s")
        metrics[f"{layer}.calls"] = (st.get("calls", 0), "count")
        for field in fields:
            if field == "walls":
                calls = st.get("calls", 0)
                metrics[f"{layer}.wall_frac"] = (
                    st.get("walls", 0) / calls if calls else 0.0, "ratio")
            else:
                unit = "bytes" if field == "bytes" else "count"
                metrics[f"{layer}.{field}"] = (st.get(field, 0), unit)
    residuals = [s.answer.max_residual for kind in samples for runs in samples[kind]
                 for s in runs if s.answer.max_residual is not None]
    metrics["dims.max_residual"] = (max(residuals, default=0.0), "1")
    untraced_wall = sum(medians(samples[False], "wall_s"))
    traced_wall = sum(medians(traced, "wall_s"))
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    problems = []
    want = answer_counts(reqs, traced)
    required = dict.fromkeys(COMMON_LAYERS)
    required.update(REQUIRED_LAYERS[workload])
    for layer, exact in required.items():
        if layer in absent:
            continue
        calls = metrics[f"{layer}.calls"][0]
        if calls == 0:
            problems.append(f"{layer} recorded zero calls")
        elif exact is not None and calls != want[exact]:
            problems.append(f"{layer} made {calls} calls, expected {want[exact]} "
                            f"({exact})")
    tracing = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "overhead_s": traced_wall - untraced_wall,
               "overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
               "absent_layers": absent}
    return metrics, problems, tracing


def steal_seconds():
    """CPU time the hypervisor has taken from this machine, or None.

    Recorded around a run because stolen time shows up in `wall_s` but not
    in `cpu_s`, and it is the main source of run-to-run spread on a shared
    virtual machine.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def metadata(seed, reqs, numpy_version):
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "twistblocks")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    req_text = json.dumps(reqs, sort_keys=True, separators=(",", ":"))
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": commit, "source_sha256": src.hexdigest(),
            "request_count": len(reqs),
            "request_set_sha256": hashlib.sha256(req_text.encode()).hexdigest()}


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "twistblocks", "cli.py")):
        print(f"error: no twistblocks sources under {SRC}", file=sys.stderr)
        return 2
    reqs = json.loads(child_output([sys.executable, workloads.__file__,
                                    args.workload, str(args.seed)]))
    golden = checks.load_golden()
    # untimed warm-up of the interpreter and the file cache
    numpy_version = child_output([sys.executable, "-c",
                                  "import twistblocks, numpy; print(numpy.__version__)"])
    meta = metadata(args.seed, reqs, numpy_version.strip())

    kinds = (False, True) if args.trace else (False,)
    steal0, t0 = steal_seconds(), time.perf_counter()
    samples, setup_samples = run_cycles(reqs, args.seconds, kinds, golden, args.seed)
    steal1, elapsed = steal_seconds(), time.perf_counter() - t0
    if steal0 is not None and steal1 is not None:
        meta["steal_frac"] = (steal1 - steal0) / (elapsed * os.cpu_count())
    setup_s = statistics.median(setup_samples)
    flat = [s for kind in kinds for runs in samples[kind] for s in runs]
    checks.check_pairs([s.doc for s in flat], [s.answer for s in flat])
    attempted = len(flat)
    failed = sum(1 for s in flat if s.answer.problems)

    report = {"workload": args.workload, "trace": args.trace, "metadata": meta,
              "loop": "closed, 1 client, sequential",
              "samples_per_request": [len(runs) for runs in samples[False]],
              # not a bounded metric: the median of 6 to 22 per-request
              # times sits between request groups, and machine load moved
              # it by up to a third from run to run
              "request_p50_s": {"value": statistics.median(medians(samples[False],
                                                                   "wall_s")),
                                "unit": "s", "samples": len(reqs)},
              "setup_samples_s": setup_samples,
              "error_frac": {"value": failed / attempted, "failed": failed,
                             "attempted": attempted,
                             "base": "request executions in this run"}}
    if args.trace:
        metrics, problems, report["tracing"] = per_layer(args.workload, reqs, samples)
        report["self_check_problems"] = problems
    else:
        values = end_to_end(samples[False], setup_s)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        problems = []
    report["failures"] = [{"request": s.doc, "problems": s.answer.problems,
                           "stderr_tail": s.stderr_tail}
                          for s in flat if s.answer.problems][:10]
    report["benchmark_maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    correct = failed == 0 and not problems

    print(f"{args.workload}: {len(reqs)} requests, {attempted} executions, "
          f"seed {args.seed}, trace {args.trace}; {failed} of {attempted} "
          f"requests failed (error_frac {failed / attempted:g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  {'request_p50_s (report only)':48s} "
          f"{report['request_p50_s']['value']:.6g} s, {len(reqs)} samples")
    for problem in problems:
        print(f"  self-check: {problem}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
