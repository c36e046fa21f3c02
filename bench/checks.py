"""Correctness gate for benchmark answers, and the golden integers it uses.

A request fails when:
  * its exit code is not 0, or its output is not a structured report;
  * a crosscheck report has `agreement` other than true;
  * a residual is above the request tolerance;
  * a `general`/`factorized` pair on the same curve input gives different
    integers;
  * its integers differ from the golden ones recorded for it.  For the
    default seed every request must have a golden entry.

Integers are compared, not bytes: a later summation change may move the
residual floats.  To record the golden file again (only when the program's
integers are meant to change):

    PYTHONPATH=src python bench/checks.py --record
"""

import json
import os
import sys

DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def request_key(doc):
    """Canonical text of a request; the golden file is keyed by it."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def integers(report):
    """The integers of a structured report, row by row."""
    out = []
    for row in report["results"]:
        out.append(row["value"])
        if "value_kac_walton" in row:
            out.append(row["value_kac_walton"])
    return out


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Answer:
    """What the benchmark keeps of one answer once it has been judged."""

    def __init__(self, problems, integers=None, rows=0, max_residual=None):
        self.problems = problems
        self.integers = integers
        self.rows = rows
        self.max_residual = max_residual


def check_answer(doc, code, stdout, golden, seed):
    """Judge one request's answer on its own."""
    if code != 0:
        return Answer([f"exit code {code}"])
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return Answer(["stdout is not a structured report"])
    if not report.get("results"):
        return Answer(["report has no result rows"])
    problems = []
    if doc["computation"] == "crosscheck" and report.get("agreement") is not True:
        problems.append(f"agreement is {report.get('agreement')}")
    tol = doc["options"]["tolerance"]
    worst = max(row["residual"] for row in report["results"])
    if worst > tol:
        problems.append(f"residual {worst:.3e} above {tol}")
    got = integers(report)
    want = golden.get(request_key(doc))
    if want is None:
        if seed == DEFAULT_SEED:
            problems.append("no golden integers for a default-seed request")
    elif got != want:
        problems.append("integers differ from the golden ones")
    return Answer(problems, got, len(report["results"]), worst)


def check_pairs(docs, answers):
    """Flag general/factorized requests on one curve input that disagree."""
    by_curve = {}
    for doc, ans in zip(docs, answers):
        key = curve_key(doc)
        if key is not None and ans.integers is not None:
            by_curve.setdefault(key, []).append(ans)
    for group in by_curve.values():
        if len({tuple(a.integers) for a in group}) > 1:
            for ans in group:
                ans.problems.append("general and factorized integers differ")


def curve_key(doc):
    """Requests with the same curve key must give the same integer."""
    if doc["computation"] not in ("general", "factorized"):
        return None
    rest = {k: v for k, v in doc.items() if k != "computation"}
    return request_key(rest)


def _record():
    from twistblocks.cli import emit_report, parse_request, report_ok, run_request
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        for doc in workloads.requests(name, DEFAULT_SEED):
            req = parse_request(json.dumps(doc))
            rep = run_request(req)
            if not report_ok(rep, req.tolerance):
                raise SystemExit(f"refusing to record a failing answer: {doc}")
            golden[request_key(doc)] = integers(
                json.loads(emit_report(rep, "structured")))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
            for k, v in sorted(golden.items())) + "\n}\n")
    print(f"recorded {len(golden)} requests in {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python bench/checks.py --record")
    _record()
