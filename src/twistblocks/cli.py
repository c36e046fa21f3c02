"""Batch front-end: parse a structured request, dispatch to the pipelines,
emit integer tables with diagnostics.

The structured format is JSON with a mandatory ``version`` field; weight
coordinates are always fundamental-weight coordinates of the algebra that
owns the slot ("twisted" slots belong to the fixed subalgebra, "ambient"
slots to g itself).
"""

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .dims import (CurveRequest, ThreePointRequest, classical_verlinde,
                   factorized_dimension, fusion_coefficient, general_dimension,
                   twisted_three_point)
from .errors import (IllegalPair, IntegralityError, SchemaError,
                     UnsupportedCombination, VerlindeError)
from .kacwalton import kac_walton_dimension
from .liecore import build_root_datum
from .twist import ambient_alphabet, build_twist, twist_kind, weight_alphabet

SCHEMA_VERSION = 1

_COMPUTATIONS = ("classical", "three_point", "fusion_table", "general",
                 "factorized", "crosscheck")

_KIND_BY_NAME = {("identity", 1): "identity", ("diagram", 2): "diagram2",
                 ("diagram", 3): "diagram3", ("standard", 4): "standard4"}


def _is_int(x):
    """A JSON integer: bool is an int subclass, but true/false are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_tolerance(x):
    """Positive and finite as a float: NaN, inf and ints past it are not."""
    return (_is_int(x) or isinstance(x, float)) and 0 < x <= sys.float_info.max


@dataclass
class Request:
    algebra_type: str
    algebra_rank: int
    twist_tag: str
    level: int
    computation: str
    weights_twisted: tuple = ()
    weights_ambient: tuple = ()
    genus_bar: int = 0
    pairs: int = 0
    tolerance: float = 1e-5
    out_format: str = "table"

    def echo(self):
        kind = twist_kind(self.twist_tag)
        name = "identity" if kind.tag == "identity" else \
            ("standard" if kind.tag == "standard4" else "diagram")
        return {
            "version": SCHEMA_VERSION,
            "algebra": {"type": self.algebra_type, "rank": self.algebra_rank},
            "twist": {"kind": name, "order": kind.order},
            "level": self.level,
            "computation": self.computation,
            "weights": {"twisted": [list(w) for w in self.weights_twisted],
                        "ambient": [list(w) for w in self.weights_ambient]},
            "genus_bar": self.genus_bar,
            "pairs": self.pairs,
            "options": {"tolerance": self.tolerance, "format": self.out_format},
        }


@dataclass
class Report:
    version: int
    request: dict
    pipelines: tuple
    results: tuple
    agreement: Optional[bool] = None
    timing: Optional[float] = None


def parse_request(text):
    """Validate structured-request text into a Request.

    Structural violations are collected and reported together; illegal
    algebra/twist combinations raise their dedicated errors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"request is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("request must be a JSON object")

    problems = []

    def need(path, cond, msg):
        if not cond:
            problems.append(f"{path}: {msg}")
        return cond

    if need("version", _is_int(doc.get("version")), "required integer"):
        need("version", doc["version"] == SCHEMA_VERSION,
             f"unsupported version {doc.get('version')}")
    alg = doc.get("algebra")
    ok_alg = need("algebra", isinstance(alg, dict), "required object")
    if ok_alg:
        need("algebra.type", isinstance(alg.get("type"), str), "required string")
        need("algebra.rank", _is_int(alg.get("rank")), "required integer")
    tw = doc.get("twist", {"kind": "identity", "order": 1})
    ok_tw = need("twist", isinstance(tw, dict), "must be an object")
    tag = None
    if ok_tw:
        kindname = tw.get("kind")
        order = tw.get("order")
        need("twist.kind", isinstance(kindname, str), "required string")
        need("twist.order", _is_int(order), "required integer")
        tag = _KIND_BY_NAME.get((kindname, order))
        need("twist", tag is not None,
             f"unknown kind/order combination {kindname!r}/{order!r}")
    need("level", _is_int(doc.get("level")) and doc["level"] >= 1,
         "required integer >= 1")
    comp = doc.get("computation")
    need("computation", comp in _COMPUTATIONS,
         f"must be one of {', '.join(_COMPUTATIONS)}")

    weights = doc.get("weights", {})
    need("weights", isinstance(weights, dict), "must be an object")
    opts = doc.get("options", {})
    need("options", isinstance(opts, dict), "must be an object")

    if problems:
        raise SchemaError("; ".join(problems))

    rd = build_root_datum(alg["type"], alg["rank"])   # may raise UnsupportedType
    try:
        twist = build_twist(rd, tag)
    except IllegalPair as exc:
        raise UnsupportedCombination(str(exc)) from None

    def vectors(key, rank, path):
        raw = weights.get(key, [])
        if not isinstance(raw, list):
            problems.append(f"{path}: must be a list of coordinate vectors")
            return ()
        out = []
        for i, v in enumerate(raw):
            if not (isinstance(v, list) and len(v) == rank
                    and all(_is_int(x) for x in v)):
                problems.append(f"{path}[{i}]: expected {rank} integer coordinates")
            else:
                out.append(tuple(v))
        return tuple(out)

    wt = vectors("twisted", twist.fixed.rank, "weights.twisted")
    wa = vectors("ambient", rd.rank, "weights.ambient")

    genus_bar = doc.get("genus_bar", 0)
    need("genus_bar", _is_int(genus_bar) and genus_bar >= 0,
         "must be an integer >= 0")
    pairs = doc.get("pairs", len(wt) // 2)
    need("pairs", _is_int(pairs) and pairs >= 0, "must be an integer >= 0")

    tol = opts.get("tolerance", 1e-5)
    need("options.tolerance", _is_tolerance(tol), "must be a positive finite number")
    fmt = opts.get("format", "table")
    need("options.format", fmt in ("table", "structured"),
         "must be 'table' or 'structured'")

    if comp == "classical":
        need("twist", tag == "identity", "classical computation needs the identity twist")
    elif comp in ("three_point", "fusion_table", "crosscheck"):
        need("twist", tag != "identity", f"{comp} needs a nontrivial twist")
    elif comp == "factorized" and tag == "identity":
        need("pairs", pairs == 0 and not wt,
             "factorized with the identity twist admits no ramified pairs")
    if comp == "three_point":
        need("weights.twisted", len(wt) == 2, "need exactly [lambda, mu]")
        need("weights.ambient", len(wa) == 1, "need exactly [nu]")
    if comp in ("general", "factorized"):
        need("weights.twisted", len(wt) == 2 * pairs,
             f"need 2*pairs = {2 * pairs} twisted weights")

    if problems:
        raise SchemaError("; ".join(problems))

    return Request(algebra_type=alg["type"], algebra_rank=alg["rank"],
                   twist_tag=tag, level=doc["level"], computation=comp,
                   weights_twisted=wt, weights_ambient=wa,
                   genus_bar=genus_bar, pairs=pairs, tolerance=float(tol),
                   out_format=fmt)


def _result_row(inputs, res):
    return {"inputs": inputs, "value": res.value, "residual": res.residual}


def run_request(req):
    """Dispatch a validated Request and gather a Report."""
    t0 = time.perf_counter()
    rd = build_root_datum(req.algebra_type, req.algebra_rank)
    twist = build_twist(rd, req.twist_tag)
    c = req.level
    agreement = None

    if req.computation == "classical":
        res = classical_verlinde(rd, c, req.genus_bar, req.weights_ambient)
        rows = [_result_row({"genus": req.genus_bar,
                             "weights": [list(w) for w in req.weights_ambient]}, res)]
        pipelines = ("classical_verlinde",)
    elif req.computation == "three_point":
        res = twisted_three_point(ThreePointRequest(
            twist=twist, level=c, lam=req.weights_twisted[0],
            mu=req.weights_twisted[1], nu=req.weights_ambient[0]))
        rows = [_result_row({"lambda": list(req.weights_twisted[0]),
                             "mu": list(req.weights_twisted[1]),
                             "nu": list(req.weights_ambient[0])}, res)]
        pipelines = ("twisted_verlinde",)
    elif req.computation == "fusion_table":
        alphabet = weight_alphabet(twist, c).members
        rows = []
        for a in alphabet:
            for b in alphabet:
                for e in alphabet:
                    res = fusion_coefficient(twist, c, a, b, e)
                    rows.append(_result_row(
                        {"lambda": list(a), "mu": list(b), "eta": list(e)}, res))
        pipelines = ("twisted_verlinde",)
    elif req.computation in ("general", "factorized"):
        creq = CurveRequest(twist=twist, level=c, genus_bar=req.genus_bar,
                            lambda_dagger=req.weights_twisted, mu=req.weights_ambient)
        fn = general_dimension if req.computation == "general" else factorized_dimension
        res = fn(creq)
        rows = [_result_row({"genus_bar": req.genus_bar, "pairs": creq.pairs,
                             "lambda_dagger": [list(w) for w in req.weights_twisted],
                             "mu": [list(w) for w in req.weights_ambient]}, res)]
        pipelines = ("twisted_verlinde" if req.computation == "general"
                     else "factorization",)
    elif req.computation == "crosscheck":
        alphabet = weight_alphabet(twist, c).members
        amb = ambient_alphabet(twist, c)
        rows = []
        for a in alphabet:
            for b in alphabet:
                for n in amb:
                    r3 = ThreePointRequest(twist=twist, level=c, lam=a, mu=b, nu=n)
                    res = twisted_three_point(r3)
                    kw, _ = kac_walton_dimension(r3)
                    rows.append({"inputs": {"lambda": list(a), "mu": list(b),
                                            "nu": list(n)},
                                 "value": res.value, "residual": res.residual,
                                 "value_kac_walton": kw, "agree": kw == res.value})
        agreement = all(r["agree"] for r in rows)
        pipelines = ("twisted_verlinde", "kac_walton")
    else:  # pragma: no cover - parse_request already rejected it
        raise UnsupportedCombination(req.computation)

    timing = time.perf_counter() - t0
    return Report(version=SCHEMA_VERSION, request=req.echo(), pipelines=pipelines,
                  results=tuple(rows), agreement=agreement, timing=timing)


def report_ok(rep, tolerance):
    """The residual judge: every row within tolerance, no disagreement."""
    if any(r["residual"] > tolerance for r in rep.results):
        return False
    if rep.agreement is False:
        return False
    return True


# with indent set, json encodes through its pure-Python iterencode, which
# yields the document in small pieces: json.dumps' bytes, never held whole.
# A report is a tree of fresh containers, so the cycle check (a third of the
# encoding time) is skipped; it changes no byte
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, check_circular=False)


def _structured_parts(rep):
    """The structured report, json.dumps(doc, sort_keys=True, indent=2) + "\n"
    byte for byte, as consecutive strings."""
    doc = {"version": rep.version, "request": rep.request,
           "pipelines": rep.pipelines, "results": rep.results,
           "agreement": rep.agreement, "timing": None}
    yield from _ENCODER.iterencode(doc)
    yield "\n"


def _table_lines(rep):
    """The table form, one line at a time; its widths need every row first."""
    keys = []
    for row in rep.results:
        for k in row["inputs"]:
            if k not in keys:
                keys.append(k)
    extra = ["value_kac_walton", "agree"] if rep.agreement is not None else []
    header = keys + ["value", "residual"] + extra
    table = [header]
    for row in rep.results:
        line = [str(row["inputs"].get(k, "")) for k in keys]
        line.append(str(row["value"]))
        line.append(f"{row['residual']:.2e}")
        for k in extra:
            line.append(str(row[k]))
        table.append(line)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        yield "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n"
    if rep.agreement is not None:
        yield f"# agreement: {rep.agreement}\n"
    if rep.timing is not None:
        yield f"# elapsed: {rep.timing:.3f}s\n"


def emit_report(rep, out_format, out=None):
    """Render a Report; the structured form is byte-deterministic.

    With `out`, the text is written to it one piece at a time, so its whole
    text is never held at once, and nothing is returned; without, it is
    returned as one string.

    Wall-clock timing is deliberately serialized as null so identical
    requests produce identical bytes across runs.
    """
    if out_format == "structured":
        parts = _structured_parts(rep)
    elif out_format == "table":
        parts = _table_lines(rep)
    else:
        raise SchemaError(f"unknown output format {out_format!r}")
    if out is None:
        return "".join(parts)
    for part in parts:
        out.write(part)


def _report_stream():
    """stdout's descriptor behind a BufferedWriter, which retries a short
    write (the unbuffered sys.stdout of PYTHONUNBUFFERED ignores one, so a
    reader that leaves mid-write would get truncated output and exit 0); a
    stdout without a descriptor is used as is, and left open."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return contextlib.nullcontext(sys.stdout)
    sys.stdout.flush()
    return open(fd, "w", encoding="ascii", closefd=False)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="verlinde",
        description="Twisted conformal-block dimensions: Verlinde sums, "
                    "Kac-Walton recursion, factorization.")
    ap.add_argument("request", help="request file, or - for stdin")
    ap.add_argument("--format", choices=("table", "structured"), default=None)
    ap.add_argument("--tolerance", type=float, default=None)
    args = ap.parse_args(argv)

    try:
        if args.request == "-":
            text = sys.stdin.read()
        else:
            with open(args.request, "r", encoding="utf-8") as fh:
                text = fh.read()
        req = parse_request(text)
        if args.tolerance is not None:
            if not _is_tolerance(args.tolerance):
                raise SchemaError("--tolerance: must be a positive finite number")
            req.tolerance = args.tolerance
        if args.format is not None:
            req.out_format = args.format
        rep = run_request(req)
    except IntegralityError as exc:
        # a numerical failure of a pipeline, not a bad request
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerlindeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with _report_stream() as out:
            emit_report(rep, req.out_format, out)
            out.flush()
    except OSError as exc:
        # the reader went away (`verlinde req.json | head`) or the disk is
        # full: what the report stream and stdout still buffer goes to
        # os.devnull, so the flushes when they close raise nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    if req.out_format == "structured" and rep.timing is not None:
        print(f"# elapsed: {rep.timing:.3f}s", file=sys.stderr)
    return 0 if report_ok(rep, req.tolerance) else 1


if __name__ == "__main__":
    sys.exit(main())
