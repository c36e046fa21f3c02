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

from .dims import (classical_verlinde, factorized_dimension, fusion_coefficient,
                   general_dimension, twisted_three_point)
from .errors import (IllegalPair, IntegralityError, SchemaError,
                     UnsupportedCombination, VerlindeError)
from .kacwalton import kac_walton_dimension
from .liecore import build_root_datum
from .twist import ambient_alphabet, build_twist, weight_alphabet

SCHEMA_VERSION = 1

# schema 1's per-row residual: every value is an exact integer
RESIDUAL = 0.0

_COMPUTATIONS = ("classical", "three_point", "fusion_table", "general",
                 "factorized", "crosscheck")

_KIND_BY_NAME = {("identity", 1): "identity", ("diagram", 2): "diagram2",
                 ("diagram", 3): "diagram3", ("standard", 4): "standard4"}
_NAME_BY_KIND = {tag: name for name, tag in _KIND_BY_NAME.items()}


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
    tolerance: float = 1e-5     # schema 1 field: validated and echoed, judges nothing
    out_format: str = "table"

    def echo(self):
        name, order = _NAME_BY_KIND[self.twist_tag]
        return {
            "version": SCHEMA_VERSION,
            "algebra": {"type": self.algebra_type, "rank": self.algebra_rank},
            "twist": {"kind": name, "order": order},
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
    results: tuple      # of Row
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
    except ValueError:
        # an integer literal longer than Python's limit for int-str
        # conversion (3.10.7+, 3.11+), which main lifts only once the
        # request is parsed
        raise SchemaError("request holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
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
        ok_kind = need("twist.kind", isinstance(kindname, str), "required string")
        ok_order = need("twist.order", _is_int(order), "required integer")
        if ok_kind and ok_order:    # a list or object would be unhashable
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
    # a field the computation does not read must hold its default, which is
    # what the echo prints: a report never echoes an input it ignored
    unread = f"{comp} does not read it; leave it out"
    if comp in ("crosscheck", "fusion_table"):
        need("weights", not wt and not wa, unread)
        need("genus_bar", genus_bar == 0, unread)
    elif comp == "classical":
        need("weights.twisted", not wt, unread)
    elif comp == "three_point":
        need("genus_bar", genus_bar == 0, unread)
    if comp not in ("general", "factorized"):
        need("pairs", pairs == len(wt) // 2, unread)

    if problems:
        raise SchemaError("; ".join(problems))

    return Request(algebra_type=alg["type"], algebra_rank=alg["rank"],
                   twist_tag=tag, level=doc["level"], computation=comp,
                   weights_twisted=wt, weights_ambient=wa,
                   genus_bar=genus_bar, pairs=pairs, tolerance=float(tol),
                   out_format=fmt)


class Row:
    """One result row as a report holds it until it is written.

    Input k, named names[k], refers to a value the rows share (one list per
    alphabet member, built once); the slots past len(names) hold None.
    value_kac_walton is None outside a crosscheck.  as_doc builds the row's
    dict, which lives only while the encoder writes it.
    """
    __slots__ = ("names", "in0", "in1", "in2", "in3", "value", "value_kac_walton")

    def __init__(self, names, inputs, value, value_kac_walton=None):
        self.names = names
        self.in0, self.in1, self.in2, self.in3 = (*inputs, None, None, None)[:4]
        self.value = value
        self.value_kac_walton = value_kac_walton

    def inputs(self):
        return dict(zip(self.names, (self.in0, self.in1, self.in2, self.in3)))

    def as_doc(self):
        kw = self.value_kac_walton
        if kw is None:
            return {"inputs": self.inputs(), "value": self.value, "residual": RESIDUAL}
        return {"inputs": self.inputs(), "value": self.value, "residual": RESIDUAL,
                "value_kac_walton": kw, "agree": kw == self.value}


def run_request(req):
    """Dispatch a validated Request and gather a Report."""
    t0 = time.perf_counter()
    rd = build_root_datum(req.algebra_type, req.algebra_rank)
    twist = build_twist(rd, req.twist_tag)
    c = req.level
    agreement = None

    if req.computation == "classical":
        value = classical_verlinde(rd, c, req.genus_bar, req.weights_ambient)
        rows = [Row(("genus", "weights"),
                    (req.genus_bar, [list(w) for w in req.weights_ambient]), value)]
        pipelines = ("classical_verlinde",)
    elif req.computation == "three_point":
        (lam, mu), (nu,) = req.weights_twisted, req.weights_ambient
        value = twisted_three_point(twist, c, lam, mu, nu)
        rows = [Row(("lambda", "mu", "nu"), (list(lam), list(mu), list(nu)), value)]
        pipelines = ("twisted_verlinde",)
    elif req.computation == "fusion_table":
        # one list per alphabet member, shared by its rows
        alphabet = [(w, list(w)) for w in weight_alphabet(twist, c).members]
        names = ("lambda", "mu", "eta")
        rows = []
        for a, la in alphabet:
            for b, lb in alphabet:
                for e, le in alphabet:
                    rows.append(Row(names, (la, lb, le),
                                    fusion_coefficient(twist, c, a, b, e)))
        pipelines = ("twisted_verlinde",)
    elif req.computation in ("general", "factorized"):
        fn = general_dimension if req.computation == "general" else factorized_dimension
        value = fn(twist, c, req.genus_bar, req.weights_twisted, req.weights_ambient)
        rows = [Row(("genus_bar", "pairs", "lambda_dagger", "mu"),
                    (req.genus_bar, req.pairs,
                     [list(w) for w in req.weights_twisted],
                     [list(w) for w in req.weights_ambient]), value)]
        pipelines = ("twisted_verlinde" if req.computation == "general"
                     else "factorization",)
    elif req.computation == "crosscheck":
        alphabet = [(w, list(w)) for w in weight_alphabet(twist, c).members]
        amb = [(w, list(w)) for w in ambient_alphabet(twist, c)]
        names = ("lambda", "mu", "nu")
        rows = []
        for a, la in alphabet:
            for b, lb in alphabet:
                for n, ln in amb:
                    value = twisted_three_point(twist, c, a, b, n)
                    kw, _ = kac_walton_dimension(twist, c, a, b, n)
                    rows.append(Row(names, (la, lb, ln), value, kw))
        agreement = all(r.value_kac_walton == r.value for r in rows)
        pipelines = ("twisted_verlinde", "kac_walton")
    else:  # pragma: no cover - parse_request already rejected it
        raise UnsupportedCombination(req.computation)

    timing = time.perf_counter() - t0
    return Report(version=SCHEMA_VERSION, request=req.echo(), pipelines=pipelines,
                  results=tuple(rows), agreement=agreement, timing=timing)


def report_ok(rep, tolerance):
    """True unless a crosscheck disagrees.  Every value is exact, so the
    tolerance, schema 1's, can fail no row; callers still pass it."""
    return rep.agreement is not False


class _Rows(list):
    """A report's rows as json's encoder reads them: iterating yields each
    Row's dict, built as the encoder comes to it and dropped once written."""
    __slots__ = ()

    def __iter__(self):
        return map(Row.as_doc, super().__iter__())


# with indent set, json encodes through its pure-Python iterencode, which
# yields the document in small pieces: json.dumps' bytes, never held whole.
# It iterates a list, so _Rows hands it each row's dict directly; that is
# the only way a Row reaches it.  A report is a tree of containers that only
# share leaf lists, so the cycle check (a third of the encoding time) is
# skipped; it changes no byte
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, check_circular=False)


def _structured_parts(rep):
    """The structured report, json.dumps(doc, sort_keys=True, indent=2) + "\n"
    byte for byte with each Row written as its dict, as consecutive strings."""
    doc = {"version": rep.version, "request": rep.request,
           "pipelines": rep.pipelines, "results": _Rows(rep.results),
           "agreement": rep.agreement, "timing": None}
    yield from _ENCODER.iterencode(doc)
    yield "\n"


def _table_lines(rep):
    """The table form, one line at a time, in two passes over the rows: the
    first sizes the columns, the second formats and yields each line."""
    keys = list(dict.fromkeys(k for row in rep.results for k in row.names))
    extra = ["value_kac_walton", "agree"] if rep.agreement is not None else []
    header = keys + ["value", "residual"] + extra
    residual = f"{RESIDUAL:.2e}"

    def cells(row):
        inputs = row.inputs()
        out = [str(inputs.get(k, "")) for k in keys]
        out.append(str(row.value))
        out.append(residual)
        if extra:
            kw = row.value_kac_walton
            out += [str(kw), str(kw == row.value)]
        return out

    widths = [len(h) for h in header]
    for row in rep.results:
        widths = list(map(max, widths, map(len, cells(row))))

    def line(r):
        return "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n"

    yield line(header)
    yield from map(line, map(cells, rep.results))
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
    args = ap.parse_args(argv)
    # Python's limit on int-str conversion (3.10.7+, 3.11+) bounds the
    # integers of a request; an answer can be longer, and is written whole
    # with the limit lifted, until main returns
    limit = (sys.get_int_max_str_digits()
             if hasattr(sys, "get_int_max_str_digits") else None)
    try:
        return _answer(args, limit is not None)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _answer(args, lift_digit_limit):
    try:
        if args.request == "-":
            text = sys.stdin.read()
        else:
            with open(args.request, "r", encoding="utf-8") as fh:
                text = fh.read()
        req = parse_request(text)
        if args.format is not None:
            req.out_format = args.format
        if lift_digit_limit:
            sys.set_int_max_str_digits(0)
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
