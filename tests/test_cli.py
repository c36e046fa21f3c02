import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from twistblocks import (SchemaError, UnsupportedCombination, UnsupportedType,
                         ambient_alphabet, build_root_datum, build_twist,
                         classical_verlinde, factorized_dimension, fusion_coefficient,
                         general_dimension, kac_walton_dimension, twisted_three_point,
                         weight_alphabet)
from twistblocks.cli import Report, Row, emit_report, main, parse_request, run_request
from twistblocks import cli, dims

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def make_request(**overrides):
    doc = {
        "version": 1,
        "algebra": {"type": "A", "rank": 3},
        "twist": {"kind": "diagram", "order": 2},
        "level": 1,
        "computation": "crosscheck",
    }
    doc.update(overrides)
    return doc


def test_parse_valid_request():
    req = parse_request(json.dumps(make_request()))
    assert req.algebra_type == "A" and req.algebra_rank == 3
    assert req.twist_tag == "diagram2"
    assert req.computation == "crosscheck"
    assert req.tolerance == 1e-5


def test_parse_unsupported_rank():
    with pytest.raises(UnsupportedType):
        parse_request(json.dumps(make_request(algebra={"type": "A", "rank": 9})))


def test_parse_unsupported_combination():
    with pytest.raises(UnsupportedCombination):
        parse_request(json.dumps(make_request(
            algebra={"type": "A", "rank": 4}, twist={"kind": "diagram", "order": 3})))


def test_parse_collects_all_schema_violations():
    bad = {"algebra": {"type": "A", "rank": 3}, "level": 0,
           "computation": "nonsense"}
    with pytest.raises(SchemaError) as err:
        parse_request(json.dumps(bad))
    msg = str(err.value)
    assert "version" in msg and "level" in msg and "computation" in msg


def test_parse_checks_weight_lengths():
    doc = make_request(computation="three_point",
                       weights={"twisted": [[0, 0], [0]], "ambient": [[0, 0, 0]]})
    with pytest.raises(SchemaError) as err:
        parse_request(json.dumps(doc))
    assert "weights.twisted[1]" in str(err.value)


def test_parse_rejects_non_json():
    with pytest.raises(SchemaError):
        parse_request("not json at all {")


def test_run_classical_row():
    doc = make_request(twist={"kind": "identity", "order": 1},
                       algebra={"type": "A", "rank": 1},
                       computation="classical", genus_bar=0,
                       weights={"ambient": [[1], [1], [0]]})
    rep = run_request(parse_request(json.dumps(doc)))
    assert rep.results[0].value == 1
    assert rep.agreement is None
    assert rep.pipelines == ("classical_verlinde",)


def test_run_fusion_table_shape():
    doc = make_request(computation="fusion_table")
    rep = run_request(parse_request(json.dumps(doc)))
    assert len(rep.results) == 8  # |D|^3 with |D| = 2
    assert all(isinstance(r.value, int) for r in rep.results)
    assert all(r.value >= 0 for r in rep.results)


def test_run_crosscheck_vacuum_agreement():
    rep = run_request(parse_request(json.dumps(make_request())))
    assert rep.agreement is True
    vacuum = [r for r in rep.results
              if r.inputs() == {"lambda": [0, 0], "mu": [0, 0], "nu": [0, 0, 0]}]
    assert vacuum and vacuum[0].value == 1 and vacuum[0].value_kac_walton == 1


def test_run_three_point_and_general():
    doc = make_request(computation="three_point",
                       weights={"twisted": [[1, 0], [1, 0]], "ambient": [[0, 1, 0]]})
    rep = run_request(parse_request(json.dumps(doc)))
    assert rep.results[0].value == 1

    doc = make_request(computation="general", genus_bar=0, pairs=1,
                       weights={"twisted": [[1, 0], [1, 0]], "ambient": []})
    rep_g = run_request(parse_request(json.dumps(doc)))
    doc["computation"] = "factorized"
    rep_f = run_request(parse_request(json.dumps(doc)))
    assert rep_g.results[0].value == rep_f.results[0].value == 1


def test_factorized_identity_degenerates_to_classical():
    doc = make_request(twist={"kind": "identity", "order": 1},
                       algebra={"type": "A", "rank": 1},
                       computation="factorized", genus_bar=1, pairs=0,
                       weights={"ambient": [[1]]})
    rep = run_request(parse_request(json.dumps(doc)))
    doc["computation"] = "classical"
    rep_c = run_request(parse_request(json.dumps(doc)))
    assert rep.results[0].value == rep_c.results[0].value
    # but ramified pairs with the identity twist are rejected at parse time
    bad = make_request(twist={"kind": "identity", "order": 1},
                       algebra={"type": "A", "rank": 1},
                       computation="factorized", genus_bar=0, pairs=1,
                       weights={"twisted": [[0], [0]], "ambient": []})
    with pytest.raises(SchemaError):
        parse_request(json.dumps(bad))


def test_emit_header_only_table():
    rep = Report(version=1, request={}, pipelines=("twisted_verlinde",),
                 results=(), agreement=None, timing=None)
    text = emit_report(rep, "table")
    assert text == "value  residual\n"


def _fields(row):
    return row.inputs(), row.value, row.value_kac_walton


def test_structured_round_trip():
    rep = run_request(parse_request(json.dumps(make_request())))
    text = emit_report(rep, "structured")
    doc = json.loads(text)
    assert all(r["agree"] == (r["value_kac_walton"] == r["value"]) for r in doc["results"])
    rows = tuple(Row(tuple(r["inputs"]), tuple(r["inputs"].values()), r["value"],
                     r["value_kac_walton"]) for r in doc["results"])
    back = Report(version=doc["version"], request=doc["request"],
                  pipelines=tuple(doc["pipelines"]), results=rows,
                  agreement=doc["agreement"], timing=doc["timing"])
    # emission nulls the wall clock; everything else round-trips exactly
    assert back.version == rep.version
    assert back.request == rep.request
    assert tuple(back.pipelines) == rep.pipelines
    assert list(map(_fields, back.results)) == list(map(_fields, rep.results))
    assert back.agreement == rep.agreement
    assert back.timing is None
    assert emit_report(back, "structured") == text


def test_structured_determinism_across_runs():
    texts = []
    for _ in range(3):
        req = parse_request(json.dumps(make_request()))
        texts.append(emit_report(run_request(req), "structured"))
    assert texts[0] == texts[1] == texts[2]


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(make_request()))
    assert main([str(path), "--format", "structured"]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err

    assert main([str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    # JSON true/false are not numbers in any integer or tolerance slot
    three = {"computation": "three_point",
             "weights": {"twisted": [[0, 0], [0, 0]], "ambient": [[0, 0, 0]]}}
    for doc in (make_request(version=True),
                make_request(algebra={"type": "A", "rank": True}),
                make_request(twist={"kind": "identity", "order": True},
                             computation="classical"),
                make_request(level=True),
                make_request(genus_bar=False),
                make_request(pairs=False),
                make_request(options={"tolerance": True}),
                make_request(options={"tolerance": float("inf")}),
                make_request(options={"tolerance": 10 ** 400}),
                make_request(**{**three, "weights": {"twisted": [[0, False], [0, 0]],
                                                     "ambient": [[0, 0, 0]]}}),
                make_request(**{**three, "weights": {"twisted": [[0, 0], [0, 0]],
                                                     "ambient": [[0, 0, False]]}})):
        bad.write_text(json.dumps(doc))
        assert main([str(bad)]) == 2, doc
        assert "error:" in capsys.readouterr().err
    bad.write_text(json.dumps(make_request(**three)))
    assert main([str(bad)]) == 0     # the same request with integers passes
    capsys.readouterr()
    # there is no --threads flag, nor a --tolerance flag: every value is exact
    for flag, arg in (("--threads", "3"), ("--tolerance", "1e-3")):
        with pytest.raises(SystemExit) as stop:
            main([str(path), flag, arg])
        assert stop.value.code == 2
        capsys.readouterr()
    # options.tolerance is schema 1's: validated above, echoed, and judging nothing
    bad.write_text(json.dumps(make_request(options={"tolerance": 1e-3,
                                                    "format": "structured"})))
    assert main([str(bad)]) == 0
    assert '"tolerance": 0.001' in capsys.readouterr().out

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make_request())))
    assert main(["-"]) == 0
    out = capsys.readouterr().out
    assert "agreement: True" in out


def _kac_walton_off_by_one_at(row):
    """kac_walton_dimension with the given crosscheck row's value off by one."""
    calls = itertools.count()

    def kac_walton(*args):
        value, ledger = kac_walton_dimension(*args)
        return value + (next(calls) == row), ledger
    return kac_walton


@pytest.mark.parametrize("out_format", ("structured", "table"))
def test_disagreement_exits_1_with_the_whole_report(out_format, capsys, monkeypatch):
    monkeypatch.setattr("twistblocks.cli.kac_walton_dimension", _kac_walton_off_by_one_at(7))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make_request())))
    assert main(["-", "--format", out_format]) == 1
    out, err = capsys.readouterr()
    assert "error:" not in err
    if out_format == "structured":
        doc = json.loads(out)
        assert doc["agreement"] is False
        assert len(doc["results"]) == 16      # (A3, diagram2) c=1: 2 * 2 * 4 rows
        assert [i for i, r in enumerate(doc["results"]) if not r["agree"]] == [7]
        row = doc["results"][7]
        assert row["value_kac_walton"] == row["value"] + 1
    else:
        lines = out.splitlines()
        assert len(lines) == 1 + 16 + 2       # header, rows, agreement, elapsed
        assert lines[8].endswith("False") and lines[-2] == "# agreement: False"
        assert lines[-1].startswith("# elapsed: ")


def test_failed_check_prime_exits_1(tmp_path, capsys, monkeypatch):
    # a lift cut one prime short is caught by the check prime: a numerical
    # failure, exit 1 with an error line
    real = dims._lift_primes
    monkeypatch.setattr(dims, "_lift_primes", lambda n, log_bound: real(n, log_bound) - 1)
    doc = make_request(algebra={"type": "A", "rank": 1}, twist=_IDENTITY,
                       computation="classical", genus_bar=600)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and "check prime" in captured.err


def test_genus_600_exits_0_with_two_to_the_600():
    # |T_c|^599 is far past the float range, and the value 2^600 is exact
    doc = make_request(algebra={"type": "A", "rank": 1}, twist=_IDENTITY,
                       computation="classical", genus_bar=600)
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "twistblocks.cli", "-", "--format",
                           "structured"], input=json.dumps(doc), capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    row, = json.loads(proc.stdout)["results"]
    assert row["value"] == 2 ** 600 and row["residual"] == 0.0
    assert "Traceback" not in proc.stderr


# Python's limit on int-str conversion (3.10.7+, 3.11+), if it has one
DIGIT_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@pytest.mark.parametrize("out_format", ("structured", "table"))
def test_answer_past_the_digit_limit_is_written_whole(out_format, capsys, monkeypatch):
    # (A1, identity) c=1 at genus_bar 14300 is 2^14300, 4305 digits: past
    # the default limit of 4300, which main lifts for the answer and restores
    doc = make_request(algebra={"type": "A", "rank": 1}, twist=_IDENTITY,
                       computation="classical", genus_bar=14300)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["-", "--format", out_format]) == 0
    out, err = capsys.readouterr()
    assert "error:" not in err and "Traceback" not in err
    if DIGIT_LIMIT is not None:
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT
        # a reader needs the limit lifted as well
        sys.set_int_max_str_digits(0)
    try:
        want = str(2 ** 14300)
        if out_format == "structured":
            row, = json.loads(out)["results"]
            assert row["value"] == 2 ** 14300
        else:
            lines = out.splitlines()
            assert len(lines) == 3 and lines[1].split()[-2] == want
            assert lines[2].startswith("# elapsed: ")
        assert len(want) == 4305
    finally:
        if DIGIT_LIMIT is not None:
            sys.set_int_max_str_digits(DIGIT_LIMIT)


@pytest.mark.skipif(DIGIT_LIMIT is None, reason="this Python has no int-str digit limit")
def test_integer_field_past_the_digit_limit_exits_2(capsys, monkeypatch):
    # a 5001-digit genus_bar is refused while the request is parsed: exit 2,
    # one error line, no traceback and no report
    text = json.dumps(make_request(algebra={"type": "A", "rank": 1}, twist=_IDENTITY,
                                   computation="classical", genus_bar=0))
    text = text.replace('"genus_bar": 0', '"genus_bar": ' + "9" * 5001)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.count("error:") == 1 and f"{DIGIT_LIMIT} digits" in err
    with pytest.raises(SchemaError):
        parse_request(text)



def test_small_weyl_denominator_is_not_an_input_error(capsys, monkeypatch):
    # (G2, identity) at c=120: some |Weyl denominator| at the regular points
    # is tiny but exact regularity holds, so the row is answered: 7 (x) 14
    # contains 64 once
    doc = make_request(algebra={"type": "G", "rank": 2}, twist=_IDENTITY, level=120,
                       computation="classical", genus_bar=0,
                       weights={"ambient": [[1, 0], [0, 1], [1, 1]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["-", "--format", "structured"]) == 0
    row, = json.loads(capsys.readouterr().out)["results"]
    assert row["value"] == 1 and row["residual"] == 0.0


_IDENTITY = {"kind": "identity", "order": 1}
_CURVE = dict(level=2, genus_bar=1, pairs=1,
              weights={"twisted": [[1, 0], [0, 1]], "ambient": [[1, 0, 0]]})

# sha256 of the structured stdout, residual floats included.  Recorded when
# every point sum became exact, which set every residual to 0.0; earlier
# digests differed from these in residual digits only, and the values below
# stay pinned
PINNED_STDOUT = (
    (make_request(algebra={"type": "B", "rank": 4}, twist=_IDENTITY, level=3,
                  computation="classical", genus_bar=1,
                  weights={"ambient": [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 1]]}),
     "fbaaba3b0991e88e083c8a6300e5d8f59094ed694d5bd89d8ffb8183813a0e02"),
    (make_request(algebra={"type": "G", "rank": 2}, twist=_IDENTITY, level=5,
                  computation="classical", genus_bar=1,
                  weights={"ambient": [[1, 0], [0, 1], [1, 1]]}),
     "d6f61e0e3e868012e1fd900e2d1b68ff6c17a433419e8cb26831d0c0598d6d8f"),
    (make_request(level=2, computation="fusion_table"),
     "bc9121caaa4902bbfabc6c1c0cc213803e2b649b1b83fc9a23d8bf7b7bee28e2"),
    (make_request(computation="general", **_CURVE),
     "14ab113bbd14861e041ea71499de5e79a773036cd4452a491c12ac6de8081964"),
    (make_request(computation="factorized", **_CURVE),
     "ee573ff64c48532b3d5a20c5bc23454c7c5ff2a669ccde4c137591ab0be81556"),
    (make_request(algebra={"type": "D", "rank": 4},
                  twist={"kind": "diagram", "order": 3}, level=2),
     "35500a95f1688b6bcb1c599030e379948d32c08f1031382232e53270d9f2f4f9"),
)


_PINNED_VALUES = {
    "classical-B4": [180],
    "classical-G2": [615],
    "fusion_table-A3": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1,
                        0, 1, 0, 0, 1, -1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0,
                        0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0,
                        0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0],
    "general-A3": [24],
    "factorized-A3": [24],
    "crosscheck-D4": [1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 2, 1, 1, 1, 0,
                      0, 1, 0, 1, 1, 0, 2, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1],
}


def _pin_id(doc):
    return f"{doc['computation']}-{doc['algebra']['type']}{doc['algebra']['rank']}"


@pytest.mark.parametrize("doc, digest", PINNED_STDOUT,
                         ids=[_pin_id(d) for d, _ in PINNED_STDOUT])
def test_structured_stdout_is_pinned(doc, digest, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["-", "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    rows = json.loads(out)["results"]
    assert [r["value"] for r in rows] == _PINNED_VALUES[_pin_id(doc)]
    assert all(r["residual"] == 0.0 for r in rows)


# sha256 of the table text without its wall-clock line, recorded when every
# residual became 0.0 (the text changed only in the residual column)
PINNED_TABLE = (
    (make_request(level=2),
     "e45ba8780cbc145c23b378254f1d9b67bae8fb2227497d76893a1c05b044a204"),
    (make_request(level=3, computation="fusion_table"),
     "2699b3e32914ba6b6f0dc7e4ae7528470b40c0f885ca417e7222255aab12052a"),
    (make_request(computation="general", **_CURVE),
     "d2a69d4805244e1c2de999b9ca96925dc431e7dd156c7ccd05c6671856909650"),
)


@pytest.mark.parametrize("doc, digest", PINNED_TABLE,
                         ids=[_pin_id(d) for d, _ in PINNED_TABLE])
def test_table_output_is_pinned(doc, digest):
    rep = run_request(parse_request(json.dumps(doc)))
    text = _emitted(dataclasses.replace(rep, timing=None), "table")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("doc", (
    make_request(level=4),
    make_request(algebra={"type": "D", "rank": 5}, level=3, computation="fusion_table")),
                         ids=("crosscheck-A3", "fusion_table-D5"))
def test_report_holds_at_most_160_bytes_per_row(doc):
    # a tree of dicts and lists per row took about 630 B
    req = parse_request(json.dumps(doc))
    run_request(req)    # fills the memo tables, so only the report is new
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = run_request(req)
        # a full collection empties the interpreter's free lists, whose blocks
        # tracemalloc counts as held until then
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rep.results) == {"crosscheck": 2835, "fusion_table": 1000}[req.computation]
    assert held <= 160 * len(rep.results), held / len(rep.results)
    # the rows share one input list per alphabet member
    first, second = rep.results[:2]
    assert first.in0 is second.in0 and first.in1 is second.in1


def _json_oracle(rep, rows):
    """json.dumps' text of the report with the given row dicts as its results."""
    doc = {"version": rep.version, "request": rep.request,
           "pipelines": list(rep.pipelines), "results": rows,
           "agreement": rep.agreement, "timing": None}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_TAGS = {("identity", 1): "identity", ("diagram", 2): "diagram2",
         ("diagram", 3): "diagram3", ("standard", 4): "standard4"}


def _expected_rows(doc):
    """The result rows of a request as dicts, from the library calls alone."""
    rd = build_root_datum(doc["algebra"]["type"], doc["algebra"]["rank"])
    twist = build_twist(rd, _TAGS[doc["twist"]["kind"], doc["twist"]["order"]])
    c, comp, g = doc["level"], doc["computation"], doc.get("genus_bar", 0)
    weights = doc.get("weights", {})
    wt = [tuple(w) for w in weights.get("twisted", [])]
    wa = [tuple(w) for w in weights.get("ambient", [])]

    def row(inputs, value):
        # schema 1's residual: 0.0 for every exact value
        return {"inputs": inputs, "value": value, "residual": 0.0}

    if comp == "classical":
        return [row({"genus": g, "weights": weights["ambient"]},
                    classical_verlinde(rd, c, g, wa))]
    if comp == "three_point":
        (lam, mu), (nu,) = wt, wa
        return [row({"lambda": list(lam), "mu": list(mu), "nu": list(nu)},
                    twisted_three_point(twist, c, lam, mu, nu))]
    if comp in ("general", "factorized"):
        fn = general_dimension if comp == "general" else factorized_dimension
        return [row({"genus_bar": g, "pairs": doc["pairs"],
                     "lambda_dagger": weights["twisted"], "mu": weights["ambient"]},
                    fn(twist, c, g, wt, wa))]
    alphabet = weight_alphabet(twist, c).members
    if comp == "fusion_table":
        return [row({"lambda": list(a), "mu": list(b), "eta": list(e)},
                    fusion_coefficient(twist, c, a, b, e))
                for a in alphabet for b in alphabet for e in alphabet]
    rows = []
    for a in alphabet:
        for b in alphabet:
            for n in ambient_alphabet(twist, c):
                res = twisted_three_point(twist, c, a, b, n)
                kw, _ = kac_walton_dimension(twist, c, a, b, n)
                rows.append(row({"lambda": list(a), "mu": list(b), "nu": list(n)}, res)
                            | {"value_kac_walton": kw, "agree": kw == res})
    return rows


def _first_difference(a, b):
    """None for equal texts, else where they part (cheap to report)."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[i - 40:i + 40], b[i - 40:i + 40]


def _emitted(rep, out_format):
    """The string form and the streamed form of one report, checked equal."""
    text = emit_report(rep, out_format)
    out = io.StringIO()
    assert emit_report(rep, out_format, out) is None
    assert _first_difference(out.getvalue(), text) is None
    return text


_KINDS = (
    make_request(algebra={"type": "A", "rank": 1}, twist=_IDENTITY,
                 computation="classical", weights={"ambient": [[1], [1], [0]]}),
    make_request(computation="three_point",
                 weights={"twisted": [[1, 0], [1, 0]], "ambient": [[0, 1, 0]]}),
    make_request(level=2, computation="fusion_table"),
    make_request(computation="general", **_CURVE),
    make_request(computation="factorized", **_CURVE),
    make_request(level=2),
)


@pytest.mark.parametrize("doc", _KINDS, ids=[d["computation"] for d in _KINDS])
def test_structured_writer_matches_json(doc):
    rep = run_request(parse_request(json.dumps(doc)))
    rows = _expected_rows(doc)
    if doc["computation"] == "crosscheck":
        assert rep.agreement is all(r["agree"] for r in rows)
    assert _first_difference(_emitted(rep, "structured"), _json_oracle(rep, rows)) is None


def test_rows_reach_the_encoder_as_dicts(monkeypatch):
    # the results list hands json's encoder each row's dict, so no row goes
    # through the default hook and its two extra generator frames
    hooked = []
    monkeypatch.setattr(cli._ENCODER, "default", hooked.append)
    rep = run_request(parse_request(json.dumps(make_request(level=2))))
    emit_report(rep, "structured", io.StringIO())
    assert hooked == [] and len(rep.results) > 1


@pytest.mark.parametrize("doc", _KINDS, ids=[d["computation"] for d in _KINDS])
def test_each_record_equals_its_written_row(doc):
    rep = run_request(parse_request(json.dumps(doc)))
    written = json.loads(emit_report(rep, "structured"))["results"]
    assert len(written) == len(rep.results)
    for rec, row in zip(rep.results, written):
        want = {"inputs": rec.inputs(), "value": rec.value, "residual": 0.0}
        if doc["computation"] == "crosscheck":
            want.update(value_kac_walton=rec.value_kac_walton,
                        agree=rec.value_kac_walton == rec.value)
        else:
            assert rec.value_kac_walton is None
        assert row == want
        assert type(rec.value) is int


@pytest.mark.parametrize("doc", _KINDS, ids=[d["computation"] for d in _KINDS])
def test_echoed_request_gives_the_same_report(doc):
    text = emit_report(run_request(parse_request(json.dumps(doc))), "structured")
    echo = json.loads(text)["request"]
    again = emit_report(run_request(parse_request(json.dumps(echo))), "structured")
    assert _first_difference(again, text) is None


_CLASSICAL, _THREE_POINT = _KINDS[0], _KINDS[1]
# (request, field) for each field a computation does not read, set to a
# value other than the default the echo prints
_STRAY_FIELDS = (
    (make_request(weights={"twisted": [[1, 0]]}), "weights"),
    (make_request(weights={"ambient": [[1, 0, 0]]}), "weights"),
    (make_request(genus_bar=1), "genus_bar"),
    (make_request(pairs=1), "pairs"),
    (make_request(computation="fusion_table", weights={"twisted": [[1, 0]]}), "weights"),
    (make_request(computation="fusion_table", weights={"ambient": [[1, 0, 0]]}), "weights"),
    (make_request(computation="fusion_table", genus_bar=1), "genus_bar"),
    (make_request(computation="fusion_table", pairs=1), "pairs"),
    ({**_CLASSICAL, "weights": {**_CLASSICAL["weights"], "twisted": [[1]]}},
     "weights.twisted"),
    ({**_CLASSICAL, "pairs": 1}, "pairs"),
    ({**_THREE_POINT, "genus_bar": 1}, "genus_bar"),
    ({**_THREE_POINT, "pairs": 0}, "pairs"),
)


@pytest.mark.parametrize("doc, field", _STRAY_FIELDS,
                         ids=[f"{d['computation']}-{f}-{i}"
                              for i, (d, f) in enumerate(_STRAY_FIELDS)])
def test_field_the_computation_does_not_read_exits_2(doc, field, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["-", "--format", "structured"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {field}: "), err
    assert "does not read" in err


@pytest.mark.parametrize("twist", [{"kind": ["diagram"], "order": 2},
                                   {"kind": "diagram", "order": [2]},
                                   {"kind": "diagram", "order": {"a": 1}}],
                         ids=["kind-list", "order-list", "order-object"])
def test_unhashable_twist_field_exits_2(twist, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make_request(twist=twist))))
    assert main(["-", "--format", "structured"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: twist."), err


_A4_WEIGHTS = {"twisted": [[0, 0], [0, 0]], "ambient": [[0, 0, 0, 0]]}


@pytest.mark.parametrize("doc", [
    make_request(computation="three_point", weights=_A4_WEIGHTS),
    make_request(computation="fusion_table"),
    make_request(computation="general", genus_bar=0, pairs=1, weights=_A4_WEIGHTS),
    make_request(computation="crosscheck"),
], ids=lambda d: d["computation"])
def test_a2n_diagram2_is_refused_while_parsing(doc, capsys, monkeypatch):
    # A_2n is computed through standard4; its order-2 row never reaches a pipeline
    doc = dict(doc, algebra={"type": "A", "rank": 4})
    with pytest.raises(UnsupportedCombination, match="standard4"):
        parse_request(json.dumps(doc))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["-", "--format", "structured"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ") and "standard4" in err, err


def _row(i, value):
    """A record and, built apart from it, the dict it must be written as;
    the odd rows disagree."""
    inputs = {"lambda": [i, -i], "mu": [], "eta": [[0], {}]}
    kw = value + i % 2
    return (Row(tuple(inputs), tuple(inputs.values()), value, kw),
            {"inputs": inputs, "value": value, "residual": 0.0,
             "value_kac_walton": kw, "agree": i % 2 == 0})


def _table_oracle(rows, agreement, footer):
    """The table text built whole from row dicts, each width over every row."""
    keys = list(dict.fromkeys(k for r in rows for k in r["inputs"]))
    extra = ["value_kac_walton", "agree"] if agreement is not None else []
    table = [keys + ["value", "residual"] + extra]
    table += [[str(r["inputs"].get(k, "")) for k in keys]
              + [str(r["value"]), f"{r['residual']:.2e}"] + [str(r[k]) for k in extra]
              for r in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    text = "".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n"
                   for r in table)
    if agreement is not None:
        text += f"# agreement: {agreement}\n"
    return text + footer


@pytest.mark.parametrize("agreement", (None, False, True))
def test_structured_writer_edge_values(agreement):
    floats = (0.0, -0.0, 5e-324, 1e300, 1.4e-5, 0.1, float("nan"),
              float("inf"), float("-inf"))
    rows = [_row(i, (-1) ** i * 10 ** (i % 25)) for i in range(3000)]
    request = {"algebra": {"type": "A\"\\\u00e9\t", "rank": 3},
               "weights": {"twisted": [], "ambient": [[0, -1]]},
               "options": {}, "floats": list(floats)}
    for results in (rows, rows[:5], []):
        rep = Report(version=1, request=request, pipelines=("twisted_verlinde",),
                     results=tuple(rec for rec, _ in results), agreement=agreement,
                     timing=1.5)
        text = _emitted(rep, "structured")
        assert _first_difference(text, _json_oracle(rep, [d for _, d in results])) is None
        table = _table_oracle([d for _, d in results], agreement, "# elapsed: 1.500s\n")
        assert _first_difference(_emitted(rep, "table"), table) is None
        if results is rows:
            assert len(text) > 3 << 16


class _RecordingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_main_writes_bounded_blocks(monkeypatch):
    doc = make_request(level=3, options={"format": "structured"})
    rep = run_request(parse_request(json.dumps(doc)))
    text = emit_report(rep, "structured")
    # a part's text in the document: a row with its separator and extra
    # indent, or the request echo with its extra indent
    row_chars = max(len(json.dumps(r, sort_keys=True, indent=2).replace("\n", "\n    "))
                    + len(",\n    ") for r in json.loads(text)["results"])
    echo_chars = len(json.dumps(rep.request, sort_keys=True, indent=2).replace("\n", "\n  "))
    out = _RecordingStdout()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    monkeypatch.setattr("sys.stdout", out)
    assert main(["-"]) == 0
    assert len(out.writes) > len(rep.results)
    assert max(len(w) for w in out.writes) <= max(row_chars, echo_chars)
    assert _first_difference("".join(out.writes), text) is None


@pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))
@pytest.mark.parametrize("doc, read_first", (
    (make_request(level=3), True),
    (make_request(computation="three_point",
                  weights={"twisted": [[1, 0], [1, 0]], "ambient": [[0, 1, 0]]}), False)),
                         ids=("closed-midway", "closed-first"))
def test_closed_stdout_exits_2_without_traceback(unbuffered, doc, read_first):
    # The level-3 crosscheck writes about 230 kB: the reader leaves after
    # its first read, before the last blocks.  The three-point report is
    # under 1 kB, which a buffered stdout holds until the flush; the reader
    # leaves before the request is even sent.
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "twistblocks.cli", "-",
                             "--format", "structured"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        if not read_first:
            proc.stdout.close()
        proc.stdin.write(json.dumps(doc).encode())
        proc.stdin.close()
        if read_first:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))
def test_reader_leaving_during_a_write_exits_2(unbuffered):
    # The report is about 15 kB, and the buffered report stream's first
    # write (some 8 kB) is larger than the one-page pipe: the reader takes
    # 64 bytes and leaves while that write is blocked, so it returns a short
    # count.  It must be retried and fail, not end in truncated stdout and
    # exit 0.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set here")
    doc = make_request()
    size = len(emit_report(run_request(parse_request(json.dumps(doc))), "structured"))
    assert size < 1 << 16
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "twistblocks.cli", "-",
                             "--format", "structured"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        if fcntl.fcntl(proc.stdout.fileno(), fcntl.F_SETPIPE_SZ, 4096) + 64 >= size:
            pytest.skip("the smallest pipe here holds the whole report")
        proc.stdin.write(json.dumps(doc).encode())
        proc.stdin.close()
        assert os.read(proc.stdout.fileno(), 64).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


_CURVE_ROWS = ((("A", 3), {"kind": "diagram", "order": 2}),
               (("D", 4), {"kind": "diagram", "order": 3}),
               (("A", 4), {"kind": "standard", "order": 4}),
               (("A", 5), {"kind": "diagram", "order": 2}))


def test_general_and_factorized_agree_with_the_same_exit_codes(capsys, monkeypatch):
    # seeded curves with c <= 3, a <= 3 and genus_bar <= 2: both routes exit 0
    # with one value, value 0 included
    rng = random.Random(3)
    zeros = 0
    for _ in range(60):
        (t, r), twist = rng.choice(_CURVE_ROWS)
        data = build_twist(build_root_datum(t, r), _TAGS[twist["kind"], twist["order"]])
        c, a = rng.randint(1, 3), rng.randint(1, 3)
        members = weight_alphabet(data, c).members
        amb = ambient_alphabet(data, c)
        doc = make_request(algebra={"type": t, "rank": r}, twist=twist, level=c,
                           genus_bar=rng.randint(0, 2), pairs=a,
                           weights={"twisted": [list(rng.choice(members)) for _ in range(2 * a)],
                                    "ambient": [list(rng.choice(amb))
                                                for _ in range(rng.randint(0, 1))]})
        outcomes = []
        for comp in ("general", "factorized"):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**doc, "computation": comp})))
            code = main(["-", "--format", "structured"])
            out = capsys.readouterr().out
            outcomes.append((code, json.loads(out)["results"][0]["value"] if out else None))
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0, (doc, outcomes)
        zeros += outcomes[0][1] == 0
    assert 0 < zeros < 60
