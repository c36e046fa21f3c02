import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from twistblocks import SchemaError, UnsupportedCombination, UnsupportedType
from twistblocks.cli import Report, emit_report, main, parse_request, run_request
from twistblocks.dims import _finalize

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
    assert rep.results[0]["value"] == 1
    assert rep.agreement is None
    assert rep.pipelines == ("classical_verlinde",)


def test_run_fusion_table_shape():
    doc = make_request(computation="fusion_table")
    rep = run_request(parse_request(json.dumps(doc)))
    assert len(rep.results) == 8  # |D|^3 with |D| = 2
    assert all(isinstance(r["value"], int) for r in rep.results)
    assert all(r["value"] >= 0 for r in rep.results)


def test_run_crosscheck_vacuum_agreement():
    rep = run_request(parse_request(json.dumps(make_request())))
    assert rep.agreement is True
    vacuum = [r for r in rep.results
              if r["inputs"] == {"lambda": [0, 0], "mu": [0, 0], "nu": [0, 0, 0]}]
    assert vacuum and vacuum[0]["value"] == 1 and vacuum[0]["value_kac_walton"] == 1


def test_run_three_point_and_general():
    doc = make_request(computation="three_point",
                       weights={"twisted": [[1, 0], [1, 0]], "ambient": [[0, 1, 0]]})
    rep = run_request(parse_request(json.dumps(doc)))
    assert rep.results[0]["value"] == 1

    doc = make_request(computation="general", genus_bar=0, pairs=1,
                       weights={"twisted": [[1, 0], [1, 0]], "ambient": []})
    rep_g = run_request(parse_request(json.dumps(doc)))
    doc["computation"] = "factorized"
    rep_f = run_request(parse_request(json.dumps(doc)))
    assert rep_g.results[0]["value"] == rep_f.results[0]["value"] == 1


def test_factorized_identity_degenerates_to_classical():
    doc = make_request(twist={"kind": "identity", "order": 1},
                       algebra={"type": "A", "rank": 1},
                       computation="factorized", genus_bar=1, pairs=0,
                       weights={"ambient": [[1]]})
    rep = run_request(parse_request(json.dumps(doc)))
    doc["computation"] = "classical"
    rep_c = run_request(parse_request(json.dumps(doc)))
    assert rep.results[0]["value"] == rep_c.results[0]["value"]
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


def test_structured_round_trip():
    rep = run_request(parse_request(json.dumps(make_request())))
    text = emit_report(rep, "structured")
    doc = json.loads(text)
    back = Report(version=doc["version"], request=doc["request"],
                  pipelines=tuple(doc["pipelines"]), results=tuple(doc["results"]),
                  agreement=doc["agreement"], timing=doc["timing"])
    # emission nulls the wall clock; everything else round-trips exactly
    assert back.version == rep.version
    assert back.request == rep.request
    assert tuple(back.pipelines) == rep.pipelines
    assert list(back.results) == list(rep.results)
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

    # absurd tolerance forces a residual failure
    assert main([str(path), "--tolerance", "1e-30"]) == 1
    capsys.readouterr()
    # the flag obeys the same rule as options.tolerance
    for tol in ("-1", "nan", "inf"):
        assert main([str(path), "--tolerance", tol]) == 2
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
    # there is no --threads flag
    with pytest.raises(SystemExit) as stop:
        main([str(path), "--threads", "3"])
    assert stop.value.code == 2
    capsys.readouterr()

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(make_request())))
    assert main(["-"]) == 0
    out = capsys.readouterr().out
    assert "agreement: True" in out


def _three_point_file(tmp_path, monkeypatch, raw):
    """A three_point request whose pipeline returns the given raw value."""
    monkeypatch.setattr("twistblocks.cli.twisted_three_point",
                        lambda *args: _finalize(raw, "patched three-point"))
    path = tmp_path / "three.json"
    path.write_text(json.dumps(make_request(
        computation="three_point",
        weights={"twisted": [[1, 0], [1, 0]], "ambient": [[0, 1, 0]]})))
    return str(path)


def test_residual_above_default_tolerance_exits_1(tmp_path, capsys, monkeypatch):
    path = _three_point_file(tmp_path, monkeypatch, 3 + 1.4e-5)
    assert main([path, "--format", "structured"]) == 1
    assert json.loads(capsys.readouterr().out)["results"][0]["value"] == 3


def test_request_tolerance_judges_the_residual(tmp_path, capsys, monkeypatch):
    path = _three_point_file(tmp_path, monkeypatch, 3 + 1.4e-5)
    assert main([path, "--tolerance", "1e-3"]) == 0
    capsys.readouterr()


def test_imaginary_part_exits_1(tmp_path, capsys, monkeypatch):
    path = _three_point_file(tmp_path, monkeypatch, 3 + 1e-6j)
    assert main([path]) == 1
    assert "imaginary part" in capsys.readouterr().err


def test_float_overflow_exits_1_without_traceback():
    # |T_c|^599 exceeds the float range: an error line, not a traceback
    doc = make_request(algebra={"type": "A", "rank": 1}, twist=_IDENTITY,
                       computation="classical", genus_bar=600)
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "twistblocks.cli", "-"],
                          input=json.dumps(doc), capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "float range" in proc.stderr
    assert "Traceback" not in proc.stderr



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
    assert row["value"] == 1 and row["residual"] < 1e-5


_IDENTITY = {"kind": "identity", "order": 1}
_CURVE = dict(level=2, genus_bar=1, pairs=1,
              weights={"twisted": [[1, 0], [0, 1]], "ambient": [[1, 0, 0]]})

# sha256 of the structured stdout, residual floats included.  The crosscheck
# and general digests date from before the batched character kernel and the
# replayed orbits, the factorized one from the glued point sum, and the
# classical and fusion_table ones from the fsum point sums; each of those
# changes moved residual digits only, and the values below stay pinned
PINNED_STDOUT = (
    (make_request(algebra={"type": "B", "rank": 4}, twist=_IDENTITY, level=3,
                  computation="classical", genus_bar=1,
                  weights={"ambient": [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 1]]}),
     "44c191567726bbc4cbd97219bc0ab8455f0ca517065a378e8f7a7f45c48e51c2"),
    (make_request(algebra={"type": "G", "rank": 2}, twist=_IDENTITY, level=5,
                  computation="classical", genus_bar=1,
                  weights={"ambient": [[1, 0], [0, 1], [1, 1]]}),
     "1a94a4aac7122c371a7e6d28b027d6187d1659be64132a938f281134ea6ef1e1"),
    (make_request(level=2, computation="fusion_table"),
     "4918605e2af1089cacb56c0ddc295022cf7f129ee7fd0fafd55d3b22fab1f7c4"),
    (make_request(computation="general", **_CURVE),
     "57e3247ae2830b9031dea0fb6b4265b11dd0ea219d4721faaf9a87e0e38d923b"),
    (make_request(computation="factorized", **_CURVE),
     "2f69787e29ccd23f398c0742fc0ee64d6e7685ccaec41e147691ebcdad60d56f"),
    (make_request(algebra={"type": "D", "rank": 4},
                  twist={"kind": "diagram", "order": 3}, level=2),
     "ecfd34bb81009a5778ca653701c94e340b8c2141d7f682a6e6d348537f0ee841"),
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
    values = [r["value"] for r in json.loads(out)["results"]]
    assert values == _PINNED_VALUES.get(_pin_id(doc), values)


def _json_oracle(rep):
    doc = {"version": rep.version, "request": rep.request,
           "pipelines": list(rep.pipelines), "results": list(rep.results),
           "agreement": rep.agreement, "timing": None}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    assert _first_difference(_emitted(rep, "structured"), _json_oracle(rep)) is None


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


def _row(i, value, residual):
    return {"inputs": {"lambda": [i, -i], "mu": [], "eta": [[0], {}]},
            "value": value, "residual": residual,
            "value_kac_walton": value, "agree": i % 2 == 0}


@pytest.mark.parametrize("agreement", (None, False, True))
def test_structured_writer_edge_values(agreement):
    floats = (0.0, -0.0, 5e-324, 1e300, 1.4e-5, 0.1, float("nan"),
              float("inf"), float("-inf"))
    rows = [_row(i, (-1) ** i * 10 ** (i % 25), floats[i % len(floats)])
            for i in range(3000)]
    request = {"algebra": {"type": "A\"\\\u00e9\t", "rank": 3},
               "weights": {"twisted": [], "ambient": [[0, -1]]}, "options": {}}
    for results in (rows, rows[:5], []):
        rep = Report(version=1, request=request, pipelines=("twisted_verlinde",),
                     results=tuple(results), agreement=agreement, timing=1.5)
        text = _emitted(rep, "structured")
        assert _first_difference(text, _json_oracle(rep)) is None
        _emitted(rep, "table")
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
                    + len(",\n    ") for r in rep.results)
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
