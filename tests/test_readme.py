"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _quick_start():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_comments():
    code = _quick_start()
    # each print line's comment starts with the value it prints, then
    # optionally ", " and a remark
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, comment in zip(printed, expected):
        assert comment == got or comment.startswith(got + ", "), (got, comment)
