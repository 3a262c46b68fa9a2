"""README's library quickstart runs as written and prints what its comments say."""

import contextlib
import io
import math
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_and_prints_its_certificate():
    text = README.read_text()
    section = text[text.index("## Quickstart (library)"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    code = code[:code.index("```")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[0] == "(0.0, -1.0, 0.0, 1.0, 0.0, 1.0)"
    # the comment beside the print shows the line it prints
    comment = code.split("print(cert.exponents)", 1)[1].split("#", 1)[1]
    assert comment.strip().startswith(printed[0] + ":")
    # then the IPW estimate of the outcome mean
    assert len(printed) == 2 and math.isfinite(float(printed[1]))
