"""Byte identity of CLI output on the golden corpus in ``tests/golden/``.

``jobs.json`` lists CLI jobs (a name and an argv).  Each runs in-process
through ``matsim.cli.main``; its exit code and stdout must equal
``expected/<name>.out``, whose first line is ``exit <code>`` and whose rest
is stdout byte for byte.  An uncaught exception counts as exit 1, as it
would from ``python -m matsim.cli``.  The corpus was captured once from the
code before the element and parser unification; it is never regenerated,
and every later edit of an expected file is named in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from matsim import cli

GOLDEN = Path(__file__).parent / "golden"
JOBS = json.loads((GOLDEN / "jobs.json").read_text(encoding="utf-8"))


def run_job(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("job", JOBS, ids=[j["name"] for j in JOBS])
def test_golden(job):
    expected = (GOLDEN / "expected" / f"{job['name']}.out").read_bytes().decode("utf-8")
    assert run_job(job["argv"]) == expected
