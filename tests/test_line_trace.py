"""`tools/line_trace.py` on small CLI commands, each run in a new interpreter."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "liegrowth" / "cli.py"


def _trace(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_trace.py"), "-m", "liegrowth", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _report(text: str) -> str:
    """The report line of the one line of cli.py that reads `text`."""
    (number,) = [n for n, line in enumerate(CLI.read_text().splitlines(), 1) if line.strip() == text]
    return f"src/liegrowth/cli.py:{number}: {text}"


def test_line_trace_reports_the_lines_a_command_never_runs():
    proc = _trace("dims", "--d", "2", "--max-n", "3")
    assert proc.returncode == 0
    assert proc.stdout == "n,dim,gamma\n1,2,2\n2,1,3\n3,2,5\n"
    unrun = proc.stderr.splitlines()
    assert _report("report = growthmod.growth_bfs(args.mode, args.d, args.max_n)") in unrun
    assert _report("gamma = metabelian.growth(args.d, args.max_n)") not in unrun


def test_line_trace_exits_with_the_command_status():
    proc = _trace("dims", "--d", "0")
    assert proc.returncode == 2
    assert "--d must be >= 1" in proc.stderr
