"""Every example script must run to completion, as a subprocess.

Examples are documentation that executes; this keeps them from rotting.
Each script carries its own assertions (identical orders, convergence,
zero holes), so a zero exit status means the demonstrated property
actually held.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))
#: Lines a script's output must hold, for a script that runs several
#: parts: each part printed its verdict.
EXPECTED_LINES = {
    "replicated_kv_store": (
        "     epto: 1 distinct replica states -> CONSISTENT",
        "kv topic           : CONVERGED",
        "audit topic        : CONVERGED",
    ),
}


def test_examples_directory_found():
    assert EXAMPLES_DIR.is_dir()
    assert len(SCRIPTS) >= 7


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[script.stem for script in SCRIPTS]
)
def test_example_runs_clean(script: Path):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, (
        f"{script.name} failed\nstdout:\n{result.stdout}\n"
        f"stderr:\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"
    lines = result.stdout.splitlines()
    for line in EXPECTED_LINES.get(script.stem, ()):
        assert line in lines, f"{script.name} did not print {line!r}"
