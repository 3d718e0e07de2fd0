"""Every demo script must stay runnable from a clean checkout."""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, src_env):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120, env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "demo should narrate something"
    # A numpy or logged warning reaches stderr only outside pytest's own process.
    assert proc.stderr == ""
