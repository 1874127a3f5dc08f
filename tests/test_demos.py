import os
import subprocess
import sys

import pytest

from tests.conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 9


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
