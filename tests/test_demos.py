"""Every script under demos/ runs to completion as a standalone program,
and the choice-model walkthrough prints exactly its golden text."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demos whose stdout is pinned exactly.  Every figure the walkthrough
# prints has at most 6 decimals (its 12-decimal sum is 1 to within a few
# ulps), so its text is stable.
GOLDEN = {"choice_model_walkthrough.py": ROOT / "tests" / "golden" / "choice_model_walkthrough.txt"}


def test_all_six_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # demos that write reports put them under tempfile's directory
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if demo.name in GOLDEN:
        assert proc.stdout == GOLDEN[demo.name].read_text(encoding="utf-8")
