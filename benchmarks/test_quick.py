"""The benchmark's quick mode: every workload, untraced and traced, at
reduced sizes with one round each, checked for complete and correct
results (about 10 s)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mkbench import harness  # noqa: E402


def test_quick_mode_runs_every_workload():
    harness.add_source_paths()
    assert harness.quick_check() == []
