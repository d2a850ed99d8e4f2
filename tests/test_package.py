"""The package root exports nothing: names come from their modules."""

import subprocess
import sys
from pathlib import Path

import flycap


def test_root_import_loads_no_submodule():
    """`import flycap` runs only the package docstring, so it imports none
    of the modules (`from flycap.transform import build` imports its own)."""
    src = Path(flycap.__file__).resolve().parents[1]
    code = "import sys, flycap; print(sorted(m for m in sys.modules if m.startswith('flycap.')))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
