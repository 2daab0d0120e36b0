"""The fast demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gammalab import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["demo_level_zero.py",
                                  "demo_characters_and_sums.py",
                                  "demo_field_tower.py",
                                  "demo_bessel.py",
                                  "demo_gamma_three_routes.py"])
def test_demo_exits_zero(demo):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
