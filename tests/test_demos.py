"""Each demo script and ``tools/parity.py`` run to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    proc = run_script(demo)
    assert proc.returncode == 0, proc.stderr


def test_parity_prints_one_digest_per_item():
    proc = run_script(ROOT / "tools" / "parity.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 9 and lines[-1].endswith("  combined")
    assert all(len(line.split()[0]) == 64 for line in lines)
    assert all(f"kernel {name}: " in proc.stderr for name in ("clip", "ldp", "w2a4"))
