import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_unrun_src_statement_is_allowed():
    # tools/src_reach.py exits 1 on a src statement that neither the
    # benchmark nor its CLI grid runs and that tools/src_reach_allow.txt does
    # not list, or on a list entry that no unrun statement matches. ~6 s.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_reach.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
