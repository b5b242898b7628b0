"""scripts/profile_round.py profiles one benchmark round and exits cleanly."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_profile_round_runs_a_session_round():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_round.py"), "session",
         "--seed", "1", "--top", "5"],
        cwd=ROOT, check=True, text=True, stdout=subprocess.PIPE,
        timeout=300).stdout
    assert out.startswith("session, seed 1: ")
    assert "Ordered by: internal time" in out
