"""scripts/profile_round.py profiles benchmark rounds and exits cleanly."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_profile_round_runs_a_session_round():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_round.py"), "session",
         "--seed", "1", "2", "--top", "5"],
        cwd=ROOT, check=True, text=True, stdout=subprocess.PIPE,
        timeout=300).stdout
    header = re.match(r"session, seed 1 2: (\d+) inputs, \d+ typed errors "
                      r"or deadlines, (\d+) calls\n", out)
    assert header, out[:200]
    assert "Ordered by: internal time" in out
    # the summed profile holds every call the header counts
    assert re.search(r"^\s*%s function calls" % header.group(2), out, re.M)
