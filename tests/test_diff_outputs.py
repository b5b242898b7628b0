"""The lines mode of scripts/diff_outputs.py: its reader and its outputs."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import diff_outputs  # noqa: E402  (the scripts directory is not a package)


def test_the_line_reader_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("# a sweep\n\ncomp@2(l[w], x + 1)\n   \n  inv(x + 1)  \n"
                    "#inv(x)\n")
    assert diff_outputs.read_lines(path) == ["comp@2(l[w], x + 1)",
                                             "inv(x + 1)"]


def test_each_line_renders_as_the_repl_prints_it(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("x + 1\n\ninv(l[1])\ncomp@2(l[w], x + 1)\nlog(x\n")
    assert diff_outputs.outputs(str(ROOT), "lines", [str(path)]) == [
        [1, "x + 1", "x + 1"],
        [2, "inv(l[1])",
         "error: NotInvertible: logarithmicity must be zero, got 1"],
        [3, "comp@2(l[w], x + 1)", "l[w] + O(1)"],
        [4, "log(x",
         "error: CliSyntaxError: unexpected end of input at col 6"]]
