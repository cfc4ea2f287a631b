"""The benchmark's child process still runs `eval` on this package.

perfbench/child.py wraps package functions by name (its SPANS table and
install_counters) before it runs the CLI, so a renamed or no longer
called function breaks every traced or counted benchmark command, and
one that its caller no longer looks up at the wrapped attribute leaves
its span or count silently at zero.  The mini corpus makes at least one
call of each function checked here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mode, key", [("trace", "spans"), ("count", "counts")])
def test_child_runs_eval_with_hooks_installed(tmp_path, mode, key):
    result_path = tmp_path / "result.json"
    command = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), mode, str(result_path), "--",
        "eval", "--gold", str(ROOT / "tests" / "data" / "mini_corpus.jsonl"),
        "--typed-mention", "--typed-link", "--classic", "--out", str(tmp_path / "out"),
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["exit"] == 0
    assert result[key]
    if mode == "trace":
        names = {span[2] for span in result["spans"]}
        assert {"typed.mention_s", "typed.link_s", "classic.hungarian_s",
                "labeling.label_s"} <= names
    else:
        counts = result["counts"]
        assert counts["classic.hungarian_calls"] >= 1
        assert counts["classic.hungarian_cells"] >= 4
        assert counts["labeling.overlap_calls"] > 0
