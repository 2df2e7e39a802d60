"""``tools/pass_times.py``: one repeat over the compress graphs prints the environment and
a row per static pass."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pass_times.py"
PASSES = ["resolve", "plan", "apply", "oracle", "forward cold", "forward warm",
          "to_bytes", "export_fp16", "from_bytes", "build_report"]


def _run(*args, cwd):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd,
                          capture_output=True, text=True)


def test_one_repeat_prints_each_pass(tmp_path):
    proc = _run("--repeat", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, columns, *rows = proc.stdout.splitlines()
    assert head.startswith("cores ") and "threads, 18 graphs, 1 repeats" in head
    assert columns.split() == ["pass", "median", "ms", "best", "ms"]
    rows = [row.rsplit(maxsplit=2) for row in rows]
    assert [name for name, _, _ in rows] == PASSES + ["total"]
    for _, median, best in rows:  # one repeat: its median is its best
        assert median == best and float(best) > 0
    assert abs(sum(float(b) for _, _, b in rows[:-1]) - float(rows[-1][2])) < 0.1


def test_a_repeat_below_1_is_a_usage_error(tmp_path):
    proc = _run("--repeat", "0", cwd=tmp_path)
    assert proc.returncode == 2 and "--repeat must be >= 1" in proc.stderr
