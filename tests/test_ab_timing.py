"""``tests/ab_timing.py`` times two loaded copies of a checkout in one process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_an_a_a_run_prints_one_line_per_row_with_both_sides():
    # run in its own process: the tool swaps the package's modules in sys.modules
    rows = ["precision", "parse-exp", "rotor", "sandwich_parts", "sl2_parts", "half_angle_parts",
            "exp_parts", "region-along-t", "main-spin", "main-rotate"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_timing.py"), "--root", str(ROOT),
         "--root", str(ROOT), "--bursts", "3", "--number", "2", "--rows", *rows],
        capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[:2] == [f"0: {ROOT.resolve()}", f"1: {ROOT.resolve()}"]
    assert [line.split()[0] for line in lines[2:]] == rows
    for line in lines[2:]:
        # name, then per side: "k:", "best", µs, "median", µs, "won", "w/3";
        # then "1/0:", "ratio", the median ratio, "quartiles", q1, q3
        cells = line.split()
        assert len(cells) == 21 and (cells[1], cells[8], cells[15]) == ("0:", "1:", "1/0:")
        assert float(cells[3]) <= float(cells[5]) and float(cells[10]) <= float(cells[12])
        won = [cells[7].split("/"), cells[14].split("/")]
        assert [total for _, total in won] == ["3", "3"] and sum(int(w) for w, _ in won) <= 3
        assert (cells[16], cells[18]) == ("ratio", "quartiles")
        q1, ratio, q3 = float(cells[19]), float(cells[17]), float(cells[20])
        assert 0.0 < q1 <= ratio <= q3
