"""README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quick start", "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    # the values the README's comments quote
    period, floquet = (float(v) for v in printed[0].split())
    assert abs(period - 17.25) < 0.01 and abs(floquet - 1.736) < 1e-3
    # (0.9, 0.05) lies outside the unstable cycle, so it escapes to the wall
    assert printed[1].split()[0] == "boundary-axis"
    # a start inside it ends in E2's Lyapunov ellipse
    assert printed[2].startswith("E2 entered the Lyapunov ellipse of E2 at t = ")
