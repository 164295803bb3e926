"""The README's "Library use" example runs as printed."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_use_example() -> str:
    """The first fenced ``python`` block under ``## Library use``."""
    section = (ROOT / "README.md").read_text().split("\n## Library use\n")[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example's FCIDUMP path is relative
    namespace = {}
    exec(library_use_example(), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ADAPT energy  -1.1")
    assert lines[1].startswith("FCI energy    -1.1")
    trace = namespace["result"].trace
    assert trace and len(lines) == 5 + len(trace)
    for line, record in zip(lines[5:], trace):
        assert line.split()[0] == str(record.selected_pool_id)
