"""Golden outputs: the committed example scans are reproduced byte for byte,
and the built-in selftest passes.

Every simulator change must leave ``examples_configs/*_out/`` unchanged
unless it says why, so the last bits of every reported number are pinned
here.
"""
from pathlib import Path

import pytest

from vqebench.cli import emit_report, main, parse_scan_config, run_scan

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_configs"


@pytest.mark.parametrize("name", ["h2_scan", "nah_scan"])
def test_example_scan_reproduces_committed_outputs(name, tmp_path):
    config = EXAMPLES / f"{name}.cfg"
    cfg = parse_scan_config(config.read_text(), base_dir=EXAMPLES)
    emit_report(run_scan(cfg), tmp_path)
    for artifact in ("scan.csv", "scan.json", "summary.txt"):
        expected = (EXAMPLES / f"{name}_out" / artifact).read_bytes()
        assert (tmp_path / artifact).read_bytes() == expected, artifact


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out
