"""The exit-code contract under mutated inputs: 0 for success, 1 for an
input error reported as ``error: ...``, never a traceback.

Each example mutates a committed FCIDUMP one to three times: a token
replaced by a hostile value, or a line deleted or duplicated. It then runs
every method on the result through ``main``, as the command line does.
The examples are derandomized, so every run tries the same inputs.
"""
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vqebench.cli import main

DATA = Path(__file__).parent / "data"
DUMPS = {name: (DATA / name).read_text().splitlines()
         for name in ("nah_r1.900.fcidump", "h2_r0.735.fcidump")}
HOSTILE = ("nan", "inf", "1e308", "-1e308", "1e400", "0", "", "x")


@st.composite
def mutated_dump(draw):
    lines = list(DUMPS[draw(st.sampled_from(sorted(DUMPS)))])
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        mutation = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if mutation == "delete":
            del lines[k]
        elif mutation == "duplicate":
            lines.insert(k, lines[k])
        else:
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = \
                draw(st.sampled_from(HOSTILE))
            lines[k] = " " + " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def dump_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.fcidump"


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_dump())
def test_mutated_fcidump_keeps_the_exit_code_contract(dump_path, text):
    dump_path.write_text(text)
    for method in ("fci", "vqe", "adapt"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["run", "--fcidump", str(dump_path), "--method",
                         method, "--max-iter", "3"])
        err = err.getvalue()
        assert code in (0, 1), (method, code, err)
        assert code == 0 or err.startswith("error: "), (method, err)
        assert "Traceback" not in err
