"""The exit-code contract under hostile inputs: 0 for success, 1 for an
input error reported as ``error: ...``, never a traceback.

Three fuzzes run through ``main``, as the command line does:

- a committed FCIDUMP mutated one to three times (a token replaced by a
  hostile value, or a line deleted or duplicated), run by every method;
- random ``run`` flag sets on the 4-qubit H2 input: flags left out,
  reordered or given bad values, and stray tokens;
- a 4-qubit H2 scan config mutated like the FCIDUMPs.

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
H2 = DATA / "h2_r0.735.fcidump"
BAD_NUMBERS = ("-1e-6", "0", "-1", "nan", "inf", "1e400", "x", "")
RUN_FLAGS = {  # flag: (good values, bad values)
    "--fcidump": ((str(H2),), (str(DATA / "missing.fcidump"), str(DATA),
                              "")),
    "--method": (("fci", "vqe", "adapt"), ("dmrg", "VQE", "")),
    "--optimizer": (("nm", "lbfgs", "L-BFGS", "Nelder-Mead"),
                    ("cobyla", "")),
    "--grad-norm-threshold": (("1e-2", "0.5", "1e308"), BAD_NUMBERS),
    "--tol": (("1e-6", "1e-2", "1e308"), BAD_NUMBERS),
    "--max-iter": (("1", "2", "3"), ("0", "-1", "1.7", "x", "")),
}
# the required flags, and --max-iter (at most 3) to keep the runs short
ALWAYS_GIVEN = ("--fcidump", "--method", "--max-iter")
STRAY = ("--max-iter", "--tol", "--no-such-flag", "--fd-step", "extra",
         "-1e-6")
SCAN_CONFIG = f"""\
output = out
methods = fci, vqe, adapt
optimizers = nelder_mead, lbfgs
grad_norm_threshold = 1e-2
tol_rel_energy = 1e-6
max_iterations = 3
input = 0.70 {DATA / "h2_r0.700.fcidump"}
input = 1.50 {DATA / "h2_r1.500.fcidump"}
""".splitlines()
CONFIG_HOSTILE = HOSTILE + ("-1", "=", ",", "dmrg", "lbfgs", "input",
                            "fd_step")


def mutate(lines, draw, hostile):
    """``lines`` with one to three mutations: a token replaced by one of
    ``hostile``, or a line deleted or duplicated."""
    lines = list(lines)
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
                draw(st.sampled_from(hostile))
            lines[k] = " " + " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def mutated_dump(draw):
    return mutate(DUMPS[draw(st.sampled_from(sorted(DUMPS)))], draw,
                  HOSTILE)


@st.composite
def run_argv(draw):
    """A good ``run`` flag set, each flag not in ALWAYS_GIVEN given half
    the time, spoiled up to three times: a flag left out, a value made bad
    or a stray token added at the end; the flags in any order."""
    given = {flag: draw(st.sampled_from(good))
             for flag, (good, _) in RUN_FLAGS.items()
             if flag in ALWAYS_GIVEN or draw(st.booleans())}
    stray = []
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(RUN_FLAGS)))
        spoil = draw(st.sampled_from(("bad", "drop", "stray")))
        if spoil == "bad":
            given[flag] = draw(st.sampled_from(RUN_FLAGS[flag][1]))
        elif spoil == "drop":
            given.pop(flag, None)
        else:
            stray.append(draw(st.sampled_from(STRAY)))
    pairs = draw(st.permutations(list(given.items())))
    return ["run"] + [token for pair in pairs for token in pair] + stray


def assert_contract(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1), (argv, code, err)
    assert code == 0 or err.startswith("error: "), (argv, err)
    assert "Traceback" not in err


FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutated_config(draw):
    return mutate(SCAN_CONFIG, draw, CONFIG_HOSTILE)


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


@settings(FUZZ, max_examples=100)
@given(argv=run_argv())
def test_run_flags_keep_the_exit_code_contract(argv):
    assert_contract(argv)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.cfg"


@settings(FUZZ, max_examples=100)
@given(text=mutated_config())
def test_mutated_scan_config_keeps_the_exit_code_contract(config_path, text):
    config_path.write_text(text)
    assert_contract(["scan", "--config", str(config_path)])
