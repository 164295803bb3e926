import json
import os
import stat
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from vqebench import adapt, ansatz, cli
from vqebench.cli import (
    ConfigError,
    CSV_HEADER,
    ScanConfig,
    emit_report,
    main,
    parse_scan_config,
    render_csv,
    render_json,
    run_scan,
)
from vqebench.adapt import AdaptConfig
from vqebench.fcidump import OpenShellError
from vqebench.pauli import ResourceLimitError

DATA = Path(__file__).parent / "data"
EXAMPLES = Path(__file__).resolve().parents[1] / "examples_configs"


def odd_electron_dump(tmp_path):
    """The committed H2 FCIDUMP with one electron: an open shell."""
    dump = tmp_path / "odd.fcidump"
    text = (DATA / "h2_r0.735.fcidump").read_text()
    dump.write_text(text.replace("NELEC=2", "NELEC=1", 1))
    return dump


def fourteen_qubit_dump(tmp_path):
    """7 spatial orbitals: above the 12-qubit cap, which the parser checks
    at the header, so the dump needs no records."""
    dump = tmp_path / "big.fcidump"
    dump.write_text("&FCI NORB=7,NELEC=2,MS2=0,\n&END\n")
    return dump


def parse_scan_csv(text: str) -> list[dict]:
    """The rows of a ``scan.csv``, one dict per row keyed by the header."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    keys = CSV_HEADER.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def config_text(inputs, methods="fci", optimizers="lbfgs",
                output="out"):
    lines = [f"output = {output}", f"methods = {methods}",
             f"optimizers = {optimizers}"]
    for label, path in inputs:
        lines.append(f"input = {label} {path}")
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    def test_round_trip_fields(self, tmp_path):
        text = config_text([("0.735", DATA / "h2_r0.735.fcidump")],
                           methods="fci, vqe", optimizers="nm, lbfgs")
        cfg = parse_scan_config(text, base_dir=tmp_path)
        assert cfg.methods == ["fci", "vqe"]
        assert cfg.optimizers == ["nelder_mead", "lbfgs"]
        assert cfg.inputs[0][0] == "0.735"

    def test_label_with_comma_rejected(self):
        text = config_text([("a,b", "x.fcidump")])
        with pytest.raises(ConfigError, match="comma"):
            parse_scan_config(text)

    def test_duplicate_labels_rejected(self):
        text = config_text([("a", "x.fcidump"), ("a", "y.fcidump")])
        with pytest.raises(ConfigError):
            parse_scan_config(text)

    def test_no_inputs_rejected(self):
        with pytest.raises(ConfigError):
            parse_scan_config("methods = fci\n")

    def test_unknown_method_rejected(self):
        text = config_text([("a", "x.fcidump")], methods="dmrg")
        with pytest.raises(ConfigError):
            parse_scan_config(text)

    def test_unknown_optimizer_rejected(self):
        text = config_text([("a", "x.fcidump")], optimizers="adam")
        with pytest.raises(ConfigError):
            parse_scan_config(text)

    def test_numeric_overrides(self):
        text = (config_text([("a", "x.fcidump")])
                + "grad_norm_threshold = 5e-3\nmax_iterations = 7\n")
        cfg = parse_scan_config(text)
        assert cfg.adapt.grad_norm_threshold == 5e-3
        assert cfg.adapt.max_iterations == 7

    def test_repeated_key_rejected_with_both_lines(self):
        text = config_text([("a", "x.fcidump"), ("b", "y.fcidump")],
                           methods="fci") + "methods = vqe\n"
        with pytest.raises(ConfigError, match=r"line 6: 'methods' already "
                                              r"set on line 2"):
            parse_scan_config(text)

    @pytest.mark.parametrize("value", ["bad", "-1"],
                             ids=["unparsable", "out-of-range"])
    def test_first_bad_setting_is_reported_in_settings_order(self, value):
        # file order puts tol_rel_energy first; the report does not follow it
        text = (config_text([("a", "x.fcidump")])
                + f"tol_rel_energy = {value}\n"
                + f"grad_norm_threshold = {value}\n")
        with pytest.raises(ConfigError, match="grad_norm_threshold"):
            parse_scan_config(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# hello\n\n" + config_text([("a", "x.fcidump")])
        cfg = parse_scan_config(text)
        assert len(cfg.inputs) == 1


class TestSettingDefaults:
    """`AdaptConfig` is the one home of the run settings' defaults: a scan
    config and a ``run`` command that set none reach the runner with
    whatever `AdaptConfig` declares."""

    DEFAULTS = (5e-3, 3, "nelder_mead", 1e-7)

    @pytest.fixture
    def seen(self, monkeypatch):
        configs = []
        runner = cli.run_adapt

        def recording(problem, cfg):
            configs.append(cfg)
            return runner(problem, cfg)

        monkeypatch.setattr(AdaptConfig.__init__, "__defaults__",
                            self.DEFAULTS)
        monkeypatch.setattr(cli, "run_adapt", recording)
        return configs

    def assert_defaults(self, cfg, optimizer):
        threshold, max_iterations, _, tol = self.DEFAULTS
        assert (cfg.grad_norm_threshold, cfg.max_iterations,
                cfg.tol_rel_energy, cfg.optimizer) \
            == (threshold, max_iterations, tol, optimizer)

    def test_scan_config_without_settings(self, seen):
        text = config_text([("0.735", DATA / "h2_r0.735.fcidump")],
                           methods="adapt", optimizers="lbfgs")
        run_scan(parse_scan_config(text))
        [cfg] = seen
        self.assert_defaults(cfg, "lbfgs")  # the scan names its optimizer

    def test_run_without_setting_flags(self, seen, capsys):
        assert main(["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"),
                     "--method", "adapt"]) == 0
        [cfg] = seen
        self.assert_defaults(cfg, "nelder_mead")
        assert "optimizer: nelder_mead" in capsys.readouterr().out


class TestRunScan:
    def test_fci_only_single_row(self):
        cfg = ScanConfig([("0.735", DATA / "h2_r0.735.fcidump")], ["fci"],
                         [], AdaptConfig(), "unused")
        rows = run_scan(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.method == "fci"
        assert row.abs_error_vs_fci == 0.0
        assert row.infidelity == 0.0
        assert row.converged

    def test_row_order_is_input_method_optimizer(self):
        cfg = ScanConfig(
            [("b", DATA / "h2_r0.735.fcidump"),
             ("a", DATA / "h2_r1.500.fcidump")],
            ["fci", "vqe", "adapt"], ["nelder_mead", "lbfgs"],
            AdaptConfig(), "unused")
        rows = run_scan(cfg)
        keys = [(r.label, r.method, r.optimizer) for r in rows]
        assert keys == [
            ("b", "fci", "-"),
            ("b", "vqe", "nelder_mead"), ("b", "vqe", "lbfgs"),
            ("b", "adapt", "nelder_mead"), ("b", "adapt", "lbfgs"),
            ("a", "fci", "-"),
            ("a", "vqe", "nelder_mead"), ("a", "vqe", "lbfgs"),
            ("a", "adapt", "nelder_mead"), ("a", "adapt", "lbfgs"),
        ]

    def test_missing_file_fails_fast(self):
        cfg = ScanConfig(
            [("ok", DATA / "h2_r0.735.fcidump"),
             ("missing", DATA / "nope.fcidump")],
            ["fci"], [], AdaptConfig(), "unused")
        with pytest.raises(FileNotFoundError):
            run_scan(cfg)

    @pytest.mark.parametrize("make_dump,error", [
        (odd_electron_dump, OpenShellError),
        (fourteen_qubit_dump, ResourceLimitError)], ids=["odd", "big"])
    def test_unsupported_input_fails_before_any_computation(
            self, tmp_path, monkeypatch, make_dump, error):
        def no_set_up(ham):
            raise AssertionError(f"{ham.label} set up before every input "
                                 "was checked")

        monkeypatch.setattr(cli, "QubitProblem", no_set_up)
        cfg = ScanConfig(
            [("h4", DATA / "h4_r1.000.fcidump"),
             ("bad", make_dump(tmp_path))],
            ["fci", "vqe", "adapt"], ["nelder_mead", "lbfgs"],
            AdaptConfig(), "unused")
        with pytest.raises(error):
            run_scan(cfg)

    def test_each_input_is_prepared_once(self, monkeypatch):
        fermion_calls, pool_calls, count_calls = [], [], []
        to_fermion = adapt.to_fermion_hamiltonian
        build_pool = adapt.build_uccsd_pool
        term_counts = adapt.commutator_term_counts

        def counting_to_fermion(ham):
            fermion_calls.append(ham.label)
            return to_fermion(ham)

        def counting_build_pool(*args):
            pool_calls.append(args)
            return build_pool(*args)

        monkeypatch.setattr(adapt, "to_fermion_hamiltonian",
                            counting_to_fermion)
        def counting_term_counts(h_p, ops):
            count_calls.append(len(ops))
            return term_counts(h_p, ops)

        monkeypatch.setattr(adapt, "build_uccsd_pool", counting_build_pool)
        monkeypatch.setattr(adapt, "commutator_term_counts",
                            counting_term_counts)
        cfg = ScanConfig(
            [("h2", DATA / "h2_r0.735.fcidump"),
             ("nah", DATA / "nah_r1.800.fcidump")],
            ["fci", "vqe", "adapt"], ["nelder_mead", "lbfgs"],
            AdaptConfig(), "unused")
        assert len(run_scan(cfg)) == 10
        assert fermion_calls == ["h2", "nah"]
        assert pool_calls == [(2, 2), (2, 2)]
        assert count_calls == [2, 2]  # once per input, not per optimizer

    def test_scan_builds_each_pool_shape_once(self, monkeypatch):
        # the 21 H2 inputs share one CAS(2,2) pool: its two operators are
        # the only Jordan-Wigner images built for the pool, in one call
        calls = []
        transform = ansatz.jordan_wigner_each

        def counting(operators):
            calls.append(list(operators))
            return transform(calls[-1])

        ansatz.build_uccsd_pool.cache_clear()
        monkeypatch.setattr(ansatz, "jordan_wigner_each", counting)
        config = EXAMPLES / "h2_scan.cfg"
        cfg = parse_scan_config(config.read_text(), base_dir=EXAMPLES)
        assert len(run_scan(cfg)) == 21 * 5
        assert [len(operators) for operators in calls] == [2]

    def test_variational_rows_never_below_fci(self):
        cfg = ScanConfig([("0.9", DATA / "h2_r0.900.fcidump")],
                         ["fci", "vqe", "adapt"],
                         ["nelder_mead", "lbfgs"], AdaptConfig(), "unused")
        rows = run_scan(cfg)
        fci_energy = next(r.energy for r in rows if r.method == "fci")
        for row in rows:
            if row.method != "fci":
                assert row.energy >= fci_energy - 1e-9


@pytest.fixture(scope="module")
def rows():
    cfg = ScanConfig([("0.735", DATA / "h2_r0.735.fcidump")],
                     ["fci", "vqe"], ["nelder_mead", "lbfgs"],
                     AdaptConfig(), "unused")
    return run_scan(cfg)


def formatted(rows):
    return [row.formatted() for row in rows]


class TestReports:

    def test_csv_has_exact_header_and_line_count(self, rows):
        text = render_csv(formatted(rows))
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1

    def test_single_row_gives_two_lines(self, rows):
        text = render_csv(formatted(rows[:1]))
        assert len(text.strip().splitlines()) == 2

    def test_csv_round_trip(self, rows):
        text = render_csv(formatted(rows))
        parsed = parse_scan_csv(text)
        assert len(parsed) == len(rows)
        for record, row in zip(parsed, rows):
            assert record == row.formatted()

    def test_json_matches_csv_content(self, rows):
        payload = json.loads(render_json(rows, formatted(rows)))
        parsed = parse_scan_csv(render_csv(formatted(rows)))
        for jrec, crec in zip(payload, parsed):
            assert jrec["energy"] == float(crec["energy"])
            assert jrec["infidelity"] == float(crec["infidelity"])
            assert jrec["converged"] == (crec["converged"] == "true")

    def test_emit_report_writes_three_files(self, rows, tmp_path):
        artifacts = emit_report(rows, tmp_path / "out")
        for path in artifacts.values():
            assert path.exists()
        summary = artifacts["summary"].read_text()
        assert "Nelder-Mead" in summary  # optimizer note in every report

    def test_emit_report_formats_each_row_once(self, rows, tmp_path,
                                               monkeypatch):
        calls = []
        formatted = cli.ScanRow.formatted

        def counted(row):
            calls.append(row)
            return formatted(row)

        monkeypatch.setattr(cli.ScanRow, "formatted", counted)
        emit_report(rows, tmp_path)
        assert len(calls) == len(rows)

    def test_reports_get_the_mode_of_a_plain_open(self, rows, tmp_path):
        old = os.umask(0o022)
        try:
            artifacts = emit_report(rows, tmp_path / "out")
        finally:
            os.umask(old)
        for path in artifacts.values():
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) \
            == ["scan.csv", "scan.json", "summary.txt"]  # no temporary left

    def test_summary_optimizer_gap_is_microhartree(self, rows):
        vqe = {r.optimizer: r.energy for r in rows if r.method == "vqe"}
        gap = vqe["nelder_mead"] - vqe["lbfgs"]
        assert abs(gap) <= 1e-5

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)

    @pytest.mark.parametrize("values", [[0.3], [0.3, 0.1], [2e-9, 1e-9, 5e-9],
                                        [1.0, 0.1, 0.7, 0.2], [0.1, 0.2]])
    def test_summary_median_is_the_statistics_median(self, values):
        assert cli._median(iter(values)) == statistics.median(values)

    def test_cli_import_loads_no_statistics(self):
        # statistics imports decimal and fractions: milliseconds of every
        # command's start
        assert loaded_by_cli_import(
            {"statistics", "decimal", "fractions"}) == "[]\n"

    def test_cli_import_loads_no_selftest(self):
        # only the selftest command imports it, so no other command
        # compiles or runs its module
        assert loaded_by_cli_import({"vqebench.selftest"}) == "[]\n"


def loaded_by_cli_import(modules) -> str:
    """The printed sorted list of ``modules`` that a fresh interpreter has
    loaded after ``import vqebench.cli``."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", "import sys, vqebench.cli; print(sorted("
         f"{sorted(modules)!r} & sys.modules.keys()))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True).stdout


class TestMainEntry:
    def test_scan_end_to_end_and_determinism(self, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text(config_text(
            [("0.735", DATA / "h2_r0.735.fcidump")],
            methods="fci, vqe, adapt", optimizers="nm, lbfgs",
            output="out"))
        assert main(["scan", "--config", str(config)]) == 0
        first_csv = (tmp_path / "out" / "scan.csv").read_bytes()
        first_json = (tmp_path / "out" / "scan.json").read_bytes()
        assert main(["scan", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "scan.csv").read_bytes() == first_csv
        assert (tmp_path / "out" / "scan.json").read_bytes() == first_json

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["scan", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_malformed_fcidump_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("not a dump\n")
        assert main(["run", "--fcidump", str(bad), "--method", "fci"]) == 1

    def test_bad_config_line_is_input_error(self, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text("inputs without equals sign\n")
        assert main(["scan", "--config", str(config)]) == 1

    @pytest.mark.parametrize("line", ["grad_norm_threshold = -1",
                                      "optimiser = nelder_mead",
                                      "max_iterations = 1.7",
                                      "grad_norm_threshold = nan",
                                      "grad_norm_threshold = inf",
                                      "tol_rel_energy = nan",
                                      "fd_step = inf",
                                      "fd_step = 1e-5",
                                      "output = again",
                                      "methods =",
                                      pytest.param("methods = vqe\n"
                                                   "optimizers =",
                                                   id="vqe, optimizers ="),
                                      "input = 0.70"])
    def test_bad_config_value_is_input_error(self, tmp_path, capsys, line):
        # the methods and optimizers lines are left to the case
        config = tmp_path / "scan.cfg"
        config.write_text(f"output = out\ninput = 0.735 "
                          f"{DATA / 'h2_r0.735.fcidump'}\n{line}\n")
        assert main(["scan", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output", ["occupied", "occupied/sub"])
    def test_blocked_output_is_input_error(self, tmp_path, capsys,
                                           monkeypatch, output):
        def no_rows(cfg):
            raise AssertionError("rows computed before the output was made")

        (tmp_path / "occupied").write_text("a file, not a directory\n")
        config = tmp_path / "scan.cfg"
        config.write_text(config_text(
            [("0.735", DATA / "h2_r0.735.fcidump")], output=output))
        monkeypatch.setattr(cli, "run_scan", no_rows)
        assert main(["scan", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert output in err

    def test_bad_run_flag_is_input_error(self):
        assert main(["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"),
                     "--method", "adapt", "--grad-norm-threshold",
                     "-1"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--method", "adapt", "--grad-norm-threshold", "nan"],
        ["--method", "adapt", "--grad-norm-threshold", "inf"],
        ["--method", "vqe", "--optimizer", "nm", "--tol", "nan"]],
        ids=["grad-nan", "grad-inf", "tol-nan"])
    def test_non_finite_run_flag_is_input_error(self, capsys, flags):
        argv = ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump")] + flags
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "must be positive and finite" in err
        assert "internal" not in err

    @pytest.mark.parametrize("method", ["fci", "vqe", "adapt"])
    def test_run_flags_checked_before_any_set_up(self, monkeypatch, capsys,
                                                 method):
        def no_set_up(ham):
            raise AssertionError("problem built before the flags were checked")

        monkeypatch.setattr(cli, "QubitProblem", no_set_up)
        argv = ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"),
                "--method", method, "--tol", "nan"]
        assert main(argv) == 1
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"), "--method",
         "adapt", "--max-iter", "1.7"],
        ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"), "--method",
         "dmrg"],
        ["scan"],
        # argparse reads a negative exponent as an option
        ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"), "--method",
         "vqe", "--tol", "-1e-6"],
        ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"), "--method",
         "vqe", "--tol", "x"],
        ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"), "--method",
         "fci", "--no-such-flag"],
        # L-BFGS takes exact gradients: no finite-difference step to set
        ["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"), "--method",
         "vqe", "--fd-step", "1e-5"],
        []], ids=["bad-max-iter", "unknown-method", "scan-no-config",
                  "negative-tol", "tol-not-a-number", "unknown-flag",
                  "removed-fd-step", "no-command"])
    def test_usage_error_is_input_error(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "usage: vqebench" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_tol_help_states_its_unit(self, capsys):
        assert main(["run", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--tol TOL absolute energy change, in Hartree" in out

    @pytest.mark.parametrize("command", ["run", "scan"])
    def test_os_error_on_an_input_is_input_error(self, tmp_path, capsys,
                                                 command):
        # a path through a regular file: NotADirectoryError, an OSError
        # that is neither FileNotFoundError nor IsADirectoryError
        dump = DATA / "h2_r0.735.fcidump" / "x"
        if command == "run":
            argv = ["run", "--fcidump", str(dump), "--method", "fci"]
        else:
            config = tmp_path / "scan.cfg"
            config.write_text(config_text([("bad", dump)]))
            argv = ["scan", "--config", str(config)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "scan"])
    def test_too_many_qubits_is_input_error(self, tmp_path, capsys,
                                            command):
        dump = fourteen_qubit_dump(tmp_path)
        if command == "run":
            argv = ["run", "--fcidump", str(dump), "--method", "fci"]
        else:
            config = tmp_path / "scan.cfg"
            config.write_text(config_text([("big", dump)]))
            argv = ["scan", "--config", str(config)]
        assert main(argv) == 1
        assert "14 qubits" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run fci", "run adapt", "scan"])
    def test_odd_electron_count_is_input_error(self, tmp_path, capsys,
                                               command):
        dump = odd_electron_dump(tmp_path)
        if command == "scan":
            config = tmp_path / "scan.cfg"
            config.write_text(config_text([("odd", dump)]))
            argv = ["scan", "--config", str(config)]
        else:
            argv = ["run", "--fcidump", str(dump), "--method",
                    command.split()[1]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "closed-shell" in err
        assert "internal" not in err

    @pytest.mark.parametrize("nelec", [0, 6])
    def test_electron_count_outside_orbitals_is_input_error(
            self, tmp_path, capsys, nelec):
        dump = tmp_path / "bad.fcidump"
        text = (DATA / "h2_r0.735.fcidump").read_text()
        dump.write_text(text.replace("NELEC=2", f"NELEC={nelec}", 1))
        assert main(["run", "--fcidump", str(dump), "--method", "fci"]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "NELEC" in err
        assert "internal" not in err

    def test_triplet_fcidump_is_input_error(self, tmp_path, capsys):
        dump = tmp_path / "triplet.fcidump"
        text = (DATA / "h2_r0.735.fcidump").read_text()
        dump.write_text(text.replace("MS2=0", "MS2=2", 1))
        assert main(["run", "--fcidump", str(dump), "--method", "fci"]) == 1
        captured = capsys.readouterr()
        assert "MS2" in captured.err
        assert "-1.137306036" not in captured.out

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    @pytest.mark.parametrize("record,line", [
        ("0.68238953315204121 1 1 1 1", 5),
        ("0.75596744417142869 0 0 0 0", 14)], ids=["two-electron", "core"])
    def test_non_finite_integral_is_input_error(self, tmp_path, capsys,
                                                value, record, line):
        dump = tmp_path / "bad.fcidump"
        text = (DATA / "h2_r0.700.fcidump").read_text()
        assert record in text
        dump.write_text(text.replace(record,
                                     f"{value} {record.split(' ', 1)[1]}"))
        assert main(["run", "--fcidump", str(dump), "--method", "fci"]) == 1
        captured = capsys.readouterr()
        assert f"line {line}" in captured.err
        assert "non-finite" in captured.err
        assert "fci energy" not in captured.out

    def test_label_with_comma_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "scan.cfg"
        config.write_text(config_text([("a,b", DATA / "h2_r0.735.fcidump")]))
        assert main(["scan", "--config", str(config)]) == 1
        assert "comma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_ascii_fcidump_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcidump"
        text = (DATA / "h2_r0.735.fcidump").read_bytes()
        bad.write_bytes(text.replace(b"ISYM", b"\xc3\x9fISYM", 1))
        assert main(["run", "--fcidump", str(bad), "--method", "fci"]) == 1
        assert "non-ASCII" in capsys.readouterr().err

    def test_run_fci(self, capsys):
        code = main(["run", "--fcidump",
                     str(DATA / "h2_r0.735.fcidump"), "--method", "fci"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-1.137306036" in out

    def test_run_fci_notes_a_degenerate_ground_space(self, tmp_path,
                                                     capsys):
        # two spatial orbitals and only a core energy: all four
        # determinants of the S_z = 0 block tie at 0.25
        dump = tmp_path / "flat.fcidump"
        dump.write_text("&FCI NORB=2,NELEC=2,MS2=0 /\n 0.25 0 0 0 0\n")
        assert main(["run", "--fcidump", str(dump), "--method", "fci"]) == 0
        assert capsys.readouterr().out == ("fci energy: 0.250000000\n"
                                           "note: degenerate ground space\n")

    def test_internal_error_exits_two(self, monkeypatch, capsys):
        def broken(problem):
            raise AssertionError("eigenpair residual above tolerance")

        monkeypatch.setattr(cli, "solve_fci", broken)
        assert main(["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"),
                     "--method", "fci"]) == 2
        assert capsys.readouterr().err.startswith("internal error:")

    def test_any_other_exception_exits_two_without_traceback(
            self, monkeypatch, capsys):
        def broken(problem):
            raise IndexError("index 0 is out of bounds for axis 1")

        monkeypatch.setattr(cli, "solve_fci", broken)
        assert main(["run", "--fcidump", str(DATA / "h2_r0.735.fcidump"),
                     "--method", "fci"]) == 2
        assert capsys.readouterr().err == \
            "internal error: index 0 is out of bounds for axis 1\n"

    @pytest.mark.parametrize("dump,record,value,line", [
        ("h2_r0.735.fcidump", "0.69857372273202045 2 2 2 2", "-1e8", 10),
        ("nah_r1.900.fcidump", "0.28465818528565645 2 2 1 1", "-1e308", 7),
        ("h2_r0.735.fcidump", "-1.2563390730032582 1 1 0 0", "1e7", 11)],
        ids=["h2-two-electron", "nah-two-electron", "h2-one-electron"])
    def test_integral_above_the_cap_is_input_error(self, tmp_path, capsys,
                                                   dump, record, value,
                                                   line):
        # sums of such integrals overflowed while H was compiled: an
        # eigenpair residual (exit 2) or an uncaught IndexError
        bad = tmp_path / "huge.fcidump"
        text = (DATA / dump).read_text()
        assert record in text
        bad.write_text(text.replace(record,
                                    f"{value} {record.split(' ', 1)[1]}"))
        assert main(["run", "--fcidump", str(bad), "--method", "vqe",
                     "--max-iter", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line {line}" in err
        assert "exceeds the cap" in err

    @pytest.mark.parametrize("value", ["1e308", "-1e308"])
    def test_core_energy_is_not_capped(self, tmp_path, capsys, value):
        dump = tmp_path / "core.fcidump"
        text = (DATA / "nah_r1.900.fcidump").read_text()
        record = "-159.50285248478329 0 0 0 0"
        assert record in text
        dump.write_text(text.replace(record, f"{value} 0 0 0 0"))
        assert main(["run", "--fcidump", str(dump), "--method", "vqe",
                     "--max-iter", "3"]) == 0
        assert "energy" in capsys.readouterr().out

    @pytest.mark.parametrize("spelling,optimizer", [
        ("NM", "nelder_mead"), ("L-BFGS", "lbfgs")])
    def test_run_optimizer_spelling_ignores_case(self, capsys, spelling,
                                                 optimizer):
        # a scan config reads the same spellings in any case
        code = main(["run", "--fcidump", str(DATA / "h2_r0.700.fcidump"),
                     "--method", "vqe", "--optimizer", spelling])
        assert code == 0
        assert f"optimizer: {optimizer}" in capsys.readouterr().out

    def test_run_adapt_nm_alias(self, capsys):
        code = main(["run", "--fcidump",
                     str(DATA / "h2_r0.735.fcidump"), "--method", "adapt",
                     "--optimizer", "nm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nelder_mead" in out
        assert "Nelder-Mead" in out  # stand-in note printed
