"""Workload inputs: scan configs and FCIDUMP files, made from a seed.

``scan_4q`` copies the committed H2 and NaH scans (configs and FCIDUMPs)
unchanged except for their output directory, so that their rows can be
compared with the committed ``examples_configs/*_out/scan.csv``. The
other workloads build a linear hydrogen chain with the STO-3G stack in
``scripts/make_reference_data.py`` (all orbitals active, no frozen core)
and record its determinant-CI energy as an oracle independent of the
package.
"""
from __future__ import annotations

import importlib.util
import json
import random
import shutil
from pathlib import Path

# Bond lengths (Angstrom) the seed draws from. The grid is narrow so that
# the optimizers take about the same path at every seed, which keeps the
# work per run, and hence the run-to-run spread, small.
BOND_GRID = (0.98, 0.99, 1.0, 1.01, 1.02)

GOLDEN_SCANS = ("h2_scan", "nah_scan")

# n_atoms, scan settings
CHAINS = {
    "scan_h4": (4, {"methods": "fci, vqe, adapt",
                    "optimizers": "nelder_mead, lbfgs",
                    "max_iterations": "50"}),
    "adapt_h6_step": (6, {"methods": "fci, adapt",
                          "optimizers": "lbfgs",
                          "max_iterations": "1"}),
}

WORKLOADS = ("scan_4q",) + tuple(CHAINS)


class Scan:
    """One ``vqebench scan`` call: its config file and where to check it."""

    def __init__(self, name, config, output, rows, oracle, golden=None):
        self.name = name
        self.config = Path(config)
        self.output = Path(output)
        # expected (label, method, optimizer) keys, in output order
        self.rows = [tuple(row) for row in rows]
        self.oracle = oracle  # {label: determinant-CI energy}
        self.golden = None if golden is None else Path(golden)  # scan.csv

    def as_dict(self):
        return {"name": self.name, "config": str(self.config),
                "output": str(self.output), "rows": self.rows,
                "oracle": self.oracle,
                "golden": None if self.golden is None else str(self.golden)}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def _load_reference_script(root: Path):
    path = root / "scripts" / "make_reference_data.py"
    spec = importlib.util.spec_from_file_location("make_reference_data",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hydrogen_chain(ref, n_atoms: int, bond: float):
    """FCIDUMP text and determinant-CI energy of a linear H_n chain."""
    step = bond * ref.BOHR_PER_ANGSTROM
    atoms = [("H", (0.0, 0.0, k * step)) for k in range(n_atoms)]
    e_nuc = ref.nuclear_repulsion(atoms)
    s, hcore, eri = ref.ao_integrals(atoms)
    _, c, _ = ref.run_rhf(s, hcore, eri, n_atoms, e_nuc)
    h1, h2, core = ref.cas_integrals(hcore, eri, c, e_nuc, n_core=0,
                                     n_active=n_atoms)
    oracle = ref.determinant_fci(h1, h2, n_atoms) + core
    return ref.format_fcidump(h1, h2, core, n_atoms), oracle


def _write_config(path: Path, output: str, settings: dict, inputs):
    lines = [f"output = {output}"]
    lines += [f"{key} = {value}" for key, value in settings.items()]
    lines += [f"input = {label} {file}" for label, file in inputs]
    path.write_text("\n".join(lines) + "\n")


def _copy_golden_scan(root: Path, work: Path, name: str) -> Scan:
    """Copy a committed scan config and its FCIDUMPs into ``work``; the
    oracle is the frozen determinant-CI energy committed with the data."""
    src = root / "examples_configs" / f"{name}.cfg"
    settings, inputs, oracle, references = {}, [], {}, {}
    data = work / "data"
    data.mkdir(exist_ok=True)
    for raw in src.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "input":
            label, file = value.split(None, 1)
            file = src.parent / file
            shutil.copyfile(file, data / file.name)
            inputs.append((label, f"data/{file.name}"))
            if file.parent not in references:
                references[file.parent] = json.loads(
                    (file.parent / "reference_energies.json").read_text())
            oracle[label] = references[file.parent][file.name]["fci_energy"]
        elif key != "output":
            settings[key] = value
    config = work / f"{name}.cfg"
    _write_config(config, f"{name}_out", settings, inputs)
    golden = root / "examples_configs" / f"{name}_out" / "scan.csv"
    rows = [line.split(",")[:3]
            for line in golden.read_text().splitlines()[1:]]
    return Scan(name, config, work / f"{name}_out", rows, oracle, golden)


def bond_length(seed: int) -> float:
    return random.Random(seed).choice(BOND_GRID)


def make_inputs(root: Path, work: Path, workload: str, seed: int):
    """Write the workload's inputs under ``work``; return its scans."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "scan_4q":
        # The committed inputs are the same for every seed: the golden
        # comparison needs exactly them.
        return [_copy_golden_scan(root, work, name) for name in GOLDEN_SCANS]
    n_atoms, settings = CHAINS[workload]
    bond = bond_length(seed)
    text, oracle = hydrogen_chain(_load_reference_script(root), n_atoms,
                                  bond)
    label = f"{bond:.3f}"
    fcidump = work / f"h{n_atoms}_r{label}.fcidump"
    fcidump.write_text(text)
    config = work / f"{workload}.cfg"
    _write_config(config, f"{workload}_out", settings,
                  [(label, fcidump.name)])
    rows = [(label, "fci", "-")] + [
        (label, method, optimizer)
        for method in _split(settings["methods"]) if method != "fci"
        for optimizer in _split(settings["optimizers"])]
    return [Scan(workload, config, work / f"{workload}_out", rows,
                 {label: oracle})]


def _split(value):
    return [token.strip() for token in value.split(",")]


def save_scans(path: Path, scans):
    path.write_text(json.dumps([s.as_dict() for s in scans], indent=2))


def load_scans(path: Path):
    return [Scan.from_dict(d) for d in json.loads(path.read_text())]
