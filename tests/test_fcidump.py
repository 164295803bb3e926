import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    commutator,
    format_fcidump,
    mean_field_energy,
    number_operator,
)

from vqebench.adapt import QubitProblem
from vqebench.fci import solve_fci
from vqebench.fcidump import (
    FcidumpIntegrityError,
    FcidumpParseError,
    MolecularHamiltonian,
    OpenShellError,
    load_fcidump,
    parse_fcidump,
    to_fermion_hamiltonian,
)
from vqebench.fermion import jordan_wigner
from vqebench.pauli import ResourceLimitError
from vqebench.statevector import (
    expectation,
    hartree_fock_reference,
    sector_indices,
)

DATA = Path(__file__).parent / "data"

MINIMAL = """\
&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.5 0 0 0 0
"""


def two_body_orbit(index):
    """The index tuples that ``index`` equals by the symmetries of real
    (ij|kl), as the closure of the three swaps that generate them."""
    orbit, todo = {index}, [index]
    while todo:
        i, j, k, l = todo.pop()
        for image in ((j, i, k, l), (i, j, l, k), (k, l, i, j)):
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return sorted(orbit)


def canonical_two_body(i, j, k, l):
    """The orbit's key in a duplicate-record error: each index pair in
    descending order, then the larger of the two pair orders."""
    ij = tuple(sorted((i, j), reverse=True))
    kl = tuple(sorted((k, l), reverse=True))
    return max(ij + kl, kl + ij)


class TestParse:
    def test_constant_only_file(self):
        ham = parse_fcidump(MINIMAL)
        assert ham.core_energy == 0.5
        assert ham.n_spatial == 2
        assert ham.n_electrons == 2
        np.testing.assert_array_equal(ham.h1, np.zeros((2, 2)))
        np.testing.assert_array_equal(ham.h2, np.zeros((2, 2, 2, 2)))

    def test_one_electron_symmetry_fill(self):
        text = MINIMAL + " 0.25 1 2 0 0\n"
        ham = parse_fcidump(text)
        assert ham.h1[0, 1] == 0.25
        assert ham.h1[1, 0] == 0.25

    def test_two_electron_eightfold_fill(self):
        text = MINIMAL + " 0.7 2 1 1 1\n"
        ham = parse_fcidump(text)
        for key in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            assert ham.h2[key] == 0.7

    def test_accepts_bytes_and_slash_terminator(self):
        text = "&FCI NORB=1,NELEC=2,MS2=0 /\n 1.0 1 1 0 0\n -0.3 0 0 0 0\n"
        ham = parse_fcidump(text.encode())
        assert ham.h1[0, 0] == 1.0
        assert ham.core_energy == -0.3

    def test_scientific_notation(self):
        text = MINIMAL + " 6.74493103326006250e-01 1 1 1 1\n"
        ham = parse_fcidump(text)
        assert ham.h2[0, 0, 0, 0] == pytest.approx(0.674493103326006250)

    def test_header_missing_fci_marker(self):
        with pytest.raises(FcidumpParseError) as err:
            parse_fcidump("NORB=2\n 0.5 0 0 0 0\n")
        assert "line 1" in str(err.value)

    def test_missing_norb(self):
        with pytest.raises(FcidumpParseError):
            parse_fcidump("&FCI NELEC=2 &END\n 0.5 0 0 0 0\n")

    def test_index_out_of_range_reports_line(self):
        text = MINIMAL + " 0.1 3 1 0 0\n"
        with pytest.raises(FcidumpParseError) as err:
            parse_fcidump(text)
        assert "line 6" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    @pytest.mark.parametrize("record", ["1 1 1 1", "0 0 0 0"],
                             ids=["two-electron", "core"])
    def test_non_finite_value_reports_line(self, value, record):
        text = MINIMAL.replace(" 0.5 0 0 0 0", f" {value} {record}")
        with pytest.raises(FcidumpParseError, match="non-finite") as err:
            parse_fcidump(text)
        assert "line 5" in str(err.value)

    @pytest.mark.parametrize("record", ["1 1 1 1", "2 1 0 0"],
                             ids=["two-electron", "one-electron"])
    def test_integral_above_the_cap_reports_line(self, record):
        text = MINIMAL.replace(" 0.5 0 0 0 0", f" -1.00001e4 {record}")
        with pytest.raises(FcidumpParseError, match="exceeds the cap") as err:
            parse_fcidump(text)
        assert "line 5" in str(err.value)
        at_cap = parse_fcidump(text.replace("-1.00001e4", "-1e4"))
        assert np.abs(at_cap.h1).max() + np.abs(at_cap.h2).max() == 1e4

    def test_malformed_record(self):
        with pytest.raises(FcidumpParseError):
            parse_fcidump(MINIMAL + " 0.1 1 1 0\n")

    def test_duplicate_consistent_records_allowed(self):
        text = MINIMAL + " 0.25 1 2 0 0\n 0.25 2 1 0 0\n"
        assert parse_fcidump(text).h1[0, 1] == 0.25

    def test_duplicate_inconsistent_records_rejected(self):
        text = MINIMAL + " 0.25 1 2 0 0\n 0.26 2 1 0 0\n"
        with pytest.raises(FcidumpIntegrityError):
            parse_fcidump(text)

    @pytest.mark.parametrize("index", list(
        itertools.product(range(1, 4), repeat=4)))
    def test_duplicate_two_electron_records(self, index):
        # every member of the orbit repeats the record, on line 3
        header = "&FCI NORB=3,NELEC=2,MS2=0 /\n"
        first = " 0.25 {} {} {} {}\n".format(*index)
        single = parse_fcidump(header + first).h2.tobytes()
        key = ("h2", *canonical_two_body(*index))
        for repeat in two_body_orbit(index):
            text = header + first + " {} {} {} {} {}\n"
            assert parse_fcidump(text.format(0.25, *repeat)
                                 ).h2.tobytes() == single
            with pytest.raises(FcidumpIntegrityError) as err:
                parse_fcidump(text.format(0.26, *repeat))
            assert str(err.value) == (f"line 3: record {key} = 0.26 "
                                      "conflicts with line 2 value 0.25")

    @pytest.mark.parametrize("nelec", [0, -2, 5])
    def test_electron_count_outside_orbitals_rejected(self, nelec):
        text = MINIMAL.replace("NELEC=2", f"NELEC={nelec}")
        with pytest.raises(FcidumpParseError) as err:
            parse_fcidump(text)
        assert "line 1" in str(err.value) and "NELEC" in str(err.value)

    def test_full_shell_accepted(self):
        assert parse_fcidump(MINIMAL.replace("NELEC=2", "NELEC=4")
                             ).n_electrons == 4

    @pytest.mark.parametrize("ms2", ["1", "2", "-2"])
    def test_open_shell_spin_rejected(self, ms2):
        with pytest.raises(FcidumpParseError) as err:
            parse_fcidump(MINIMAL.replace("MS2=0", f"MS2={ms2}"))
        assert "line 1" in str(err.value) and "MS2" in str(err.value)

    def test_ms2_is_optional(self):
        assert parse_fcidump(MINIMAL.replace("MS2=0,", "")).n_electrons == 2

    def test_h2_production_file_parses(self):
        ham = load_fcidump(DATA / "h2_r0.735.fcidump")
        assert ham.n_spatial == 2
        assert ham.n_electrons == 2
        assert ham.core_energy > 0  # nuclear repulsion

    def test_qubit_cap_is_checked_from_the_header(self):
        # NORB=40 would need a 20 MB h2 tensor before any later check
        text = MINIMAL.replace("NORB=2", "NORB=40")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="80 qubits"):
                parse_fcidump(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRoundTrip:
    """Against ``format_fcidump`` of ``scripts/make_reference_data.py``,
    the writer of the committed files."""

    @pytest.mark.parametrize("name", ["h2_r0.735.fcidump",
                                      "nah_r1.800.fcidump"])
    def test_parse_write_parse_bit_identical(self, name):
        first = load_fcidump(DATA / name)
        text = format_fcidump(first)
        second = parse_fcidump(text)
        assert second.core_energy == first.core_energy
        np.testing.assert_array_equal(second.h1, first.h1)
        np.testing.assert_array_equal(second.h2, first.h2)
        assert format_fcidump(second) == text
        assert text.startswith("&FCI NORB=2,NELEC=2,MS2=0,")

    @pytest.mark.parametrize("path", sorted(DATA.rglob("*.fcidump")),
                             ids=lambda path: path.name)
    def test_script_writes_every_committed_file(self, path):
        data = path.read_bytes()
        assert format_fcidump(parse_fcidump(data)).encode("ascii") == data


class TestToFermionHamiltonian:
    def test_zero_tensors_give_empty_operator(self):
        ham = parse_fcidump(MINIMAL)
        fermion_h, core = to_fermion_hamiltonian(ham)
        assert core == 0.5
        assert fermion_h.products == []

    def test_single_orbital_spin_expansion(self):
        eps = -0.9
        ham = MolecularHamiltonian(1, 2, 0.0, np.array([[eps]]),
                                   np.zeros((1, 1, 1, 1)))
        fermion_h, _ = to_fermion_hamiltonian(ham)
        assert len(fermion_h.products) == 2
        factors = {p.factors for p in fermion_h.products}
        assert factors == {((0, True), (0, False)), ((1, True), (1, False))}
        assert all(p.coefficient == eps for p in fermion_h.products)

    @pytest.mark.parametrize("name", ["h2_r0.735.fcidump",
                                      "h2_r2.100.fcidump",
                                      "nah_r1.800.fcidump"])
    def test_reference_expectation_is_mean_field_energy(self, name):
        ham = load_fcidump(DATA / name)
        fermion_h, core = to_fermion_hamiltonian(ham)
        h_p = jordan_wigner(fermion_h).restrict(
            sector_indices(ham.n_qubits, ham.n_electrons))
        ref = hartree_fock_reference(ham.n_qubits, ham.n_electrons)
        assert expectation(ref, h_p) + core == pytest.approx(
            mean_field_energy(ham), abs=1e-10)

    def test_jw_image_is_hermitian(self):
        ham = load_fcidump(DATA / "h2_r0.735.fcidump")
        fermion_h, _ = to_fermion_hamiltonian(ham)
        assert jordan_wigner(fermion_h).is_hermitian()

    def test_jw_image_conserves_particle_number(self):
        ham = load_fcidump(DATA / "h2_r0.735.fcidump")
        fermion_h, _ = to_fermion_hamiltonian(ham)
        h_p = jordan_wigner(fermion_h)
        assert len(commutator(h_p, number_operator(ham.n_qubits))) == 0


class TestValidation:
    def test_asymmetric_h1_rejected(self):
        h1 = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            MolecularHamiltonian(2, 2, 0.0, h1, np.zeros((2, 2, 2, 2)))

    def test_bad_electron_count_rejected(self):
        with pytest.raises(ValueError):
            MolecularHamiltonian(2, 5, 0.0, np.zeros((2, 2)),
                                 np.zeros((2, 2, 2, 2)))

    def test_odd_electron_count_rejected(self):
        with pytest.raises(OpenShellError, match="closed-shell"):
            MolecularHamiltonian(2, 1, 0.0, np.eye(2), np.zeros((2, 2, 2, 2)))

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError, match="14 qubits"):
            MolecularHamiltonian(7, 2, 0.0, np.eye(7),
                                 np.zeros((7, 7, 7, 7)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["core", "h1", "h2"])
    def test_non_finite_integral_rejected(self, field, value):
        core, h1, h2 = 0.0, np.eye(2), np.zeros((2, 2, 2, 2))
        if field == "core":
            core = value
        elif field == "h1":
            h1[1, 1] = value
        else:
            h2[1, 1, 1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            MolecularHamiltonian(2, 2, core, h1, h2)

    @pytest.mark.parametrize("field", ["h1", "h2"])
    def test_integral_above_the_cap_rejected(self, field):
        h1, h2 = np.eye(2), np.zeros((2, 2, 2, 2))
        (h1 if field == "h1" else h2).flat[0] = -2e4
        with pytest.raises(ValueError, match="at most 10000 Eh"):
            MolecularHamiltonian(2, 2, 0.0, h1, h2)
        MolecularHamiltonian(2, 2, 1e308, np.eye(2), np.zeros((2,) * 4))

    def test_asymmetric_h2_rejected(self):
        h2 = np.zeros((2, 2, 2, 2))
        h2[0, 1, 0, 0] = 0.3  # no symmetry partners filled
        with pytest.raises(ValueError):
            MolecularHamiltonian(2, 2, 0.0, np.zeros((2, 2)), h2)

    @pytest.mark.parametrize("entry", [(0, 1), (0, 1, 2, 3)])
    def test_asymmetry_within_tolerance_is_symmetrised(self, entry):
        # 5e-11 is inside SYMMETRY_TOL; the stored integrals are the exact
        # symmetric part, so the qubit Hamiltonian is exactly Hermitian
        ham = load_fcidump(DATA / "h4_r1.000.fcidump")
        h1, h2 = ham.h1.copy(), ham.h2.copy()
        (h1 if len(entry) == 2 else h2)[entry] += 5e-11
        near = MolecularHamiltonian(ham.n_spatial, ham.n_electrons,
                                    ham.core_energy, h1, h2)
        assert (near.h1 == near.h1.T).all()
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            assert (near.h2 == near.h2.transpose(perm)).all()
        assert solve_fci(QubitProblem(near)).energy == pytest.approx(
            solve_fci(QubitProblem(ham)).energy, rel=0, abs=1e-9)

    @pytest.mark.parametrize("entry", [(0, 1), (0, 1, 2, 3)])
    def test_asymmetry_is_absolute_not_relative(self, entry):
        # 1e-9 on an entry near 1 is inside numpy's default rtol of 1e-5
        h1, h2 = np.ones((4, 4)), np.ones((4, 4, 4, 4))
        (h1 if len(entry) == 2 else h2)[entry] += 1e-9
        with pytest.raises(ValueError, match="symmetr"):
            MolecularHamiltonian(4, 2, 0.0, h1, h2)
