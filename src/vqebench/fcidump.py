"""FCIDUMP ingestion and spin-orbital Hamiltonian construction.

An FCIDUMP carries a namelist header (``&FCI NORB=..., NELEC=..., MS2=...``
terminated by ``&END`` or ``/``) followed by ``value i j k l`` records with
1-based spatial indices: ``i=j=k=l=0`` is the scalar core energy, ``k=l=0``
a one-electron element, anything else a two-electron integral in chemist
notation ``(ij|kl)``, set with its whole symmetry orbit (`_orbit`). Records
that set the same elements must agree within `DUPLICATE_TOL`.

This module alone decides which inputs are supported: at most `QUBIT_CAP`
qubits and an even electron count (`check_supported`), finite integrals,
one- and two-electron integrals of magnitude at most `INTEGRAL_CAP`, and,
in a header, ``0 < NELEC <= 2 * NORB`` and ``MS2`` 0 when given.
`parse_fcidump` checks the header before the ``NORB**4`` tensor is
allocated, and a `MolecularHamiltonian` checks itself on construction, so
one that exists is supported.
"""
from __future__ import annotations

import math
import re

import numpy as np

from .fermion import FermionOperator, LadderProduct
from .pauli import ResourceLimitError

QUBIT_CAP = 12
# Eh; sums of larger integrals can overflow while the Hamiltonian is
# compiled. The core energy never enters a matrix and is not capped.
INTEGRAL_CAP = 1e4
SYMMETRY_TOL = 1e-10
# the permutations that generate the 8-fold symmetry of real (ij|kl)
_H2_SYMMETRIES = ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1))
DUPLICATE_TOL = 1e-10


def _orbit(i, j, k, l):
    """The 8 index tuples equal to (ij|kl) for real integrals, (ij|kl)
    first; its `max` is the parser's key for duplicate records."""
    return ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i))


class FcidumpParseError(ValueError):
    """Malformed FCIDUMP content; carries the offending line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class FcidumpIntegrityError(ValueError):
    """Duplicate records disagree beyond tolerance."""


class OpenShellError(ValueError):
    """The input has an odd electron count; the UCCSD pool and the
    Hartree-Fock reference need a closed shell."""


def check_supported(n_spatial: int, n_electrons: int):
    """Raise ResourceLimitError above QUBIT_CAP qubits and OpenShellError
    for an odd electron count; both are input errors."""
    if 2 * n_spatial > QUBIT_CAP:
        raise ResourceLimitError(
            f"{2 * n_spatial} qubits exceeds the cap of {QUBIT_CAP}")
    if n_electrons % 2:
        raise OpenShellError(
            f"{n_electrons} electrons: the UCCSD pool needs a "
            "closed-shell reference")


class MolecularHamiltonian:
    """Spatial-orbital integrals plus metadata for one molecular system.

    ``h1`` is the one-electron matrix, ``h2`` the rank-4 two-electron
    tensor in chemist notation ``(ij|kl)``, both in Hartree. Each is kept
    as the exact symmetric part of the one given, which may break its
    symmetries by at most SYMMETRY_TOL.
    """

    __slots__ = ("n_spatial", "n_electrons", "core_energy", "h1", "h2",
                 "label")

    def __init__(self, n_spatial, n_electrons, core_energy, h1, h2,
                 label=""):
        self.n_spatial = int(n_spatial)
        self.n_electrons = int(n_electrons)
        self.core_energy = float(core_energy)
        self.h1 = np.asarray(h1, dtype=float)
        self.h2 = np.asarray(h2, dtype=float)
        self.label = label
        self._validate()
        # the exact symmetric parts, so that the Hamiltonian built from them
        # is exactly Hermitian; symmetric integrals keep their bits
        self.h1 = (self.h1 + self.h1.T) * 0.5
        for perm in _H2_SYMMETRIES:
            self.h2 = self.h2 + self.h2.transpose(perm)
        self.h2 *= 0.125

    def _validate(self):
        n = self.n_spatial
        if self.h1.shape != (n, n):
            raise ValueError(f"h1 shape {self.h1.shape} != ({n}, {n})")
        if self.h2.shape != (n, n, n, n):
            raise ValueError(f"h2 shape {self.h2.shape} != rank-4 over {n}")
        if not 0 < self.n_electrons <= 2 * n:
            raise ValueError(
                f"electron count {self.n_electrons} outside (0, {2 * n}]")
        check_supported(n, self.n_electrons)
        # nan and inf fail the comparisons with the cap as well
        if not (math.isfinite(self.core_energy)
                and np.abs(self.h1).max() <= INTEGRAL_CAP
                and np.abs(self.h2).max() <= INTEGRAL_CAP):
            raise ValueError("integrals must be finite, and the one- and "
                             f"two-electron ones at most {INTEGRAL_CAP:g} Eh")
        if not np.allclose(self.h1, self.h1.T, rtol=0, atol=SYMMETRY_TOL):
            raise ValueError("h1 is not symmetric")
        for perm in _H2_SYMMETRIES:
            if not np.allclose(self.h2, self.h2.transpose(perm), rtol=0,
                               atol=SYMMETRY_TOL):
                raise ValueError(
                    f"h2 violates permutational symmetry {perm}")

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_spatial

    def __repr__(self):
        return (f"MolecularHamiltonian({self.label or 'unlabeled'}: "
                f"{self.n_spatial} orbitals, {self.n_electrons} electrons)")


_HEADER_KEY = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z][A-Za-z0-9]*\s*=)|$)")


def _parse_header(lines):
    """Consume namelist lines; returns (fields, next_line_index)."""
    if not lines or not lines[0][1].lstrip().upper().startswith("&FCI"):
        line_no = lines[0][0] if lines else 1
        raise FcidumpParseError("expected '&FCI' namelist header", line_no)
    header_parts = []
    end_index = None
    for idx, (line_no, line) in enumerate(lines):
        text = line.strip()
        if idx == 0:
            text = text[4:]  # drop '&FCI'
        for terminator in ("&END", "/"):
            pos = text.upper().find(terminator)
            if pos >= 0:
                header_parts.append(text[:pos])
                end_index = idx
                break
        if end_index is not None:
            break
        header_parts.append(text)
    if end_index is None:
        raise FcidumpParseError("header never terminated by '&END' or '/'",
                                lines[-1][0])
    blob = " ".join(header_parts)
    fields = {}
    for key, value in _HEADER_KEY.findall(blob):
        fields[key.upper()] = value.strip().rstrip(",").strip()
    return fields, end_index + 1


def _header_int(fields, key, line_no):
    if key not in fields:
        raise FcidumpParseError(f"header missing {key}", line_no)
    try:
        return int(fields[key])
    except ValueError as exc:
        raise FcidumpParseError(f"bad {key} value {fields[key]!r}",
                                line_no) from exc


def parse_fcidump(text, label="") -> MolecularHamiltonian:
    """Parse FCIDUMP text (str or bytes) into a MolecularHamiltonian."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FcidumpParseError(
                f"non-ASCII byte {text[exc.start]:#04x}",
                text.count(b"\n", 0, exc.start) + 1) from exc
    numbered = [(no, line) for no, line in enumerate(text.splitlines(), 1)
                if line.strip()]
    fields, body_start = _parse_header(numbered)
    header_line = numbered[0][0]
    norb = _header_int(fields, "NORB", header_line)
    nelec = _header_int(fields, "NELEC", header_line)
    if norb <= 0:
        raise FcidumpParseError(f"NORB must be positive, got {norb}",
                                header_line)
    if not 0 < nelec <= 2 * norb:
        raise FcidumpParseError(
            f"NELEC must be in (0, {2 * norb}] for NORB={norb}, got {nelec}",
            header_line)
    if "MS2" in fields and _header_int(fields, "MS2", header_line) != 0:
        raise FcidumpParseError(
            f"MS2={fields['MS2']}: only closed-shell singlets (MS2=0) are "
            "supported", header_line)
    check_supported(norb, nelec)  # before the NORB**4 tensor is allocated

    core = 0.0
    h1 = np.zeros((norb, norb))
    h2 = np.zeros((norb, norb, norb, norb))
    seen: dict[tuple, tuple[float, int]] = {}

    def record(key, value, line_no):
        if key in seen:
            old, old_line = seen[key]
            if abs(old - value) > DUPLICATE_TOL:
                raise FcidumpIntegrityError(
                    f"line {line_no}: record {key} = {value!r} conflicts "
                    f"with line {old_line} value {old!r}")
        seen[key] = (value, line_no)

    for line_no, line in numbered[body_start:]:
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpParseError(
                f"expected 'value i j k l', got {line.strip()!r}", line_no)
        try:
            value = float(parts[0])
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise FcidumpParseError(f"bad record {line.strip()!r}",
                                    line_no) from exc
        if not math.isfinite(value):
            raise FcidumpParseError(f"non-finite value {parts[0]!r}",
                                    line_no)
        if (i, j, k, l) == (0, 0, 0, 0):
            record(("core",), value, line_no)
            core = value
            continue
        if abs(value) > INTEGRAL_CAP:
            raise FcidumpParseError(
                f"integral {parts[0]!r} exceeds the cap of "
                f"{INTEGRAL_CAP:g} Eh in magnitude", line_no)
        for name, idx in (("i", i), ("j", j), ("k", k), ("l", l)):
            if idx < 0 or idx > norb:
                raise FcidumpParseError(
                    f"index {name}={idx} outside [0, {norb}]", line_no)
        if k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpParseError(
                    f"one-electron record needs i, j >= 1, got {i} {j}",
                    line_no)
            record(("h1", *sorted((i, j), reverse=True)), value, line_no)
            h1[i - 1, j - 1] = value
            h1[j - 1, i - 1] = value
        else:
            if min(i, j, k, l) == 0:
                raise FcidumpParseError(
                    f"two-electron record needs all indices >= 1, "
                    f"got {i} {j} {k} {l}", line_no)
            orbit = _orbit(i, j, k, l)
            record(("h2", *max(orbit)), value, line_no)
            for p, q, r, s in orbit:
                h2[p - 1, q - 1, r - 1, s - 1] = value

    return MolecularHamiltonian(norb, nelec, core, h1, h2, label=label)


def load_fcidump(path, label=None) -> MolecularHamiltonian:
    with open(path, "rb") as fh:
        text = fh.read()
    return parse_fcidump(text, label=label if label is not None else str(path))


def to_fermion_hamiltonian(m: MolecularHamiltonian):
    """Second-quantized Hamiltonian over interleaved spin orbitals.

    Returns ``(operator, core_energy)``. Two-body terms carry the standard
    1/2 factor with physicist integrals ``<pq|rs> = (pr|qs)`` and
    spin-conservation constraints; the scalar core energy is reported
    separately and added to every energy downstream. The products come
    from the nonzero integrals, those of magnitude at least 1e-12, in C
    order of their indices: every ``h1[p, q]``, then every ``<pq|rs> / 2``.
    """
    products = []
    for p, q in np.argwhere(np.abs(m.h1) >= 1e-12).tolist():
        for spin in (0, 1):
            products.append(LadderProduct(
                [(2 * p + spin, True), (2 * q + spin, False)], m.h1[p, q]))
    two = 0.5 * m.h2.transpose(0, 2, 1, 3)  # two[p, q, r, s] = <pq|rs> / 2
    for p, q, r, s in np.argwhere(np.abs(two) >= 1e-12).tolist():
        for sp in (0, 1):
            for sq in (0, 1):
                products.append(LadderProduct(
                    [(2 * p + sp, True), (2 * q + sq, True),
                     (2 * s + sq, False), (2 * r + sp, False)],
                    two[p, q, r, s]))
    return FermionOperator(2 * m.n_spatial, products), m.core_energy
