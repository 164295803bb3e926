#!/usr/bin/env python3
"""Generate STO-3G FCIDUMP test data and frozen reference energies.

Standalone electronic-structure mini-stack (deliberately independent of the
vqebench package): McMurchie-Davidson integrals over contracted s/p
Gaussians, restricted Hartree-Fock with DIIS, CASCI active-space reduction,
and a determinant-based full CI used as the independent energy oracle.

Writes tests/data/<system>_r<??>.fcidump (H2 and NaH curves, one linear H4
chain) plus reference_energies.json, and tests/data/h6/h6_r1.000.fcidump (a
12-qubit linear H6 chain, whose determinant-CI energy is printed and pinned
in the tests rather than frozen in the JSON).

Usage: python3 scripts/make_reference_data.py [--out tests/data]
"""
from __future__ import annotations

import argparse
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.special import hyp1f1

BOHR_PER_ANGSTROM = 1.0 / 0.52917721092

# STO-3G contraction data (Basis Set Exchange); each shell is
# (angular kind, [exponents], [s coefficients], [p coefficients or None]).
BASIS_STO3G = {
    "H": [
        ("S", [3.42525091, 0.62391373, 0.16885540],
         [0.15432897, 0.53532814, 0.44463454], None),
    ],
    "Na": [
        ("S", [250.7724300, 45.6785110, 12.3623880],
         [0.1543289673, 0.5353281423, 0.4446345422], None),
        ("SP", [12.0401930, 2.7978819, 0.9099580],
         [-0.09996722919, 0.3995128261, 0.7001154689],
         [0.1559162750, 0.6076837186, 0.3919573931]),
        ("SP", [1.4787406, 0.4125649, 0.1614751],
         [-0.2196203690, 0.2255954336, 0.9003984260],
         [0.01058760429, 0.5951670053, 0.4620010120]),
    ],
}

CHARGES = {"H": 1, "Na": 11}


# --------------------------------------------------------------------------
# Contracted Gaussian machinery
# --------------------------------------------------------------------------

def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class ContractedGaussian:
    """Normalized contracted Cartesian Gaussian x^l y^m z^n exp(-a r^2)."""

    def __init__(self, center, lmn, exponents, coefficients):
        self.center = np.asarray(center, dtype=float)
        self.lmn = tuple(lmn)
        self.exponents = np.asarray(exponents, dtype=float)
        l, m, n = self.lmn
        norms = []
        for a in self.exponents:
            norms.append(math.sqrt(
                (2 * a / math.pi) ** 1.5 * (4 * a) ** (l + m + n)
                / (double_factorial(2 * l - 1)
                   * double_factorial(2 * m - 1)
                   * double_factorial(2 * n - 1))))
        self.coefficients = np.asarray(coefficients, dtype=float) * norms
        # renormalize the contracted function
        self_overlap = 0.0
        for a, ca in zip(self.exponents, self.coefficients):
            for b, cb in zip(self.exponents, self.coefficients):
                self_overlap += ca * cb * _primitive_overlap(
                    a, self.lmn, self.center, b, self.lmn, self.center)
        self.coefficients /= math.sqrt(self_overlap)


def hermite_coefficients(i, j, t, qx, a, b):
    """McMurchie-Davidson expansion coefficient E_t^{ij} along one axis."""
    p = a + b
    mu = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return math.exp(-mu * qx * qx)
    if j == 0:
        return (hermite_coefficients(i - 1, j, t - 1, qx, a, b) / (2 * p)
                - mu * qx / a * hermite_coefficients(i - 1, j, t, qx, a, b)
                + (t + 1) * hermite_coefficients(i - 1, j, t + 1, qx, a, b))
    return (hermite_coefficients(i, j - 1, t - 1, qx, a, b) / (2 * p)
            + mu * qx / b * hermite_coefficients(i, j - 1, t, qx, a, b)
            + (t + 1) * hermite_coefficients(i, j - 1, t + 1, qx, a, b))


def _primitive_overlap(a, lmn1, pa, b, lmn2, pb):
    p = a + b
    out = (math.pi / p) ** 1.5
    for axis in range(3):
        out *= hermite_coefficients(lmn1[axis], lmn2[axis], 0,
                                    pa[axis] - pb[axis], a, b)
    return out


def _primitive_kinetic(a, lmn1, pa, b, lmn2, pb):
    l2, m2, n2 = lmn2
    term = b * (2 * (l2 + m2 + n2) + 3) * _primitive_overlap(
        a, lmn1, pa, b, lmn2, pb)
    for axis, inc in ((0, (2, 0, 0)), (1, (0, 2, 0)), (2, (0, 0, 2))):
        up = tuple(lmn2[k] + inc[k] for k in range(3))
        term += -2.0 * b * b * _primitive_overlap(a, lmn1, pa, b, up, pb)
        if lmn2[axis] >= 2:
            down = tuple(lmn2[k] - inc[k] for k in range(3))
            term += (-0.5 * lmn2[axis] * (lmn2[axis] - 1)
                     * _primitive_overlap(a, lmn1, pa, b, down, pb))
    return term


def boys(n, x):
    return hyp1f1(n + 0.5, n + 1.5, -x) / (2.0 * n + 1.0)


def hermite_coulomb(t, u, v, n, p, pc):
    """Auxiliary Hermite Coulomb integral R^n_{tuv}."""
    if t == u == v == 0:
        return (-2.0 * p) ** n * boys(n, p * float(np.dot(pc, pc)))
    if t > 0:
        out = 0.0
        if t > 1:
            out += (t - 1) * hermite_coulomb(t - 2, u, v, n + 1, p, pc)
        out += pc[0] * hermite_coulomb(t - 1, u, v, n + 1, p, pc)
        return out
    if u > 0:
        out = 0.0
        if u > 1:
            out += (u - 1) * hermite_coulomb(t, u - 2, v, n + 1, p, pc)
        out += pc[1] * hermite_coulomb(t, u - 1, v, n + 1, p, pc)
        return out
    out = 0.0
    if v > 1:
        out += (v - 1) * hermite_coulomb(t, u, v - 2, n + 1, p, pc)
    out += pc[2] * hermite_coulomb(t, u, v - 1, n + 1, p, pc)
    return out


def _primitive_nuclear(a, lmn1, pa, b, lmn2, pb, nucleus):
    p = a + b
    pcenter = (a * pa + b * pb) / p
    pc = pcenter - nucleus
    l1, m1, n1 = lmn1
    l2, m2, n2 = lmn2
    ab = pa - pb
    out = 0.0
    for t in range(l1 + l2 + 1):
        et = hermite_coefficients(l1, l2, t, ab[0], a, b)
        if et == 0.0:
            continue
        for u in range(m1 + m2 + 1):
            eu = hermite_coefficients(m1, m2, u, ab[1], a, b)
            if eu == 0.0:
                continue
            for v in range(n1 + n2 + 1):
                ev = hermite_coefficients(n1, n2, v, ab[2], a, b)
                if ev == 0.0:
                    continue
                out += et * eu * ev * hermite_coulomb(t, u, v, 0, p, pc)
    return 2.0 * math.pi / p * out


def _primitive_eri(a, la, pa, b, lb, pb, c, lc, pc_, d, ld, pd):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    pcenter = (a * pa + b * pb) / p
    qcenter = (c * pc_ + d * pd) / q
    pq = pcenter - qcenter
    ab = pa - pb
    cd = pc_ - pd
    e1 = [[hermite_coefficients(la[ax], lb[ax], t, ab[ax], a, b)
           for t in range(la[ax] + lb[ax] + 1)] for ax in range(3)]
    e2 = [[hermite_coefficients(lc[ax], ld[ax], t, cd[ax], c, d)
           for t in range(lc[ax] + ld[ax] + 1)] for ax in range(3)]
    out = 0.0
    for t in range(la[0] + lb[0] + 1):
        for u in range(la[1] + lb[1] + 1):
            for v in range(la[2] + lb[2] + 1):
                f1 = e1[0][t] * e1[1][u] * e1[2][v]
                if f1 == 0.0:
                    continue
                for tt in range(lc[0] + ld[0] + 1):
                    for uu in range(lc[1] + ld[1] + 1):
                        for vv in range(lc[2] + ld[2] + 1):
                            f2 = e2[0][tt] * e2[1][uu] * e2[2][vv]
                            if f2 == 0.0:
                                continue
                            sign = (-1.0) ** (tt + uu + vv)
                            out += f1 * f2 * sign * hermite_coulomb(
                                t + tt, u + uu, v + vv, 0, alpha, pq)
    return out * 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))


def contracted(fn, bfs, *extra):
    """Contract a primitive integral over 2 or 4 basis functions."""
    if len(bfs) == 2:
        f, g = bfs
        out = 0.0
        for a, ca in zip(f.exponents, f.coefficients):
            for b, cb in zip(g.exponents, g.coefficients):
                out += ca * cb * fn(a, f.lmn, f.center, b, g.lmn, g.center,
                                    *extra)
        return out
    f, g, h, k = bfs
    out = 0.0
    for a, ca in zip(f.exponents, f.coefficients):
        for b, cb in zip(g.exponents, g.coefficients):
            for c, cc in zip(h.exponents, h.coefficients):
                for d, cd in zip(k.exponents, k.coefficients):
                    out += ca * cb * cc * cd * fn(
                        a, f.lmn, f.center, b, g.lmn, g.center,
                        c, h.lmn, h.center, d, k.lmn, k.center)
    return out


def build_basis(atoms):
    bfs = []
    for symbol, center in atoms:
        for kind, exps, s_coeffs, p_coeffs in BASIS_STO3G[symbol]:
            bfs.append(ContractedGaussian(center, (0, 0, 0), exps, s_coeffs))
            if kind == "SP":
                for lmn in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    bfs.append(ContractedGaussian(center, lmn, exps,
                                                  p_coeffs))
    return bfs


def ao_integrals(atoms):
    bfs = build_basis(atoms)
    n = len(bfs)
    s = np.zeros((n, n))
    t = np.zeros((n, n))
    v = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s[i, j] = s[j, i] = contracted(_primitive_overlap,
                                           (bfs[i], bfs[j]))
            t[i, j] = t[j, i] = contracted(_primitive_kinetic,
                                           (bfs[i], bfs[j]))
            vij = 0.0
            for symbol, center in atoms:
                vij -= CHARGES[symbol] * contracted(
                    _primitive_nuclear, (bfs[i], bfs[j]),
                    np.asarray(center, dtype=float))
            v[i, j] = v[j, i] = vij
    eri = np.zeros((n, n, n, n))
    pair_list = [(i, j) for i in range(n) for j in range(i + 1)]
    for idx, (i, j) in enumerate(pair_list):
        for k, l in pair_list[:idx + 1]:
            value = contracted(_primitive_eri, (bfs[i], bfs[j], bfs[k],
                                                bfs[l]))
            for p, q, r, w in ((i, j, k, l), (j, i, k, l), (i, j, l, k),
                               (j, i, l, k), (k, l, i, j), (l, k, i, j),
                               (k, l, j, i), (l, k, j, i)):
                eri[p, q, r, w] = value
    return s, t + v, eri


def nuclear_repulsion(atoms):
    out = 0.0
    for (sym1, c1), (sym2, c2) in combinations(atoms, 2):
        out += (CHARGES[sym1] * CHARGES[sym2]
                / float(np.linalg.norm(np.asarray(c1) - np.asarray(c2))))
    return out


# --------------------------------------------------------------------------
# Restricted Hartree-Fock with DIIS
# --------------------------------------------------------------------------

def run_rhf(s, hcore, eri, n_electrons, e_nuc, max_cycles=200,
            conv=1e-12):
    n_occ = n_electrons // 2
    s_eval, s_evec = np.linalg.eigh(s)
    x = s_evec @ np.diag(s_eval ** -0.5) @ s_evec.T

    def density(fock):
        f_prime = x.T @ fock @ x
        _, c_prime = np.linalg.eigh(f_prime)
        c = x @ c_prime
        occ = c[:, :n_occ]
        return 2.0 * occ @ occ.T, c

    dm, c = density(hcore)
    energy = 0.0
    fock_history, err_history = [], []
    for _ in range(max_cycles):
        j = np.einsum("pqrs,rs->pq", eri, dm)
        k = np.einsum("prqs,rs->pq", eri, dm)
        fock = hcore + j - 0.5 * k
        err = fock @ dm @ s - s @ dm @ fock
        fock_history.append(fock)
        err_history.append(err)
        if len(fock_history) > 8:
            fock_history.pop(0)
            err_history.pop(0)
        if len(fock_history) > 1:
            m = len(fock_history)
            b = -np.ones((m + 1, m + 1))
            b[m, m] = 0.0
            for i in range(m):
                for jdx in range(m):
                    b[i, jdx] = np.sum(err_history[i] * err_history[jdx])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            try:
                weights = np.linalg.solve(b, rhs)[:m]
                fock = sum(w * f for w, f in zip(weights, fock_history))
            except np.linalg.LinAlgError:
                pass
        dm, c = density(fock)
        j = np.einsum("pqrs,rs->pq", eri, dm)
        k = np.einsum("prqs,rs->pq", eri, dm)
        new_energy = float(np.sum(dm * (hcore + 0.5 * j - 0.25 * k))) + e_nuc
        if abs(new_energy - energy) < conv:
            energy = new_energy
            break
        energy = new_energy
    mo_energies = np.diag(c.T @ (hcore + j - 0.5 * k) @ c)
    return energy, c, np.asarray(mo_energies)


# --------------------------------------------------------------------------
# CASCI reduction and determinant FCI oracle
# --------------------------------------------------------------------------

def cas_integrals(hcore_ao, eri_ao, c, e_nuc, n_core, n_active):
    """Active-space (h1eff, h2, core_energy) over CASCI frozen core."""
    h_mo = c.T @ hcore_ao @ c
    eri_mo = np.einsum("pqrs,pi,qj,rk,sl->ijkl", eri_ao, c, c, c, c,
                       optimize=True)
    core = list(range(n_core))
    active = list(range(n_core, n_core + n_active))
    e_core = e_nuc
    for i in core:
        e_core += 2.0 * h_mo[i, i]
        for j in core:
            e_core += 2.0 * eri_mo[i, i, j, j] - eri_mo[i, j, j, i]
    h1eff = np.zeros((n_active, n_active))
    for ui, u in enumerate(active):
        for vi, v in enumerate(active):
            val = h_mo[u, v]
            for i in core:
                val += 2.0 * eri_mo[u, v, i, i] - eri_mo[u, i, i, v]
            h1eff[ui, vi] = val
    h2act = eri_mo[np.ix_(active, active, active, active)]
    return h1eff, h2act, e_core


def determinant_fci(h1, h2, n_electrons):
    """Lowest eigenvalue over all n-electron determinants (Slater-Condon).

    Spin orbital 2m = alpha, 2m+1 = beta of spatial orbital m. Uses
    physicist antisymmetrized elements from chemist-notation h2.
    """
    n_spatial = h1.shape[0]
    n_so = 2 * n_spatial

    def h_so(p, q):
        if p % 2 != q % 2:
            return 0.0
        return h1[p // 2, q // 2]

    def coulomb(p, q, r, s):
        # <pq|rs> = (pr|qs) with spin matching p~r, q~s
        if p % 2 != r % 2 or q % 2 != s % 2:
            return 0.0
        return h2[p // 2, r // 2, q // 2, s // 2]

    def anti(p, q, r, s):
        return coulomb(p, q, r, s) - coulomb(p, q, s, r)

    dets = list(combinations(range(n_so), n_electrons))
    index = {d: i for i, d in enumerate(dets)}
    dim = len(dets)
    mat = np.zeros((dim, dim))

    def sign_of_alignment(det, removed, added):
        """Parity for exciting sorted det by removed->added orbitals."""
        occ = list(det)
        sign = 1
        for r, a in zip(removed, added):
            pos = occ.index(r)
            sign *= (-1) ** pos
            occ.pop(pos)
            ins = 0
            while ins < len(occ) and occ[ins] < a:
                ins += 1
            sign *= (-1) ** ins
            occ.insert(ins, a)
        return sign, tuple(occ)

    for di, det in enumerate(dets):
        occ = set(det)
        # diagonal
        val = sum(h_so(p, p) for p in det)
        val += 0.5 * sum(anti(p, q, p, q) for p in det for q in det)
        mat[di, di] = val
        # singles
        for p in det:
            for a in range(n_so):
                if a in occ:
                    continue
                sign, new = sign_of_alignment(det, (p,), (a,))
                val = h_so(a, p) + sum(anti(a, q, p, q) for q in det
                                       if q != p)
                mat[index[new], di] += sign * val
        # doubles
        for p, q in combinations(det, 2):
            for a, b in combinations(
                    [o for o in range(n_so) if o not in occ], 2):
                sign, new = sign_of_alignment(det, (p, q), (a, b))
                mat[index[new], di] += sign * anti(a, b, p, q)
    eigenvalues = np.linalg.eigvalsh(mat)
    return float(eigenvalues[0])


# --------------------------------------------------------------------------
# FCIDUMP writer (script-local, kept independent of the package)
# --------------------------------------------------------------------------

def format_fcidump(h1, h2, core, n_electrons):
    n = h1.shape[0]
    lines = [f"&FCI NORB={n},NELEC={n_electrons},MS2=0,",
             f" ORBSYM={','.join('1' for _ in range(n))},",
             " ISYM=1,", "&END"]
    seen = set()
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    ij = (i, j) if i >= j else (j, i)
                    kl = (k, l) if k >= l else (l, k)
                    key = max(ij + kl, kl + ij)
                    if key in seen:
                        continue
                    seen.add(key)
                    value = h2[i, j, k, l]
                    if value == 0.0:
                        continue
                    a, b, c, d = key
                    lines.append(
                        f" {value:.17g} {a + 1} {b + 1} {c + 1} {d + 1}")
    for i in range(n):
        for j in range(i + 1):
            if h1[i, j] != 0.0:
                lines.append(f" {h1[i, j]:.17g} {i + 1} {j + 1} 0 0")
    lines.append(f" {core:.17g} 0 0 0 0")
    return "\n".join(lines) + "\n"


def active_space_hf_energy(h1, h2, core, n_electrons):
    occ = range(n_electrons // 2)
    e = core
    for i in occ:
        e += 2.0 * h1[i, i]
        for j in occ:
            e += 2.0 * h2[i, i, j, j] - h2[i, j, j, i]
    return e


def make_system(atoms, n_electrons_total, n_active, label,
                n_active_electrons=2):
    """CASCI(n_active_electrons, n_active) over canonical RHF orbitals; the
    remaining electrons fill a frozen doubly occupied core."""
    e_nuc = nuclear_repulsion(atoms)
    s, hcore, eri = ao_integrals(atoms)
    e_scf, c, _ = run_rhf(s, hcore, eri, n_electrons_total, e_nuc)
    n_core = (n_electrons_total - n_active_electrons) // 2
    h1eff, h2act, e_core = cas_integrals(hcore, eri, c, e_nuc, n_core,
                                         n_active)
    e_fci = determinant_fci(h1eff, h2act, n_active_electrons) + e_core
    return {
        "label": label,
        "scf_energy": e_scf,
        "fci_energy": e_fci,
        "hf_determinant_energy": active_space_hf_energy(
            h1eff, h2act, e_core, n_active_electrons),
        "text": format_fcidump(h1eff, h2act, e_core, n_active_electrons),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="tests/data", type=Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    reference = {}

    def emit(name, system):
        (args.out / name).write_text(system.pop("text"))
        reference[name] = system
        print(f"{name}: SCF {system['scf_energy']:.9f}  "
              f"FCI {system['fci_energy']:.9f}")

    # 0.1 A grids reconstruct the visible figure ranges; they are not
    # published grids.
    h2_distances = [round(0.5 + 0.1 * k, 2) for k in range(21)] + [0.735]
    for r in h2_distances:
        atoms = [("H", (0.0, 0.0, 0.0)),
                 ("H", (0.0, 0.0, r * BOHR_PER_ANGSTROM))]
        emit(f"h2_r{r:.3f}.fcidump",
             make_system(atoms, 2, 2, f"H2 r={r:.3f} A"))

    nah_distances = [round(1.0 + 0.1 * k, 2) for k in range(21)]
    for r in nah_distances:
        atoms = [("Na", (0.0, 0.0, 0.0)),
                 ("H", (0.0, 0.0, r * BOHR_PER_ANGSTROM))]
        emit(f"nah_r{r:.3f}.fcidump",
             make_system(atoms, 12, 2, f"NaH CAS(2,2) r={r:.3f} A"))

    # Linear H4 chain, every orbital active: 8 qubits, 19 pool operators.
    r = 1.0
    step = r * BOHR_PER_ANGSTROM
    atoms = [("H", (0.0, 0.0, k * step)) for k in range(4)]
    emit(f"h4_r{r:.3f}.fcidump",
         make_system(atoms, 4, 4, f"H4 chain r={r:.3f} A",
                     n_active_electrons=4))

    with open(args.out / "reference_energies.json", "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out / 'reference_energies.json'}")

    # Linear H6 chain, every orbital active: 12 qubits, 81 pool operators.
    # It sits in a subdirectory, apart from the inputs whose tests build
    # dense 2**n matrices.
    atoms = [("H", (0.0, 0.0, k * step)) for k in range(6)]
    h6 = make_system(atoms, 6, 6, f"H6 chain r={r:.3f} A",
                     n_active_electrons=6)
    (args.out / "h6").mkdir(exist_ok=True)
    (args.out / "h6" / f"h6_r{r:.3f}.fcidump").write_text(h6["text"])
    print(f"h6/h6_r{r:.3f}.fcidump: SCF {h6['scf_energy']:.9f}  "
          f"FCI {h6['fci_energy']!r}")


if __name__ == "__main__":
    main()
