"""VQE and ADAPT-VQE statevector simulator with an exact-diagonalization oracle.

Typical use::

    from vqebench import (AdaptConfig, QubitProblem, load_fcidump,
                          run_adapt, solve_fci)

    problem = QubitProblem(load_fcidump("h2.fcidump"))
    result = run_adapt(problem, AdaptConfig(optimizer="lbfgs"))
    exact = solve_fci(problem)
    print(result.energy - exact.energy)
"""

from .adapt import (
    AdaptConfig,
    MeasurementLedger,
    QubitProblem,
    RunResult,
    run_adapt,
    run_vqe,
    screen_pool,
    select_operator,
)
from .ansatz import (
    Ansatz,
    GateCircuit,
    PoolOperator,
    build_uccsd_pool,
    circuit_metrics,
    circuit_resources,
    compile_circuit,
    full_uccsd_ansatz,
    prepare_state,
    simulate_circuit,
)
from .fcidump import (
    MolecularHamiltonian,
    load_fcidump,
    parse_fcidump,
    to_fermion_hamiltonian,
)
from .fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
    jordan_wigner_each,
    verify_car,
)
from .fci import FciSolution, infidelity_vs_fci, solve_fci
from .optimize import (
    Objective,
    OptimizationResult,
    central_difference_gradient,
    minimize_lbfgs,
    minimize_nelder_mead,
)
from .pauli import PauliSum, to_matrix
from .statevector import (
    apply_operator,
    expectation,
    hartree_fock_reference,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig", "Ansatz", "FciSolution", "FermionOperator", "GateCircuit",
    "LadderProduct", "MeasurementLedger", "MolecularHamiltonian",
    "Objective", "OptimizationResult", "PauliSum", "PoolOperator",
    "QubitProblem", "RunResult",
    "anti_hermitian_pair", "apply_operator", "build_uccsd_pool",
    "central_difference_gradient", "circuit_metrics", "circuit_resources",
    "compile_circuit", "expectation", "full_uccsd_ansatz",
    "hartree_fock_reference", "infidelity_vs_fci", "jordan_wigner",
    "jordan_wigner_each", "load_fcidump", "minimize_lbfgs",
    "minimize_nelder_mead", "parse_fcidump", "prepare_state", "run_adapt",
    "run_vqe", "screen_pool", "select_operator", "simulate_circuit",
    "solve_fci", "to_fermion_hamiltonian", "to_matrix", "verify_car",
]
