from .axioms import axiom_instance
from .checker import CheckResult, check_proof
from ..defs import DEFINED_OPS, definiens, match_definiens, rewrite
from .io import (
    load_proof,
    proof_from_json,
    proof_from_text,
    proof_to_dict,
    proof_to_json,
    proof_to_text,
)
from .prover import (
    GENERATOR_ATOM_LIMIT,
    MAX_PROOF_LINES,
    main_result_goals,
    prove_by_cases,
    prove_main_results,
    prove_tautology,
    regrouping_goals,
)
from .objects import (
    AxiomJust,
    DefJust,
    Direction,
    Justification,
    MPJust,
    Proof,
    ProofLine,
    axiom_just,
)
