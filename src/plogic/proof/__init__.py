from .axioms import SCHEMA_METAVARS, axiom_instance
from .checker import CheckResult, check_proof
from ..defs import DEFINED_OPS, definiens, match_definiens
from .io import (
    load_proof,
    proof_from_dict,
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
    prove_main_results,
    prove_tautology,
)
from .objects import (
    AxiomJust,
    DefJust,
    Direction,
    Justification,
    MPJust,
    PremiseJust,
    Proof,
    ProofLine,
    axiom_just,
)

__all__ = [
    "SCHEMA_METAVARS",
    "axiom_instance",
    "CheckResult",
    "check_proof",
    "DEFINED_OPS",
    "definiens",
    "match_definiens",
    "load_proof",
    "proof_from_dict",
    "proof_from_json",
    "proof_from_text",
    "proof_to_dict",
    "proof_to_json",
    "proof_to_text",
    "GENERATOR_ATOM_LIMIT",
    "MAX_PROOF_LINES",
    "main_result_goals",
    "prove_main_results",
    "prove_tautology",
    "AxiomJust",
    "DefJust",
    "Direction",
    "Justification",
    "MPJust",
    "PremiseJust",
    "Proof",
    "ProofLine",
    "axiom_just",
]
