"""faircheck: a finite-state verification kit for event systems.

Set-transformer semantics for guarded events (including fair choice), fair
iteration with its fixpoint characterizations, ensures and leads-to proof
obligations with refinement preservation, a small proof-script checker, and
an independent semantic oracle for liveness under weak fairness.
"""

__version__ = "0.1.0"

from .commands import (
    Choice,
    Command,
    Dovetail,
    Guard,
    Precond,
    Prim,
    Seq,
    Skip,
    choice_of,
    conjunctivity_check,
    grd_of,
    liberal_apply,
    magic,
    pairing_check,
    pre_of,
    str_apply,
    transition_relation,
)
from .fairloop import (
    FairLoop,
    check_termination_lemma,
    check_total_correctness,
    loop_functional,
    loop_guard,
    loop_liberal,
    loop_pre,
    loop_str,
)
from .fixpoint import (
    NonMonotoneFunctionError,
    SetFunction,
    gfp,
    iterate_chain,
    lfp,
    monotone_check,
)
from .obligations import (
    EngineDefect,
    EnsuresProperty,
    EventSystem,
    ModelError,
    ObligationReport,
    check_ensures,
    check_wf0,
    check_wf1,
    split_system,
)
from .refinement import (
    LipEvidence,
    RefinementPair,
    check_all_event_refinements,
    check_event_refinement,
    check_refined_ensures,
    check_sap,
    concrete_property,
    derived_inclusions,
    discharge_lip_with_oracle,
    lip_goal,
)
from .sets import SpaceMismatchError, StateRelation, StateSet, StateSpace
from .unity import (
    FairLasso,
    LeadsTo,
    OracleResult,
    ProofScript,
    ProofStep,
    RuleError,
    ScriptEnv,
    Unless,
    apply_rule,
    check_script,
    check_thlto,
    check_unless,
    semantic_leadsto,
    trivial_ensures,
)
