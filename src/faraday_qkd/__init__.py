"""Exact simulator and security-analysis toolkit for a two-way QKD protocol
built on conditional-phase (Faraday-rotation) gates.

The top level re-exports only the names below; everything else is imported
from its module (``from faraday_qkd import batch``)."""

from .qstate import EquatorAngle
from .adversary import (
    EveDiscriminator,
    GeneralAttackSpec,
    PnsScenario,
    build_subspace_decomposition,
    eve_infer_keys,
    general_attack_hooks,
    impersonation_one_home,
    impersonation_two_homes,
    intercept_resend_hooks,
    make_ancilla_pair,
    one_home_state,
    pns_build,
    pns_leakage,
)
from .harness import (
    AttackChoice,
    ExperimentConfig,
    emit_curves,
    parse_attack,
    run_experiment,
    solve_report,
)

__version__ = "0.1.0"
