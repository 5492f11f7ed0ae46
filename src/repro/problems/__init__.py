"""The deductive database updating problems of Section 5.

Every problem is a thin, executable specification over the two
interpretations -- which is the paper's whole point: "by considering only a
unique set of rules for specifying all these problems ... it is possible to
provide general methods able to deal with all these problems as a whole".

Upward problems (§5.1):

- :mod:`repro.problems.ic_checking` -- integrity constraint checking and
  consistency-restoration checking;
- :mod:`repro.problems.condition_monitoring` -- condition monitoring;
- :mod:`repro.problems.view_maintenance` -- materialized view maintenance.

Downward problems (§5.2):

- :mod:`repro.problems.view_updating` -- view updating;
- :mod:`repro.problems.view_validation` -- view validation;
- :mod:`repro.problems.side_effects` -- preventing side effects;
- :mod:`repro.problems.repair` -- repairing inconsistent databases;
- :mod:`repro.problems.satisfiability` -- IC satisfiability and ensuring IC
  satisfaction;
- :mod:`repro.problems.ic_maintenance` -- IC maintenance (and maintaining
  inconsistency);
- :mod:`repro.problems.condition_activation` -- enforcing / validating /
  preventing condition activation.

Combinations (§5.3) live in :mod:`repro.problems.combined`, and the
classification of Table 4.1 is generated by
:mod:`repro.problems.classification`.
"""

from repro.problems.base import (
    Direction,
    PredicateSemantics,
    ProblemSpec,
    StateError,
    problem_registry,
)
from repro.problems.classification import classification_table, render_table_4_1
from repro.problems.ic_checking import (
    ICCheckResult,
    check_restores_consistency,
    check_transaction,
    current_violations,
    is_consistent,
)
from repro.problems.condition_monitoring import ConditionChanges, monitor_conditions
from repro.problems.view_maintenance import ViewDeltas, view_maintenance_deltas
from repro.problems.view_updating import ViewUpdateResult, translate_view_update
from repro.problems.view_validation import ValidationResult, validate_view
from repro.problems.side_effects import prevent_side_effects
from repro.problems.repair import RepairResult, repair_database
from repro.problems.satisfiability import (
    SatisfiabilityResult,
    can_reach_inconsistency,
    constraints_satisfiable,
)
from repro.problems.ic_maintenance import maintain_inconsistency, maintain_transaction
from repro.problems.condition_activation import (
    enforce_condition,
    prevent_condition_activation,
    validate_condition,
)
from repro.problems.combined import downward_then_upward, downward_set, upward_set

__all__ = [
    "ConditionChanges",
    "Direction",
    "ICCheckResult",
    "PredicateSemantics",
    "ProblemSpec",
    "RepairResult",
    "SatisfiabilityResult",
    "StateError",
    "ValidationResult",
    "ViewDeltas",
    "ViewUpdateResult",
    "can_reach_inconsistency",
    "check_restores_consistency",
    "check_transaction",
    "classification_table",
    "constraints_satisfiable",
    "current_violations",
    "downward_set",
    "downward_then_upward",
    "enforce_condition",
    "is_consistent",
    "maintain_inconsistency",
    "maintain_transaction",
    "monitor_conditions",
    "prevent_condition_activation",
    "prevent_side_effects",
    "problem_registry",
    "render_table_4_1",
    "repair_database",
    "translate_view_update",
    "upward_set",
    "validate_condition",
    "validate_view",
    "view_maintenance_deltas",
]
