"""The two interpretations of the event rules (Section 4 of the paper).

- :mod:`repro.interpretations.upward` -- the upward interpretation (§4.1):
  changes on derived predicates induced by a transaction of base events;
- :mod:`repro.interpretations.naive` -- the semantic oracle: materialise the
  old and the new state and diff them (definitions (1)/(2) directly);
- :mod:`repro.interpretations.counting` -- counting-based change
  computation ([GMS93]); recursive components are recomputed and diffed;
- :mod:`repro.interpretations.maintainers` -- the :class:`StateMaintainer`
  strategies that keep derived state warm across commits; serving engines
  always run counting, invalidate is the test oracle;
- :mod:`repro.interpretations.downward` -- the downward interpretation
  (§4.2): candidate transactions of base events that satisfy requested
  changes on derived predicates.
"""

from repro.interpretations.upward import (
    UpwardInterpreter,
    UpwardOptions,
    UpwardResult,
)
from repro.interpretations.counting import (
    CountingEngine,
    DeltaRule,
)
from repro.interpretations.maintainers import (
    CountingMaintainer,
    InvalidatingMaintainer,
    StateMaintainer,
)
from repro.interpretations.explanation import explain_event
from repro.interpretations.naive import naive_changes
from repro.interpretations.downward import (
    DownwardInterpreter,
    DownwardOptions,
    DownwardResult,
    Translation,
    forbid_delete,
    forbid_insert,
    want_delete,
    want_insert,
)

__all__ = [
    "CountingEngine",
    "CountingMaintainer",
    "DeltaRule",
    "DownwardInterpreter",
    "DownwardOptions",
    "DownwardResult",
    "InvalidatingMaintainer",
    "StateMaintainer",
    "Translation",
    "UpwardInterpreter",
    "UpwardOptions",
    "UpwardResult",
    "explain_event",
    "forbid_delete",
    "forbid_insert",
    "naive_changes",
    "want_delete",
    "want_insert",
]
