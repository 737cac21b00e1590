"""State-machine replication over EpTO (the paper's §1.1 motivation).

Includes the §8.3 *corrective delivery* extension
(:class:`CorrectableReplica`) implementing unconscious eventual
consistency for perturbed replicas.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".corrective": ("CorrectableReplica", "Correction"),
        ".machine": ("AppendLog", "Counter", "KeyValueStore", "StateMachine"),
        ".replica": (
            "ConvergenceReport", "MachineFactory", "Replica",
            "ReplicatedService",
        ),
    },
)
