"""Job lifecycle table seeded with RPR011 findings (fixture).

``queued`` can no longer be shed (drain would strand it) and the terminal
``cancelled`` grows an edge back to ``queued``.
"""

JOB_STATUSES = (
    "queued", "running", "converged", "failed", "shed", "cancelled",
)
TERMINAL_STATUSES = ("converged", "failed", "shed", "cancelled")

_TRANSITIONS = {
    "queued": ("running", "cancelled"),
    "running": ("converged", "failed", "shed", "cancelled"),
    "cancelled": ("queued",),
}


class JobRecord:
    def __init__(self):
        self.status = "queued"

    def transition(self, status):
        if status not in _TRANSITIONS.get(self.status, ()):
            raise ValueError(f"illegal {self.status} -> {status}")
        self.status = status
