"""Rank supervisor seeded with RPR011 findings (fixture).

No edge enters SUSPECT (unreachable), and SUSPECT has no way to DEAD
(stranded away from every terminal); ``record_ready`` writes the state
without consulting the table.  ``__init__`` and the declared reset
``record_spawn`` write the initial state, which is allowed.
"""

SPAWNED = "spawned"
READY = "ready"
SUSPECT = "suspect"
DEAD = "dead"

RANK_STATES = (SPAWNED, READY, SUSPECT, DEAD)

_TRANSITIONS = {
    SPAWNED: (READY, DEAD),
    READY: (READY, DEAD),
    SUSPECT: (SUSPECT,),
}


class RankSupervisor:
    def __init__(self):
        self.state = SPAWNED

    def _enter(self, state):
        if self.state not in _TRANSITIONS:
            return False
        self.state = state
        return True

    def record_spawn(self):
        self.state = SPAWNED

    def record_ready(self):
        self.state = READY

    def record_exit(self):
        self._enter(DEAD)
