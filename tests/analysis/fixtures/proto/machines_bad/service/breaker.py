"""Breaker table seeded with an RPR011 finding (fixture).

A tripped circuit bounces between ``open`` and ``half-open`` forever: no
edge leads back to ``closed``.
"""

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

BREAKER_STATES = (CLOSED, OPEN, HALF_OPEN)

_TRANSITIONS = {
    CLOSED: (OPEN,),
    OPEN: (HALF_OPEN,),
    HALF_OPEN: (OPEN,),
}


class _Circuit:
    def __init__(self):
        self.state = CLOSED

    def move(self, state):
        if state not in _TRANSITIONS[self.state]:
            raise ValueError(state)
        self.state = state
