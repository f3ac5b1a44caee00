"""State of the separable input-first switch allocator.

The paper's configuration (Table I) uses a separable input-first allocator:

1. *input stage*: each input port selects which of its ready VCs bid for
   the crossbar this cycle.  Ordinary ports select one VC; an injection
   port with crossbar speedup ``S`` (ARI, Sec. 4.2) may select up to ``S``
   VCs targeting *distinct* output ports.
2. *output stage*: each output port grants one of the bidding inputs.

Both stages compare the ARI priority field first (Sec. 5) and break ties
round-robin.  The arbitration itself is generated into each router's
step (:mod:`repro.noc.stepgen`), fused into its rotated sweep; this
module holds the per-router state it reads and writes: one
:class:`RoundRobinArbiter` pointer per input and per output, and the
per-input speedups.
"""

from __future__ import annotations

from typing import Dict, Optional


class RoundRobinArbiter:
    """Rotating-priority pointer over ``size`` requesters.

    ``_next`` is the requester that wins the next tie; a grant moves it
    just past the winner.
    """

    __slots__ = ("size", "_next")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("arbiter size must be >= 1")
        self.size = size
        self._next = 0


class SwitchAllocator:
    """Arbiters and speedups of one router's two-stage switch allocator.

    Parameters
    ----------
    num_in, num_out:
        Port counts of the crossbar.
    num_vcs:
        VCs per input port (sizes the input-stage arbiters).
    speedups:
        Per-input-port crossbar speedup (number of switch ports assigned to
        that input).  Defaults to 1 everywhere; ARI raises the injection
        port's entry.
    """

    def __init__(
        self,
        num_in: int,
        num_out: int,
        num_vcs: int,
        speedups: Optional[Dict[int, int]] = None,
    ) -> None:
        self.num_in = num_in
        self.num_out = num_out
        self.num_vcs = num_vcs
        self.speedups = dict(speedups or {})
        self._input_arbiters = [RoundRobinArbiter(num_vcs) for _ in range(num_in)]
        self._output_arbiters = [RoundRobinArbiter(num_in) for _ in range(num_out)]
