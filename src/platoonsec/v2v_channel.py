"""The V2V channel: where the attack bias and jamming enter an iteration round.

During every iteration round of a control step, each vehicle (leader
included) broadcasts its predicted position and velocity forward to its
immediate follower, then every follower except the first sends its spacing
terms backward to its predecessor.  The leader never receives backward
traffic, and the leader-to-first-follower link is trusted: it is never
biased, though a drop rule can still jam it.  ``senders(direction, n)`` is
the one statement of who sends in each direction.

A ``V2VChannel`` belongs to one control step and holds what is in force
there: that step's bias matrices and the drop rules that cover it.
``V2VChannel.corrupt`` delivers one whole direction of a round at a time;
the exchange schedule and the hold-last-value bookkeeping belong to the
control loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class ChannelId(str, Enum):
    """The four corruptible iteration channels."""

    X_ITE = "x_ite"
    V_ITE = "v_ite"
    ZX_ITE = "zx_ite"
    ZV_ITE = "zv_ite"

    @property
    def direction(self) -> "Direction":
        """The direction of the messages that carry this channel."""
        return Direction.BACKWARD if self in CARRIES[Direction.BACKWARD] else Direction.FORWARD


class Direction(str, Enum):
    FORWARD = "forward"    # predecessor -> follower
    BACKWARD = "backward"  # follower -> predecessor


# The two channels each direction's messages carry, as (a, b) payload pairs.
CARRIES = {
    Direction.FORWARD: (ChannelId.X_ITE, ChannelId.V_ITE),
    Direction.BACKWARD: (ChannelId.ZX_ITE, ChannelId.ZV_ITE),
}


def senders(direction: Direction, n: int) -> range:
    """The vehicles (0 = the leader, followers 1..n) that send in
    ``direction`` each round, each to its neighbour: 0..n-1 forward, 2..n
    backward.  The last follower has no one behind it, and the leader takes
    no backward traffic."""
    return range(n) if direction is Direction.FORWARD else range(2, n + 1)


@dataclass(frozen=True)
class DropRule:
    """Suppress delivery of ``sender``'s messages (jamming-style corruption).

    A dropped message makes the receiver reuse its last received value.
    ``control_steps`` and ``iterations`` are closed [start, end] intervals;
    None means "any".
    """

    direction: Direction
    sender: int
    control_steps: Optional[tuple[int, int]] = None
    iterations: Optional[tuple[int, int]] = None

    def covers(self, k: int) -> bool:
        """Whether the rule's ``control_steps`` hold control step ``k``."""
        return self.control_steps is None or self.control_steps[0] <= k <= self.control_steps[1]

    def matches(self, direction: Direction, t: int) -> bool:
        """Whether the rule jams its sender in ``direction`` during iteration
        round ``t`` of a control step it covers."""
        return direction is self.direction and (
            self.iterations is None or self.iterations[0] <= t <= self.iterations[1])


@dataclass(frozen=True)
class V2VChannel:
    """The corruption point every message of one control step passes
    through: the step's bias, each channel's matrix as built by
    ``iter_attack_value_cal``, and the drop rules that cover the step."""

    bias: Mapping[ChannelId, np.ndarray]
    drops: tuple[DropRule, ...] = ()

    def corrupt(
        self,
        direction: Direction,
        a: Sequence[float],
        b: Sequence[float],
        t: int,
    ) -> list[Optional[tuple[float, float]]]:
        """Deliver one direction of iteration round ``t``.

        ``a`` and ``b`` are the senders' payloads on ``CARRIES[direction]``,
        indexed by vehicle (0 = the leader, followers 1..n).  Entry i of the
        result is what follower i+1 receives, from vehicle i forward (n
        entries) or from vehicle i+2 backward (n-1 entries).  It is the
        sender's pair plus its bias (bias column j corrupts follower j+1's
        outgoing channels; the leader's pair passes untouched), or None where
        a drop rule matches.
        """
        sent = senders(direction, len(a) - 1)
        channel_a, channel_b = CARRIES[direction]
        row_a = self.bias[channel_a][t].tolist()
        row_b = self.bias[channel_b][t].tolist()
        delivered: list[Optional[tuple[float, float]]] = [
            (a[s], b[s]) if s == 0 else (a[s] + row_a[s - 1], b[s] + row_b[s - 1])
            for s in sent
        ]
        for rule in self.drops:
            if rule.sender in sent and rule.matches(direction, t):
                delivered[sent.index(rule.sender)] = None
        return delivered
