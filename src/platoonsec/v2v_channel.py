"""The V2V channel: where the attack bias and jamming enter an iteration round.

During every iteration round of a control step, each vehicle (leader
included) broadcasts its predicted position and velocity forward to its
immediate follower, then every follower except the first sends its spacing
terms backward to its predecessor.  Link i joins vehicle i to vehicle i+1
(0 = the leader, followers 1..n).  The leader never receives backward
traffic, and the leader link 0 is trusted: it is never biased, though a
drop rule can still jam it.  ``senders(direction, n)`` is the one statement
of who sends in each direction.

A ``V2VChannel`` belongs to one control step and holds what is in force
there: that step's bias matrices and the drop rules that cover it.
``V2VChannel.corrupt(t)`` hands round t its bias rows and the links live in
each direction; the control loop adds the bias as it writes what each
follower receives, and a follower on a jammed link keeps its last value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Optional

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
        """The direction of the messages that carry this channel: x_ite and
        v_ite forward, zx_ite and zv_ite backward."""
        return Direction.FORWARD if self in (ChannelId.X_ITE, ChannelId.V_ITE) else Direction.BACKWARD


class Direction(str, Enum):
    FORWARD = "forward"    # predecessor -> follower
    BACKWARD = "backward"  # follower -> predecessor


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

    def fires(self, t: int) -> bool:
        """Whether the rule jams its sender during iteration round ``t`` of a
        control step it covers."""
        return self.iterations is None or self.iterations[0] <= t <= self.iterations[1]


@dataclass(frozen=True)
class V2VChannel:
    """The corruption point every message of one control step passes
    through: the step's bias, each channel's matrix as built by
    ``iter_attack_value_cal``, and the drop rules that cover the step."""

    bias: Mapping[ChannelId, np.ndarray]
    drops: tuple[DropRule, ...] = ()

    def corrupt(self, t: int) -> tuple:
        """Round ``t``'s bias rows and live links: ``(bx, bv, bzx, bzv,
        leader, forward, backward)``.

        ``bx``, ``bv``, ``bzx`` and ``bzv`` are row ``t`` of the x_ite, v_ite,
        zx_ite and zv_ite matrices as lists; entry j corrupts follower j+1's
        outgoing message on that channel.  ``leader`` says whether the
        leader's broadcast reaches fv1.  ``forward`` and ``backward`` hold the
        live links among 1..n-1: link i carries follower i's broadcast to
        follower i+1, and follower i+1's spacing terms back to follower i.  A
        link is live unless a drop rule jams its sender in that direction in
        round ``t``; only a step with drop rules builds lists of them.
        """
        bias = self.bias
        bx = bias[ChannelId.X_ITE][t].tolist()
        bv = bias[ChannelId.V_ITE][t].tolist()
        bzx = bias[ChannelId.ZX_ITE][t].tolist()
        bzv = bias[ChannelId.ZV_ITE][t].tolist()
        links = range(1, len(bx))
        if not self.drops:
            return bx, bv, bzx, bzv, True, links, links
        jammed = {(rule.direction, rule.sender) for rule in self.drops if rule.fires(t)}
        forward, backward = Direction.FORWARD, Direction.BACKWARD
        return (bx, bv, bzx, bzv, (forward, 0) not in jammed,
                [i for i in links if (forward, i) not in jammed],
                [i for i in links if (backward, i + 1) not in jammed])
