from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np
import pytest

from platoonsec import mpc_controller
from platoonsec.attack_engine import iter_attack_value_cal
from platoonsec.dynamics import predict
from platoonsec.mpc_controller import primal_sweep, run_control_step, spacing_error
from platoonsec.platoon_model import PlatoonState, SimConfig, VehicleState
from platoonsec.v2v_channel import ChannelId, Direction, DropRule, V2VChannel, senders

from conftest import single_channel_case

FORWARD, BACKWARD = Direction.FORWARD, Direction.BACKWARD


def _config(n: int) -> SimConfig:
    """One round a step, and a tau that keeps the broadcasts of ``_platoon``
    exact in binary."""
    return replace(SimConfig(), n=n, max_iterations=1, tau=0.5, v_min=-10.0)


def _platoon(n: int) -> PlatoonState:
    """Vehicle i (0 = the leader) at x = 100 - 20*i and v = 30 + i, so that
    every broadcast and every spacing report differs."""
    leader, *followers = (VehicleState(x=100.0 - 20 * i, v=30.0 + i) for i in range(n + 1))
    return PlatoonState(leader, tuple(followers))


class Round(NamedTuple):
    """What the primal sweep of round 0 reads, entry i being follower i+1's:
    its broadcast ``(px, pv)``, what it received forward ``(fx, fv)`` and the
    report its successor sent back ``(rzx, rzv)``, None for the last."""

    px: list[float]
    pv: list[float]
    fx: list[float]
    fv: list[float]
    rzx: list[Optional[float]]
    rzv: list[Optional[float]]


def _round(channel: Optional[V2VChannel], n: int, platoon: Optional[PlatoonState] = None,
           leader_u: float = 0.0) -> Round:
    """Round 0 of a one-round ``run_control_step`` through ``channel``, read
    through a ``primal_sweep`` spy."""
    seen = []

    def spy(u, *lists_and_rest):
        seen.append(Round(*map(list, lists_and_rest[:6])))
        return primal_sweep(u, *lists_and_rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpc_controller, "primal_sweep", spy)
        run_control_step(platoon or _platoon(n), channel, _config(n), leader_u)
    (got,) = seen
    return got


def _broadcasts(r: Round, n: int) -> list[tuple[float, float]]:
    """Each vehicle's forward payload (0 = the leader)."""
    return [predict(_platoon(n).leader, 0.0, _config(n).tau), *zip(r.px, r.pv)]


def _reports(r: Round, n: int) -> list[tuple[float, float]]:
    """Each follower's backward payload, its spacing terms against what it
    received (index 0 = fv1)."""
    return [(spacing_error(r.fx[i], r.px[i], r.pv[i], _config(n)), r.fv[i] - r.pv[i]) for i in range(n)]


def _forward(r: Round) -> list[tuple[float, float]]:
    return list(zip(r.fx, r.fv))


def _backward(r: Round) -> list[tuple[float, float]]:
    return list(zip(r.rzx[:-1], r.rzv[:-1]))


def _first_values(r: Round, n: int, i: int) -> tuple[float, float]:
    """What follower i+1 holds forward before any delivery: the benign
    expectation from its own broadcast."""
    return r.px[i] + _config(n).nominal_gap(r.pv[i]), r.pv[i]


def _clean(n: int) -> V2VChannel:
    return V2VChannel(bias=iter_attack_value_cal(n, 0, 10, ()))


def _biased(n: int, victim: int, channel: str, value: float) -> V2VChannel:
    case = single_channel_case(n, victim=victim, window=(0, 0), channel=channel, bias_params=[value])
    return V2VChannel(bias=iter_attack_value_cal(n, 0, 10, case))


class TestExchange:
    def test_six_followers_gives_eleven_messages(self):
        r = _round(_clean(6), 6)
        assert len(_forward(r)) + len(_backward(r)) == 11
        # Follower i+1 receives vehicle i's broadcast (0 = leader).
        assert _forward(r) == _broadcasts(r, 6)[:6]
        # Follower i+1 receives follower i+2's report; fv6 none.
        assert _backward(r) == _reports(r, 6)[1:]
        assert r.rzx[-1] is r.rzv[-1] is None

    def test_single_follower(self):
        r = _round(_clean(1), 1)
        assert _forward(r) == _broadcasts(r, 1)[:1]
        assert _backward(r) == []
        assert r.rzx == r.rzv == [None]

    def test_ordering_stable_across_runs(self):
        assert _round(_clean(6), 6) == _round(_clean(6), 6)


class TestApplyBias:
    def test_zero_bias_is_identity(self):
        r = _round(_clean(6), 6)
        assert _forward(r) == _broadcasts(r, 6)[:6]
        assert _backward(r) == _reports(r, 6)[1:]
        assert repr(r) == repr(_round(None, 6))

    def test_forward_bias_hits_named_cell(self):
        # An x_ite bias of 3 on fv1's forward message in round 0.
        r = _round(_biased(6, 1, "x_ite", 3.0), 6)
        assert (r.fx[1], r.fv[1]) == (r.px[0] + 3.0, r.pv[0])  # fv2 receives fv1's biased broadcast
        assert r.px[0] + 3.0 == 98.5

    def test_leader_messages_never_biased(self):
        full = {ch: np.full((10, 6), 9.0) for ch in ChannelId}
        r = _round(V2VChannel(bias=full), 6)
        sent = _broadcasts(r, 6)
        assert _forward(r)[0] == sent[0]
        assert _forward(r)[1:] == [(x + 9.0, v + 9.0) for x, v in sent[1:6]]

    def test_each_direction_carries_only_its_two_channels(self):
        # A distinct bias in each channel: forward deliveries pick up only
        # x_ite and v_ite, backward ones only zx_ite and zv_ite.
        offsets = {ChannelId.X_ITE: 1.0, ChannelId.V_ITE: 20.0,
                   ChannelId.ZX_ITE: 300.0, ChannelId.ZV_ITE: 4000.0}
        bias = {ch: np.full((10, 6), offset) for ch, offset in offsets.items()}
        r = _round(V2VChannel(bias=bias), 6)
        sent = _broadcasts(r, 6)
        assert _forward(r) == sent[:1] + [(x + 1.0, v + 20.0) for x, v in sent[1:6]]
        assert _backward(r) == [(zx + 300.0, zv + 4000.0) for zx, zv in _reports(r, 6)[1:]]

    def test_zero_bias_adds_zero_to_follower_payloads(self):
        # Only a -0.0 from a follower changes: to 0.0.  The leader's pair
        # passes untouched, and a report of equal speeds arrives as 0.0.
        zero = VehicleState(x=-0.0, v=-0.0, u=-0.0)
        platoon = PlatoonState(zero, (zero, zero))
        r = _round(_clean(2), 2, platoon, leader_u=-0.0)
        assert repr((r.px, r.pv)) == repr(([-0.0, -0.0], [-0.0, -0.0]))
        assert repr((r.fx, r.fv)) == repr(([-0.0, 0.0], [-0.0, 0.0]))
        assert repr(r.rzv) == repr([0.0, None])
        assert repr(r) == repr(_round(None, 2, platoon, leader_u=-0.0))

    def test_backward_bias_leaves_forward_untouched(self):
        # Differential check over one full exchange round: fv3's zx_ite
        # report reaches fv2 (index 1).
        clean, dirty = _round(_clean(6), 6), _round(_biased(6, 3, "zx_ite", 5.0), 6)
        assert _forward(dirty) == _forward(clean)
        assert dirty.rzv == clean.rzv
        for i, (before, after) in enumerate(zip(clean.rzx[:-1], dirty.rzx[:-1])):
            assert after == (before + 5.0 if i == 1 else before)

    def test_forward_bias_impacts_only_immediate_follower(self):
        # fv3's v_ite bias reaches fv4 alone; fv4's relative speed carries
        # it back to fv3 in its report.
        clean, dirty = _round(_clean(6), 6), _round(_biased(6, 3, "v_ite", 2.0), 6)
        changed = [i for i, (b, a) in enumerate(zip(_forward(clean), _forward(dirty))) if b != a]
        assert changed == [3]
        assert dirty.rzx == clean.rzx
        assert [i for i, (b, a) in enumerate(zip(clean.rzv, dirty.rzv)) if b != a] == [2]

    def test_additive_composition(self):
        a = single_channel_case(6, victim=2, window=(0, 0), channel="x_ite", bias_params=[1.5])
        b = single_channel_case(6, victim=2, window=(0, 0), channel="x_ite", bias_params=[-4.0])
        bias_a = iter_attack_value_cal(6, 0, 10, a)
        bias_b = iter_attack_value_cal(6, 0, 10, b)
        once = _round(V2VChannel(bias=bias_a), 6)
        summed = _round(V2VChannel(bias={ch: bias_a[ch] + bias_b[ch] for ch in ChannelId}), 6)
        # What fv3 received under a, re-sent through b, is what it receives
        # under a + b.
        row_b = bias_b[ChannelId.X_ITE][0].tolist()
        assert summed.fx == once.fx[:1] + [x + row_b[i] for i, x in enumerate(once.fx[1:])]
        assert summed.fx[2] == once.px[1] + 1.5 - 4.0 != once.px[1]


class TestDropRules:
    def test_drop_suppresses_matching_message(self):
        rule = DropRule(Direction.FORWARD, sender=2, iterations=(0, 3))
        channel = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, ()), drops=(rule,))
        hit = _round(channel, 6)
        sent = _broadcasts(hit, 6)
        assert _forward(hit)[2] == _first_values(hit, 6, 2) != sent[2]  # fv3 loses fv2's broadcast
        assert all(got == sent[i] for i, got in enumerate(_forward(hit)) if i != 2)
        assert _backward(hit) == _reports(hit, 6)[1:]  # other direction
        later = DropRule(Direction.FORWARD, sender=2, iterations=(1, 3))
        outside = V2VChannel(bias=channel.bias, drops=(later,))
        assert _round(outside, 6) == _round(_clean(6), 6)  # outside iteration window

    def test_covers_by_control_window(self):
        # A step's channel holds only the rules that cover the step.
        for window in (None, (7, 7), (5, 7), (7, 9)):
            assert DropRule(Direction.BACKWARD, sender=2, control_steps=window).covers(7)
        for window in ((0, 6), (8, 20)):
            assert not DropRule(Direction.FORWARD, sender=2, control_steps=window).covers(7)

    def test_leader_link_can_be_dropped(self):
        rule = DropRule(Direction.FORWARD, sender=0)
        channel = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, ()), drops=(rule,))
        r = _round(channel, 6)
        assert _forward(r)[0] == _first_values(r, 6, 0)
        assert _forward(r)[1:] == _broadcasts(r, 6)[1:6]

    def test_backward_drop_hits_the_senders_receiver(self):
        rule = DropRule(Direction.BACKWARD, sender=4)
        channel = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, ()), drops=(rule,))
        r = _round(channel, 6)
        reports = _reports(r, 6)
        assert _backward(r)[2] == (0.0, 0.0) != reports[3]  # fv3 loses fv4's report
        assert all(got == reports[i + 1] for i, got in enumerate(_backward(r)) if i != 2)

    def test_receiver_reuses_last_value_when_dropped(self, config):
        # With fv3's forward broadcast jammed, fv4 keeps optimizing against
        # fv3's first-round broadcast instead of the live one.
        from platoonsec.platoon_model import initial_platoon

        platoon = initial_platoon(config, 30.0)
        rule = DropRule(Direction.FORWARD, sender=3, iterations=(1, 400))
        channel = V2VChannel(bias=iter_attack_value_cal(config.n, 0, config.max_iterations, ()), drops=(rule,))
        outcome = run_control_step(platoon, channel, config)
        # At equilibrium the first-round broadcast equals the live value, so
        # the run still converges cleanly.
        assert outcome.converged
        assert abs(outcome.u_next[3]) < 1e-6


class TestHelpers:
    def test_channel_enum_closed(self):
        assert {c.value for c in ChannelId} == {"x_ite", "v_ite", "zx_ite", "zv_ite"}
        with pytest.raises(ValueError):
            ChannelId("nonsense")

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_corrupt_delivers_one_message_per_sender(self, n):
        # senders() is the topology the round and the loader's checks share:
        # a forward sender s reaches follower s+1, a backward one follower
        # s-1, and every follower but the last receives in both directions.
        r = _round(_clean(n), n)
        sent, reports = _broadcasts(r, n), _reports(r, n)
        assert _forward(r) == [sent[s] for s in senders(FORWARD, n)]
        assert _backward(r) == [reports[s - 1] for s in senders(BACKWARD, n)]
        assert (senders(FORWARD, n), senders(BACKWARD, n)) == (range(0, n), range(2, n + 1))

    def test_corrupt_hands_a_round_its_rows_and_live_links(self):
        # Link i carries follower i's broadcast forward and follower i+1's
        # report back; a rule jams its sender's link only in its rounds.
        bias = {ch: np.arange(12.0).reshape(2, 6) + 100 * j for j, ch in enumerate(ChannelId)}
        bx, bv, bzx, bzv, leader, forward, backward = V2VChannel(bias=bias).corrupt(1)
        assert [bx, bv, bzx, bzv] == [bias[ch][1].tolist() for ch in ChannelId]
        assert leader and list(forward) == list(backward) == [1, 2, 3, 4, 5]
        rules = (DropRule(FORWARD, 0, iterations=(0, 0)), DropRule(FORWARD, 2),
                 DropRule(BACKWARD, 4, iterations=(1, 1)), DropRule(BACKWARD, 6, iterations=(0, 0)))
        *_, leader, forward, backward = V2VChannel(bias, rules).corrupt(0)
        assert (leader, forward, backward) == (False, [1, 3, 4, 5], [1, 2, 3, 4])
        *_, leader, forward, backward = V2VChannel(bias, rules).corrupt(1)
        assert (leader, forward, backward) == (True, [1, 3, 4, 5], [1, 2, 4, 5])

    def test_channel_directions(self):
        assert [c.direction for c in ChannelId] == [FORWARD, FORWARD, BACKWARD, BACKWARD]
