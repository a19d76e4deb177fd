import numpy as np
import pytest

from platoonsec.attack_engine import iter_attack_value_cal
from platoonsec.v2v_channel import ChannelId, Direction, DropRule, V2VChannel, senders

from conftest import single_channel_case

FORWARD, BACKWARD = Direction.FORWARD, Direction.BACKWARD


def _payloads(n: int):
    """Vehicle-indexed payloads (0 = leader): positions/velocities forward,
    spacing terms backward."""
    x = [float(100 - 20 * i) for i in range(n + 1)]
    v = [30.0 + i for i in range(n + 1)]
    zx = [0.0] + [0.1 * i for i in range(1, n + 1)]
    zv = [0.0] + [-0.1 * i for i in range(1, n + 1)]
    return x, v, zx, zv


def _round(channel: V2VChannel, n: int, t: int):
    x, v, zx, zv = _payloads(n)
    return channel.corrupt(FORWARD, x, v, t), channel.corrupt(BACKWARD, zx, zv, t)


def _clean(n: int) -> V2VChannel:
    return V2VChannel(bias=iter_attack_value_cal(n, 0, 10, ()))


class TestExchange:
    def test_six_followers_gives_eleven_messages(self):
        x, v, zx, zv = _payloads(6)
        forward, backward = _round(_clean(6), 6, 0)
        assert len(forward) + len(backward) == 11
        # Forward entry i reaches follower i+1 from vehicle i (0 = leader).
        assert forward == [(x[s], v[s]) for s in range(6)]
        # Backward entry i reaches follower i+1 from vehicle i+2.
        assert backward == [(zx[s], zv[s]) for s in range(2, 7)]

    def test_single_follower(self):
        x, v, _, _ = _payloads(1)
        forward, backward = _round(_clean(1), 1, 0)
        assert forward == [(x[0], v[0])]
        assert backward == []

    def test_ordering_stable_across_runs(self):
        assert _round(_clean(6), 6, 5) == _round(_clean(6), 6, 5)


class TestApplyBias:
    def test_zero_bias_is_identity(self):
        x, v, zx, zv = _payloads(6)
        forward, backward = _round(_clean(6), 6, 3)
        assert forward == list(zip(x[:6], v[:6]))
        assert backward == list(zip(zx[2:], zv[2:]))

    def test_forward_bias_hits_named_cell(self):
        # x_ite bias of 3 on fv1's forward message at iteration t.
        case = single_channel_case(6, victim=1, window=(0, 0), channel="x_ite", bias_params=[3.0])
        channel = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, case))
        x = [100.0, 80.0, 60.0, 40.0, 20.0, 0.0, -20.0]
        v = [30.0] * 7
        out = channel.corrupt(FORWARD, x, v, 4)
        assert out[1] == (83.0, 30.0)  # fv2 receives fv1's biased broadcast

    def test_leader_messages_never_biased(self):
        full = {ch: np.full((10, 6), 9.0) for ch in ChannelId}
        x, v, _, _ = _payloads(6)
        out = V2VChannel(bias=full).corrupt(FORWARD, x, v, 1)
        assert out[0] == (x[0], v[0])
        assert all(got == (x[s] + 9.0, v[s] + 9.0) for s, got in enumerate(out) if s)

    def test_each_direction_carries_only_its_two_channels(self):
        # A distinct bias in each channel: forward deliveries pick up only
        # x_ite and v_ite, backward ones only zx_ite and zv_ite.
        offsets = {ChannelId.X_ITE: 1.0, ChannelId.V_ITE: 20.0,
                   ChannelId.ZX_ITE: 300.0, ChannelId.ZV_ITE: 4000.0}
        bias = {ch: np.full((10, 6), offset) for ch, offset in offsets.items()}
        x, v, zx, zv = _payloads(6)
        forward, backward = _round(V2VChannel(bias=bias), 6, 2)
        assert forward == [(x[0], v[0])] + [(x[s] + 1.0, v[s] + 20.0) for s in range(1, 6)]
        assert backward == [(zx[s] + 300.0, zv[s] + 4000.0) for s in range(2, 7)]

    def test_zero_bias_adds_zero_to_follower_payloads(self):
        # Only a -0.0 from a follower changes: to 0.0.  The leader's pair
        # passes untouched.
        channel = _clean(3)
        x, v = [-0.0, -0.0, 0.0, 5.0], [-0.0, 1.0, -0.0, 2.0]
        out = channel.corrupt(FORWARD, x, v, 0)
        assert repr(out) == repr([(-0.0, -0.0), (0.0, 1.0), (0.0, 0.0)])
        out = channel.corrupt(BACKWARD, [0.0, 0.0, -0.0, 3.0], [0.0, 0.0, 4.0, -0.0], 0)
        assert repr(out) == repr([(0.0, 4.0), (3.0, 0.0)])

    def test_backward_bias_leaves_forward_untouched(self):
        # Differential check over one full exchange round.
        case = single_channel_case(6, victim=3, window=(0, 0), channel="zx_ite", bias_params=[5.0])
        dirty = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, case))
        clean_fwd, clean_bwd = _round(_clean(6), 6, 0)
        dirty_fwd, dirty_bwd = _round(dirty, 6, 0)
        assert dirty_fwd == clean_fwd
        for i, (before, after) in enumerate(zip(clean_bwd, dirty_bwd)):
            if i + 2 == 3:
                assert after == (before[0] + 5.0, before[1])
            else:
                assert after == before

    def test_forward_bias_impacts_only_immediate_follower(self):
        case = single_channel_case(6, victim=3, window=(0, 0), channel="v_ite", bias_params=[2.0])
        dirty = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, case))
        clean_fwd, clean_bwd = _round(_clean(6), 6, 0)
        dirty_fwd, dirty_bwd = _round(dirty, 6, 0)
        changed = [(s, s + 1) for s, (b, a) in enumerate(zip(clean_fwd, dirty_fwd)) if b != a]
        assert changed == [(3, 4)]
        assert dirty_bwd == clean_bwd

    def test_additive_composition(self):
        a = single_channel_case(6, victim=2, window=(0, 0), channel="x_ite", bias_params=[1.5])
        b = single_channel_case(6, victim=2, window=(0, 0), channel="x_ite", bias_params=[-4.0])
        bias_a = iter_attack_value_cal(6, 0, 10, a)
        bias_b = iter_attack_value_cal(6, 0, 10, b)
        x, v, _, _ = _payloads(6)
        once = V2VChannel(bias=bias_a).corrupt(FORWARD, x, v, 0)
        # Re-send what vehicles 0..5 delivered; vehicle 6 sends nothing forward.
        twice = V2VChannel(bias=bias_b).corrupt(
            FORWARD, [p[0] for p in once] + [x[6]], [p[1] for p in once] + [v[6]], 0
        )
        summed = {ch: bias_a[ch] + bias_b[ch] for ch in ChannelId}
        assert twice == V2VChannel(bias=summed).corrupt(FORWARD, x, v, 0)


class TestDropRules:
    def test_drop_suppresses_matching_message(self):
        rule = DropRule(Direction.FORWARD, sender=2, iterations=(0, 3))
        channel = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, ()), drops=(rule,))
        x, v, zx, zv = _payloads(6)
        hit = channel.corrupt(FORWARD, x, v, 1)
        assert hit[2] is None  # fv3 loses fv2's broadcast
        assert all(got is not None for i, got in enumerate(hit) if i != 2)
        assert channel.corrupt(FORWARD, x, v, 5)[2] is not None  # outside iteration window
        backward = channel.corrupt(BACKWARD, zx, zv, 1)
        assert all(got is not None for got in backward)  # other direction

    def test_covers_by_control_window(self):
        # A step's channel holds only the rules that cover the step.
        for window in (None, (7, 7), (5, 7), (7, 9)):
            assert DropRule(Direction.BACKWARD, sender=2, control_steps=window).covers(7)
        for window in ((0, 6), (8, 20)):
            assert not DropRule(Direction.FORWARD, sender=2, control_steps=window).covers(7)

    def test_leader_link_can_be_dropped(self):
        rule = DropRule(Direction.FORWARD, sender=0)
        channel = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, ()), drops=(rule,))
        x, v, _, _ = _payloads(6)
        out = channel.corrupt(FORWARD, x, v, 0)
        assert out[0] is None
        assert out[1:] == list(zip(x[1:6], v[1:6]))

    def test_backward_drop_hits_the_senders_receiver(self):
        rule = DropRule(Direction.BACKWARD, sender=4)
        channel = V2VChannel(bias=iter_attack_value_cal(6, 0, 10, ()), drops=(rule,))
        _, _, zx, zv = _payloads(6)
        out = channel.corrupt(BACKWARD, zx, zv, 0)
        assert out[2] is None  # fv3 loses fv4's report
        assert all(got is not None for i, got in enumerate(out) if i != 2)

    def test_receiver_reuses_last_value_when_dropped(self, config):
        # With fv3's forward broadcast jammed, fv4 keeps optimizing against
        # fv3's first-round broadcast instead of the live one.
        from platoonsec.mpc_controller import run_control_step
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
        # senders() is the topology corrupt() and the loader's checks share:
        # entry i of a direction's delivery comes from its i-th sender.
        x, v, zx, zv = _payloads(n)
        forward, backward = _round(_clean(n), n, 0)
        assert forward == [(x[s], v[s]) for s in senders(FORWARD, n)]
        assert backward == [(zx[s], zv[s]) for s in senders(BACKWARD, n)]
        assert (senders(FORWARD, n), senders(BACKWARD, n)) == (range(0, n), range(2, n + 1))

    def test_channel_directions(self):
        assert [c.direction for c in ChannelId] == [FORWARD, FORWARD, BACKWARD, BACKWARD]
