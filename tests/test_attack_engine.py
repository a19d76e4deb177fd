import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsec.attack_engine import (
    ATTACK_LIST_KEYS,
    AttackCaseError,
    BiasMatrices,
    bias_waveform,
    iter_attack_value_cal,
    parse_attack_case,
    stealth_mask,
)
from platoonsec.v2v_channel import ChannelId


def running_example_doc():
    """Three victims with mixed channels, frequencies and waveforms."""
    return {
        "iter_victim_list": [1, 3, 5],
        "control_attackperiod_list": [[[10, 20], [15, 25]], [[20, 30]], [[40, 60]]],
        "iter_malichannel_list": [[["x_ite", "v_ite"], ["v_ite"]], [["zx_ite"]], [["zv_ite"]]],
        "iter_freq_type_list": [[["Continuous", "Continuous"], ["Cluster"]], [["Continuous"]], [["Cluster"]]],
        "iter_freqparavalue_list": [[[[0], [0]], [[2, 8]]], [[[0]]], [[[1, 10]]]],
        "iter_biastype_list": [[["Constant", "Constant"], ["Constant"]], [["Linear"]], [["Sinusoidal"]]],
        "iter_biasparavalue_list": [[[[3], [2]], [[4]]], [[[2, 5]]], [[[10, 0.5, 0, 5]]]],
    }


def one_slot_doc(freq, freq_params, bias, bias_params, period=(0, 5)):
    """A case with one slot: follower 2's v_ite channel over ``period``."""
    return {
        "iter_victim_list": [2],
        "control_attackperiod_list": [[list(period)]],
        "iter_malichannel_list": [[["v_ite"]]],
        "iter_freq_type_list": [[[freq]]],
        "iter_freqparavalue_list": [[[freq_params]]],
        "iter_biastype_list": [[[bias]]],
        "iter_biasparavalue_list": [[[bias_params]]],
    }


def one_slot_column(freq, freq_params, bias, bias_params, max_iterations=300):
    """The bias vector a one-slot case puts on its channel at control step 0."""
    case = parse_attack_case(one_slot_doc(freq, freq_params, bias, bias_params), 6, max_iterations)
    return iter_attack_value_cal(6, 0, max_iterations, case).v_ite_bias[:, 1]


class TestParseAttackCase:
    def test_running_example_parses(self):
        # One slot per channel, in document order: victim, period, channel.
        slots = parse_attack_case(running_example_doc(), n=6, max_iterations=300)
        assert slots == (
            (1, 10, 20, ChannelId.X_ITE, 1, 0, "Constant", (3.0,)),
            (1, 10, 20, ChannelId.V_ITE, 1, 0, "Constant", (2.0,)),
            (1, 15, 25, ChannelId.V_ITE, 2, 8, "Constant", (4.0,)),
            (3, 20, 30, ChannelId.ZX_ITE, 1, 0, "Linear", (2.0, 5.0)),
            (5, 40, 60, ChannelId.ZV_ITE, 1, 10, "Sinusoidal", (10.0, 0.5, 0.0, 5.0)),
        )

    def test_empty_case_is_benign(self):
        assert parse_attack_case(None, 6, 300) == ()
        assert parse_attack_case({}, 6, 300) == ()

    def test_shape_mismatch_names_the_path(self):
        doc = running_example_doc()
        doc["iter_malichannel_list"][0] = [["x_ite", "v_ite"]]  # 1 period entry, 2 expected
        with pytest.raises(AttackCaseError, match=r"iter_malichannel_list\[0\]"):
            parse_attack_case(doc, 6, 300)

    def test_victim_out_of_range(self):
        doc = running_example_doc()
        doc["iter_victim_list"] = [1, 3, 7]
        with pytest.raises(AttackCaseError, match="victim 7"):
            parse_attack_case(doc, 6, 300)

    def test_parameter_arity_enforced(self):
        doc = running_example_doc()
        doc["iter_biasparavalue_list"][1] = [[[2]]]  # Linear needs [m, c]
        with pytest.raises(AttackCaseError, match="Linear"):
            parse_attack_case(doc, 6, 300)

    def test_unknown_channel_rejected(self):
        doc = running_example_doc()
        doc["iter_malichannel_list"][1] = [["w_ite"]]
        with pytest.raises(AttackCaseError, match="w_ite"):
            parse_attack_case(doc, 6, 300)

    def test_discrete_is_cluster_alias(self):
        for params in ([4], [1, 4]):
            case = parse_attack_case(one_slot_doc("Discrete", params, "Constant", [1.0]), 6, 300)
            assert [(slot.on, slot.off) for slot in case] == [(1, 4)]

    def test_interval_sanity(self):
        doc = running_example_doc()
        doc["control_attackperiod_list"][1] = [[30, 20]]
        with pytest.raises(AttackCaseError, match="invalid interval"):
            parse_attack_case(doc, 6, 300)

    def test_overflow_check_matches_the_waveform(self):
        # A slot is rejected exactly when bias_waveform has a non-finite row
        # over the case's max_iterations, whichever path the check takes.
        big = sys.float_info.max
        params = [
            ("Linear", [1e305, 0.0]), ("Linear", [-1e306, big]), ("Linear", [big, -big]),
            ("Sinusoidal", [1.0, 1e308, 0.0, 0.0]), ("Sinusoidal", [1.0, 1e305, big, 0.0]),
            ("Sinusoidal", [big, 0.0, -math.pi / 2, big]), ("Sinusoidal", [big, 0.0, math.pi / 2, big]),
            ("Sinusoidal", [big, 0.25, 0.0, big]), ("Sinusoidal", [-big, 3.0, 1.0, -big]),
        ]
        rng = random.Random(7)
        for _ in range(200):
            scale = lambda: rng.choice([-1, 1]) * big * rng.uniform(0.3, 1.0)
            params.append(("Sinusoidal", [scale(), rng.uniform(0, 5), rng.uniform(-4, 4), scale()]))
        rejected = 0
        for kind, values in params:
            for max_iterations in (1, 2, 300, 3000):
                finite = np.isfinite(bias_waveform(kind, values, max_iterations)).all()
                doc = one_slot_doc("Continuous", [0], kind, values)
                try:
                    parse_attack_case(doc, 6, max_iterations)
                except AttackCaseError as exc:
                    assert "overflows" in str(exc)
                    assert not finite, (kind, values, max_iterations)
                    rejected += 1
                else:
                    assert finite, (kind, values, max_iterations)
        assert 0 < rejected < 4 * len(params)

    def test_sum_check_matches_the_generator(self):
        # A case is rejected exactly when iter_attack_value_cal, summing in
        # slot order, gives a non-finite bias at some control step.  Periods
        # on one victim and channel start and end at random; near-max
        # constants overflow together, or cancel, depending on which are
        # active and in what order.
        big = sys.float_info.max
        cases = [
            # In slot order big - big + big is finite, but once the middle
            # slot ends at step 3 the other two overflow.
            [((0, 9), [0], big), ((0, 2), [0], -big), ((0, 9), [0], big)],
        ]
        rng = random.Random(5)
        for _ in range(150):
            cases.append([
                ((start, start + rng.randint(0, 4)), rng.choice([[0], [1, 0], [2, 3]]),
                 rng.choice([-1, 1]) * big * rng.uniform(0.3, 1.0))
                for start in (rng.randint(0, 8) for _ in range(rng.randint(2, 4)))
            ])
        rejected = 0
        for slots in cases:
            docs = [
                one_slot_doc("Continuous" if window == [0] else "Cluster", window, "Constant",
                             [value], period)
                for period, window, value in slots
            ]
            # The slots of the whole case, each parsed on its own.
            alone = tuple(slot for doc in docs for slot in parse_attack_case(doc, 6, 10))
            with np.errstate(over="ignore"):
                finite = all(
                    np.isfinite(iter_attack_value_cal(6, k, 10, alone).v_ite_bias).all()
                    for k in range(14)
                )
            merged = {key: [[entry for doc in docs for entry in doc[key][0]]]
                      for key in ATTACK_LIST_KEYS[1:]}
            merged["iter_victim_list"] = [2]
            try:
                assert parse_attack_case(merged, 6, 10) == alone
            except AttackCaseError as exc:
                assert "overflow when summed" in str(exc)
                assert not finite, slots
                rejected += 1
            else:
                assert finite, slots
        assert 0 < rejected < len(cases)


class TestStealthMask:
    def test_continuous_all_ones(self):
        assert stealth_mask(1, 0, 300).tolist() == [1] * 300

    def test_cluster_one_on_ten_off(self):
        mask = stealth_mask(1, 10, 300)
        active = [t for t in range(300) if mask[t]]
        assert active == list(range(0, 300, 11))
        assert active[-1] == 297

    def test_cluster_against_brute_force(self):
        # Oracle: walk t, toggling per the on/off period rule.
        for on, off in [(2, 5), (3, 0), (1, 1), (4, 7)]:
            mask = stealth_mask(on, off, 100)
            state_on, remaining, expected = True, on, []
            for _ in range(100):
                expected.append(1 if state_on else 0)
                remaining -= 1
                if remaining == 0:
                    if state_on and off > 0:
                        state_on, remaining = False, off
                    else:
                        state_on, remaining = True, on
            assert mask.tolist() == expected


class TestBiasWaveform:
    def test_constant(self):
        values = bias_waveform("Constant", [4.0], 300)
        for t in (0, 7, 299):
            assert values[t] == 4.0

    def test_degenerate_linear_is_constant(self):
        assert bias_waveform("Linear", [0.0, 7.0], 300)[123] == 7.0

    def test_linear_slope(self):
        assert bias_waveform("Linear", [0.2, 5.0], 300)[10] == pytest.approx(7.0)

    def test_sinusoid_five_cycles_and_range(self):
        values = bias_waveform("Sinusoidal", [20, 5, 0, 2], 300)
        # Five full cycles across 300 rows: zeros of the sine every 30 rows.
        for t in range(0, 300, 30):
            assert values[t] == pytest.approx(2.0, abs=1e-9)
        assert min(values) == pytest.approx(-18.0, abs=1e-6)
        assert max(values) == pytest.approx(22.0, abs=1e-6)
        for t in range(300):
            direct = 20 * math.sin(2 * math.pi * 5 * (t / 300)) + 2
            assert values[t] == direct


class TestIterChannelBias:
    def test_continuous_constant(self):
        vec = one_slot_column("Continuous", [0], "Constant", [3.0])
        assert vec.tolist() == [3.0] * 300

    def test_cluster_linear_brute_force(self):
        vec = one_slot_column("Cluster", [1, 10], "Linear", [2.0, 5.0])
        for t in range(300):
            expected = (2.0 * t + 5.0) if t % 11 == 0 else 0.0
            assert vec[t] == expected

    def test_mask_annihilates_waveform(self):
        # off-window so long the mask is active only at t=0
        vec = one_slot_column("Cluster", [1, 1000], "Sinusoidal", [5, 5, 1.0, 3])
        assert vec[0] != 0.0
        assert not vec[1:].any()

    def test_windows_longer_than_any_step(self):
        # Windows past int64 are valid input; the mask depends only on
        # which of them reach past the step's rows.
        vec = one_slot_column("Cluster", [2, 10**30], "Constant", [3.0], max_iterations=50)
        assert vec.tolist() == [3.0, 3.0] + [0.0] * 48
        vec = one_slot_column("Cluster", [10**30, 0], "Constant", [3.0], max_iterations=50)
        assert vec.tolist() == [3.0] * 50


def oracle_bias_matrices(n, k, max_iterations, doc) -> dict:
    """Full-enumeration reference over the raw seven-list document: loop
    every (victim, period, channel, t)."""
    mats = {ch: np.zeros((max_iterations, n)) for ch in ChannelId}
    for i, victim in enumerate(doc["iter_victim_list"]):
        for j, (start, end) in enumerate(doc["control_attackperiod_list"][i]):
            if k < start or k > end:
                continue
            for m, channel in enumerate(doc["iter_malichannel_list"][i][j]):
                fk = doc["iter_freq_type_list"][i][j][m]
                fp = doc["iter_freqparavalue_list"][i][j][m]
                bk = doc["iter_biastype_list"][i][j][m]
                bp = [float(v) for v in doc["iter_biasparavalue_list"][i][j][m]]
                if fk == "Continuous":
                    on, off = 1, 0
                elif fk == "Discrete":
                    on, off = 1, fp[-1]
                else:
                    on, off = fp
                for t in range(max_iterations):
                    if t % (on + off) >= on:
                        continue
                    if bk == "Constant":
                        value = bp[0]
                    elif bk == "Linear":
                        value = bp[0] * t + bp[1]
                    else:
                        value = bp[0] * math.sin(2 * math.pi * bp[1] * (t / max_iterations) + bp[2]) + bp[3]
                    mats[ChannelId(channel)][t, victim - 1] += value
    return mats


def random_attack_doc(rng: random.Random, n: int) -> dict:
    victims = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
    doc = {key: [] for key in (
        "iter_victim_list", "control_attackperiod_list", "iter_malichannel_list",
        "iter_freq_type_list", "iter_freqparavalue_list", "iter_biastype_list",
        "iter_biasparavalue_list",
    )}
    channels = [c.value for c in ChannelId]
    for victim in victims:
        n_periods = rng.randint(1, 3)
        periods, chs, fks, fps, bks, bps = [], [], [], [], [], []
        for _ in range(n_periods):
            start = rng.randint(0, 80)
            periods.append([start, start + rng.randint(0, 30)])
            slots = rng.randint(1, 3)
            ch_row, fk_row, fp_row, bk_row, bp_row = [], [], [], [], []
            for _ in range(slots):
                ch_row.append(rng.choice(channels))  # duplicates allowed: fusion biases
                fk = rng.choice(["Continuous", "Cluster"])
                fk_row.append(fk)
                fp_row.append([0] if fk == "Continuous" else [rng.randint(1, 4), rng.randint(0, 10)])
                bk = rng.choice(["Constant", "Linear", "Sinusoidal"])
                bk_row.append(bk)
                bp_row.append({
                    "Constant": [rng.uniform(-10, 10)],
                    "Linear": [rng.uniform(-0.5, 0.5), rng.uniform(-5, 5)],
                    "Sinusoidal": [rng.uniform(0, 20), rng.uniform(0, 8), rng.uniform(0, 2 * math.pi), rng.uniform(-5, 5)],
                }[bk])
            chs.append(ch_row)
            fks.append(fk_row)
            fps.append(fp_row)
            bks.append(bk_row)
            bps.append(bp_row)
        doc["iter_victim_list"].append(victim)
        doc["control_attackperiod_list"].append(periods)
        doc["iter_malichannel_list"].append(chs)
        doc["iter_freq_type_list"].append(fks)
        doc["iter_freqparavalue_list"].append(fps)
        doc["iter_biastype_list"].append(bks)
        doc["iter_biasparavalue_list"].append(bps)
    return doc


def is_zero(bias) -> bool:
    return not any(bias.by_channel(ch).any() for ch in ChannelId)


class TestIterAttackValueCal:
    def test_step_outside_every_period_gives_zeros(self):
        case = parse_attack_case(running_example_doc(), 6, 300)
        bias = iter_attack_value_cal(6, 100, 300, case)
        assert is_zero(bias)

    def test_running_example_at_step_15(self):
        case = parse_attack_case(running_example_doc(), 6, 300)
        bias = iter_attack_value_cal(6, 15, 300, case)
        # fv1 under both of its periods: x_ite carries the constant 3,
        # v_ite carries constant 2 plus the clustered constant 4.
        assert bias.x_ite_bias[:, 0].tolist() == [3.0] * 300
        mask = stealth_mask(2, 8, 300)
        expected_v = 2.0 + 4.0 * mask
        assert np.array_equal(bias.v_ite_bias[:, 0], expected_v)
        # fv3 and fv5 periods do not contain 15.
        assert not bias.zx_ite_bias.any()
        assert not bias.zv_ite_bias.any()
        # non-victim columns all zero
        for ch in ChannelId:
            matrix = bias.by_channel(ch)
            assert not matrix[:, [1, 3, 5]].any()

    def test_running_example_at_step_25(self):
        case = parse_attack_case(running_example_doc(), 6, 300)
        bias = iter_attack_value_cal(6, 25, 300, case)
        # only fv1's second period ([15, 25], v_ite) and fv3's ([20, 30], zx_ite)
        assert not bias.x_ite_bias.any()
        assert bias.v_ite_bias[:, 0].any()
        assert bias.zx_ite_bias[:, 2].any()
        assert not bias.zv_ite_bias.any()

    def test_matches_enumeration_oracle_on_random_cases(self):
        rng = random.Random(2024)
        for trial in range(100):
            n = rng.randint(2, 8)
            doc = random_attack_doc(rng, n)
            max_iter = rng.choice([50, 120, 300])
            case = parse_attack_case(doc, n, max_iter)
            for _ in range(10):
                k = rng.randint(0, 120)
                got = iter_attack_value_cal(n, k, max_iter, case)
                expected = oracle_bias_matrices(n, k, max_iter, doc)
                for ch in ChannelId:
                    assert np.array_equal(got.by_channel(ch), expected[ch]), (
                        f"trial {trial}, k={k}, channel {ch}"
                    )

    def test_period_boundaries_closed(self):
        case = parse_attack_case(one_slot_doc("Continuous", [0], "Constant", [1.0], (10, 20)), 6, 50)
        assert is_zero(iter_attack_value_cal(6, 9, 50, case))
        assert not is_zero(iter_attack_value_cal(6, 10, 50, case))
        assert not is_zero(iter_attack_value_cal(6, 20, 50, case))
        assert is_zero(iter_attack_value_cal(6, 21, 50, case))

    def test_two_periods_sum_like_single_period_cases(self):
        base = {
            "iter_victim_list": [3],
            "iter_malichannel_list": [[["v_ite"], ["v_ite"]]],
            "iter_freq_type_list": [[["Continuous"], ["Continuous"]]],
            "iter_freqparavalue_list": [[[[0]], [[0]]]],
            "iter_biastype_list": [[["Constant"], ["Linear"]]],
            "iter_biasparavalue_list": [[[[2.0]], [[0.1, 1.0]]]],
            "control_attackperiod_list": [[[5, 15], [10, 20]]],
        }
        combined = iter_attack_value_cal(6, 12, 60, parse_attack_case(base, 6, 60))

        def single(period, channel_doc, freq, fp, bk, bp):
            return parse_attack_case(
                {
                    "iter_victim_list": [3],
                    "control_attackperiod_list": [[period]],
                    "iter_malichannel_list": [channel_doc],
                    "iter_freq_type_list": [freq],
                    "iter_freqparavalue_list": [fp],
                    "iter_biastype_list": [bk],
                    "iter_biasparavalue_list": [bp],
                },
                6,
                60,
            )

        first = iter_attack_value_cal(
            6, 12, 60, single([5, 15], [["v_ite"]], [["Continuous"]], [[[0]]], [["Constant"]], [[[2.0]]])
        )
        second = iter_attack_value_cal(
            6, 12, 60, single([10, 20], [["v_ite"]], [["Continuous"]], [[[0]]], [["Linear"]], [[[0.1, 1.0]]])
        )
        for ch in ChannelId:
            summed = first.by_channel(ch) + second.by_channel(ch)
            assert np.array_equal(combined.by_channel(ch), summed)

    def test_output_shape_fixed(self):
        for case in ((), parse_attack_case(running_example_doc(), 6, 77)):
            bias = iter_attack_value_cal(6, 0, 77, case)
            for ch in ChannelId:
                assert bias.by_channel(ch).shape == (77, 6)

    @given(st.integers(0, 120))
    @settings(max_examples=25, deadline=None)
    def test_sparsity_only_active_victims(self, k):
        doc = running_example_doc()
        bias = iter_attack_value_cal(6, k, 50, parse_attack_case(doc, 6, 50))
        active = {
            victim
            for victim, periods in zip(doc["iter_victim_list"], doc["control_attackperiod_list"])
            if any(s <= k <= e for s, e in periods)
        }
        for ch in ChannelId:
            matrix = bias.by_channel(ch)
            for col in range(6):
                if (col + 1) not in active:
                    assert not matrix[:, col].any()


class TestBiasMatrices:
    def test_arrays_read_only(self):
        bias = BiasMatrices.zeros(10, 3)
        with pytest.raises(ValueError):
            bias.x_ite_bias[0, 0] = 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AttackCaseError):
            BiasMatrices(
                np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((4, 3))
            )
