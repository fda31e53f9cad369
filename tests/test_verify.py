import math
import tracemalloc

import numpy as np
import pytest

from logitgates import verify
from logitgates.activations import GATE_KINDS, Activation, NORMALIZATION_TABLE, apply
from logitgates.ensemble import parse_spec
from logitgates.network import Affine, BatchNorm, Network
from logitgates.verify import (
    GridCompareReport,
    bayes_identity_check,
    constants_report,
    gradcheck_activation,
    grid_compare,
    normal_moments,
    weight_correlations,
)

LN3 = 1.0986122886681096914


class TestNormalMoments:
    def test_rule_integrates_low_moments_of_the_normal(self):
        x, y, w = verify._polar_rule(verify.QUADRATURE_NODES)
        assert x.size == 8 * verify.QUADRATURE_NODES ** 2
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
        for f, expected in ((x, 0.0), (y, 0.0), (x * y, 0.0), (x * x, 1.0), (y * y, 1.0),
                            (x ** 4, 3.0), (x * x * y * y, 1.0)):
            assert math.fsum(w * f) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("kind, family", sorted(NORMALIZATION_TABLE))
    def test_twice_the_nodes_agrees(self, kind, family, monkeypatch):
        act = Activation(kind, family)
        [base] = normal_moments([act]).values()
        monkeypatch.setattr(verify, "QUADRATURE_NODES", 2 * verify.QUADRATURE_NODES)
        [fine] = normal_moments([act]).values()
        assert np.allclose(base, fine, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_one_input_kind_anywhere(self, position):
        acts = [Activation("and", "il"), Activation("or", "ail")]
        acts.insert(position, Activation("relu", "raw"))
        with pytest.raises(ValueError, match="2-input"):
            normal_moments(acts)


def _never_runs(*args, **kwargs):
    raise AssertionError("a gate ran")


def _whole_grid(gate, kind, half_range, step):
    """grid_compare's report from whole surfaces on its axes; also the axes and |difference|."""
    count = round(2 * half_range / step)
    axes = step * (np.arange(count + 1) - count / 2)
    x, y = np.meshgrid(axes, axes, indexing="ij", sparse=True)
    diff = np.abs(gate(Activation(kind, "ail"), x, y) - gate(Activation(kind, "il"), x, y))
    i, j = np.unravel_index(int(diff.argmax()), diff.shape)
    distance = verify._kink_distance(x, y)
    return GridCompareReport(
        kind, diff[i, j], (axes[i], axes[j]),
        np.max(diff, where=distance > verify.EXCLUSION, initial=0.0),
        np.max(diff, where=distance > verify.WIDE_EXCLUSION, initial=0.0)), axes, diff


class TestGridCompare:
    def test_and_origin_exceeds_one_strictly(self):
        [rep] = grid_compare(["and"], half_range=3.0, step=0.05)
        assert rep.max_abs_diff == pytest.approx(LN3, abs=1e-9)
        assert rep.argmax == (0.0, 0.0)

    def test_xnor_bounded_by_one(self):
        [rep] = grid_compare(["xnor"], half_range=10.0, step=0.05)
        assert rep.max_abs_diff <= 1.0 + 1e-9

    def test_relative_difference_decays_outward(self):
        axes_small = np.arange(0.01, 1.0, 0.01)
        xs, ys = np.meshgrid(axes_small, axes_small, indexing="ij")
        from logitgates.activations import or_ail, or_il

        rel_inner = np.abs((or_ail(xs, ys) - or_il(xs, ys)) / or_il(xs, ys)).max()
        axes_far = np.arange(5.0, 10.0, 0.01)
        xf, yf = np.meshgrid(axes_far, axes_far, indexing="ij")
        rel_outer = np.abs((or_ail(xf, yf) - or_il(xf, yf)) / or_il(xf, yf)).max()
        assert rel_outer < rel_inner

    @pytest.mark.parametrize("arg, value", [
        ("step", 0.0), ("step", -0.1), ("step", math.inf), ("step", math.nan),
        ("half_range", -1.0), ("half_range", math.inf), ("half_range", math.nan),
        # finite, but the point count 2 * half_range / step overflows to inf
        ("half_range", 1e308), ("step", 1e-10),
    ])
    def test_rejects_bad_step(self, arg, value, monkeypatch):
        monkeypatch.setattr(verify, "apply", _never_runs)
        args = {"half_range": 1e300, "step": 0.01, arg: value}
        with pytest.raises(ValueError, match=arg):
            verify.grid_axes(**args)
        with pytest.raises(ValueError, match=arg):
            grid_compare(["and"], **args)

    @pytest.mark.parametrize("block", [1, 20, 27, 32768])
    @pytest.mark.parametrize("half_range, step", [(1.0, 0.25), (1.0, 0.3), (0.5, 1 / 3),
                                                  (0.0, 0.1)])
    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_reduced_walk_matches_whole_grid(self, kind, half_range, step, block, monkeypatch):
        # 9, 8, 4 and 1 points; bands of 1, 2 or 3 rows (27: rows 3-5 hold the
        # middle of both 9 and 8 points) or the whole grid in one band. On 9
        # points xnor's maximum ties at the four corners.
        monkeypatch.setattr(verify, "BLOCK", block)
        ref, axes, diff = _whole_grid(apply, kind, half_range, step)
        assert np.array_equal(axes[::-1], -axes)
        if kind == "xnor" and axes.size == 9:
            assert np.count_nonzero(diff == diff.max()) == 4
        assert np.array_equal(verify.grid_axes(half_range, step), axes)
        [walked] = grid_compare([kind], half_range, step)
        shared = grid_compare(GATE_KINDS, half_range, step)[GATE_KINDS.index(kind)]
        assert walked == shared == ref

    @pytest.mark.parametrize("kinds, cells", [
        (["and"], {"and": 45}), (["or"], {"and": 45}), (["xnor"], {"xnor": 15}),
        (GATE_KINDS, {"and": 45, "xnor": 15}),
    ])
    def test_walk_evaluates_one_symmetry_class(self, kinds, cells, monkeypatch):
        # Bands of one row on 9 points: the and pair runs on the 45 cells with
        # x <= y and serves or; the xnor pair on the 15 with x <= y <= 0.
        evaluated = {}

        def counting_apply(act, x, y):
            evaluated[act.name] = evaluated.get(act.name, 0) + np.broadcast(x, y).size
            return apply(act, x, y)

        monkeypatch.setattr(verify, "BLOCK", 9)
        monkeypatch.setattr(verify, "apply", counting_apply)
        grid_compare(kinds, half_range=1.0, step=0.25)
        assert evaluated == {f"{kind}_{family}": count for kind, count in cells.items()
                             for family in ("il", "ail")}

    @pytest.mark.parametrize("i, j", [(2, 3), (3, 4)])
    def test_half_grid_finds_an_off_diagonal_maximum(self, i, j, monkeypatch):
        # The gate differences peak on the diagonal (or tie with it) on every
        # grid, so stand-ins with each kind's symmetries peak off it. The and
        # and or stand-ins tie at (i, j), at its negation (8 - i, 8 - j) and at
        # their transposes; xnor's at every cell with the magnitudes of (i, j).
        # Bands are rows 2-3, 4-5, ... of 9 columns: (2, 3) and (3, 2) share a
        # band; (3, 4) is in the second row of a band that starts at column 2,
        # (4, 3) lies left of its band's first column, and or's first maximum
        # is the negation of and's last one, in a later band.
        axes = -1.0 + 0.25 * np.arange(9)
        pair_sum, pair_product = axes[i] + axes[j], axes[i] * axes[j]

        def bump(x, y):
            return 1.0 / (1.0 + (x + y - pair_sum) ** 2 + (x * y - pair_product) ** 2)

        def stand_in(act, x, y):
            if act.family == "il":
                return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
            if act.kind == "xnor":  # even in each operand, as |xnor difference| is
                x, y = np.abs(x), np.abs(y)
            return np.maximum(bump(x, y), bump(-x, -y))

        monkeypatch.setattr(verify, "BLOCK", 20)
        monkeypatch.setattr(verify, "apply", stand_in)
        mirrored = {(i, j), (j, i), (8 - i, 8 - j), (8 - j, 8 - i)}
        peaks = {"and": mirrored, "or": mirrored,
                 "xnor": mirrored | {(i, 8 - j), (8 - j, i), (8 - i, j), (j, 8 - i)}}
        for kind in GATE_KINDS:
            ref, _, diff = _whole_grid(stand_in, kind, 1.0, 0.25)
            assert set(map(tuple, np.argwhere(diff == diff.max()).tolist())) == peaks[kind]
            assert ref.argmax == (axes[i], axes[j])
            assert grid_compare([kind], half_range=1.0, step=0.25) == [ref]
            assert grid_compare(GATE_KINDS, half_range=1.0, step=0.25)[
                GATE_KINDS.index(kind)] == ref

    def test_default_grid_peaks_below_one_surface(self):
        # A 2001 x 2001 surface is 32 MB; the bands keep the peak far below
        # it, also with every kind folded in one walk.
        tracemalloc.start()
        try:
            grid_compare(GATE_KINDS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2001 * 2001 * 8, peak


class TestGradcheck:
    def test_all_kinds_pass(self, monkeypatch):
        monkeypatch.setattr(verify, "GRADCHECK_POINTS", 2000)
        acts = (Activation("and", "il"), Activation("xnor", "ail"),
                Activation("or", "il", normalized=True))
        reps = gradcheck_activation(acts, seed=0)
        assert [rep.name for rep in reps] == [act.name for act in acts]
        for rep in reps:
            assert rep.max_rel_err < 1e-5, rep.name

    @pytest.mark.parametrize("seed", [0, 49])
    def test_shared_points_match_one_act_calls(self, seed):
        acts = verify.all_activation_variants()
        reps = gradcheck_activation(acts, seed=seed)
        assert len(reps) == len(acts) == 16
        for act, rep in zip(acts, reps):
            [alone] = gradcheck_activation([act], seed=seed)
            assert rep.name == alone.name == act.name
            assert rep.max_rel_err == alone.max_rel_err, act.name

    def test_suite_draws_points_once(self, monkeypatch):
        draws = []
        draw = verify._interior_points
        monkeypatch.setattr(verify, "_interior_points",
                            lambda n, seed: draws.append(seed) or draw(n, seed))
        results = verify.gradients_suite(seed=3)
        assert draws == [3]
        assert len(results) == 16 and all(r.passed for r in results)

    def test_suite_runs_each_gate_once(self, monkeypatch):
        calls = {"gradient": [], "apply": []}
        for name, seen in calls.items():
            def counted(act, *operands, _seen=seen, _call=getattr(verify, name)):
                _seen.append((act, operands))
                return _call(act, *operands)
            monkeypatch.setattr(verify, name, counted)
        results = verify.gradients_suite(seed=3)
        assert len(results) == 16 and all(r.passed for r in results)
        # One gradient per (kind, family), and four shifted values per
        # 2-input gate (two for relu), taken from the raw gate only, on
        # operands no gate can write into.
        gates = [act for act, _ in calls["gradient"]]
        assert len(gates) == len(set(gates)) == 10
        assert len(calls["apply"]) == 9 * 4 + 2 == 38
        assert not any(act.normalized for seen in calls.values() for act, _ in seen)
        assert not any(operand.flags.writeable for seen in calls.values()
                       for _, operands in seen for operand in operands)

    def test_reports_follow_the_acts_in_any_order(self):
        # Reversed then interleaved: every normalized act comes first, apart
        # from its raw twin; one act is repeated.
        reverse = verify.all_activation_variants()[::-1]
        acts = reverse[0::2] + reverse[1::2] + reverse[:1]
        assert acts.index(Activation("and", "il", True)) < acts.index(Activation("and", "il")) - 1
        reps = gradcheck_activation(acts, seed=1)
        assert [rep.name for rep in reps] == [act.name for act in acts]
        for act, rep in zip(acts, reps):
            [alone] = gradcheck_activation([act], seed=1)
            assert rep.max_rel_err == alone.max_rel_err, act.name

    def test_nan_partial_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "GRADCHECK_POINTS", 10)
        gradient = verify.gradient
        monkeypatch.setattr(verify, "gradient", lambda act, x, y: (
            np.full_like(x, np.nan), gradient(act, x, y)[1]))
        [rep] = gradcheck_activation([Activation("and", "il")])
        assert math.isnan(rep.max_rel_err)

    def test_no_acts_give_no_reports(self):
        assert gradcheck_activation([]) == []

    @pytest.mark.parametrize("operand", [0, 1])
    def test_gate_writing_into_an_operand_raises(self, operand, monkeypatch):
        gradient = verify.gradient

        def writes_into_operand(act, *operands):
            operands[operand][0] = 0.0
            return gradient(act, *operands)

        monkeypatch.setattr(verify, "GRADCHECK_POINTS", 10)
        monkeypatch.setattr(verify, "gradient", writes_into_operand)
        with pytest.raises(ValueError, match="read-only"):
            gradcheck_activation([Activation("and", "il")])

    def test_xnor_il_specific_point(self):
        act = Activation("xnor", "il")
        from logitgates.activations import apply, gradient

        h = 1e-5
        gx, gy = gradient(act, 0.5, -0.7)
        fdx = (apply(act, 0.5 + h, -0.7) - apply(act, 0.5 - h, -0.7)) / (2 * h)
        fdy = (apply(act, 0.5, -0.7 + h) - apply(act, 0.5, -0.7 - h)) / (2 * h)
        assert abs(gx - fdx) < 1e-7 and abs(gy - fdy) < 1e-7


class TestBayesIdentities:
    def test_max_error_tiny(self):
        assert bayes_identity_check(seed=0) < 1e-12

    def test_origin_probabilities(self):
        from logitgates.activations import and_il, or_il
        from logitgates.numerics import sigmoid

        assert sigmoid(and_il(0.0, 0.0)) == pytest.approx(0.25, abs=1e-15)
        assert sigmoid(or_il(0.0, 0.0)) == pytest.approx(0.75, abs=1e-15)

    def test_certain_event_is_absorbed(self):
        from logitgates.activations import and_il

        xs = np.linspace(-5, 5, 101)
        assert np.abs(and_il(xs, np.full_like(xs, 40.0)) - xs).max() < 1e-9


class TestWeightCorrelations:
    def _net(self):
        return Network([Affine(6, 8), BatchNorm(8), parse_spec("xnor_ail"),
                        Affine(4, 1)], seed=0)

    def test_orthogonal_rows_give_zero(self):
        net = self._net()
        w = np.zeros((6, 8))
        for j in range(6):
            w[j, j] = 1.0
        w[0, 6], w[1, 7] = 1.0, 1.0
        net.layers[0].weight[:] = w
        paired, _ = weight_correlations(net, 0)
        assert np.abs(paired[:3]).max() < 1e-12

    def test_negated_pair_gives_minus_one(self):
        net = self._net()
        net.layers[0].weight[:, 1] = -net.layers[0].weight[:, 0]
        paired, _ = weight_correlations(net, 0)
        assert paired[0] == pytest.approx(-1.0)

    def test_contract_violation(self):
        net = Network([Affine(4, 4), parse_spec("relu"), Affine(4, 1)], seed=0)
        with pytest.raises(ValueError):
            weight_correlations(net, 0)
        with pytest.raises(ValueError):
            weight_correlations(self._net(), 3)  # head affine feeds nothing

    def test_random_pairs_of_untrained_net_center_near_zero(self):
        net = Network([Affine(64, 64), parse_spec("xnor_ail"), Affine(32, 1)],
                      seed=4)
        _, random_pairs = weight_correlations(net, 0, seed=4)
        assert abs(np.mean(random_pairs)) < 0.15


class TestConstantsSuite:
    def test_corrupted_constant_detected(self, monkeypatch):
        table = dict(NORMALIZATION_TABLE)
        mean, _ = table[("or", "ail")]
        table[("or", "ail")] = (mean, 1.5)  # break the std
        monkeypatch.setattr(verify, "NORMALIZATION_TABLE", table)
        results = constants_report()[0]
        failing = [r.name for r in results if not r.passed]
        assert "OR_AIL std" in failing

    def test_small_mean_shift_detected(self, monkeypatch):
        # Twice the il rows' bound; 1e7 normal samples could not resolve it
        # (4 standard errors of the AND_IL mean are about 1.2e-3).
        table = dict(NORMALIZATION_TABLE)
        mean, std = table[("and", "il")]
        table[("and", "il")] = (mean + 1e-4, std)
        monkeypatch.setattr(verify, "NORMALIZATION_TABLE", table)
        results = constants_report()[0]
        assert [r.name for r in results if not r.passed] == ["AND_IL mean"]

    def test_clean_table_passes(self):
        results, moments = constants_report()
        assert len(results) == 12 and all(r.passed for r in results)
        assert set(moments) == {Activation(kind, family).name
                                for kind, family in NORMALIZATION_TABLE}


def test_random_pair_cosines_near_zero_after_training():
    # loose stochastic check on a trained net: non-partnered features stay
    # roughly independent while operand pairs may correlate
    from logitgates import data
    from logitgates.experiments import build_network
    from logitgates.train import TrainConfig, fit

    ds = data.gen_parity4(1024, 0)
    net = build_network("parity4", [32, 2], "xnor_ail", 0)
    cfg = TrainConfig(epochs=60, batch_size=64, max_lr=0.01, weight_decay=1e-4,
                      seed=0, loss="bce-with-logits")
    fit(net, ds, cfg)
    _, random_pairs = weight_correlations(net, 0, seed=0)
    assert abs(np.mean(random_pairs)) < 0.15



def test_weight_correlations_single_pair_layer():
    # two output columns = one operand pair: no non-partner pairs to sample
    net = Network([Affine(3, 2), parse_spec("xnor_ail"), Affine(1, 1)], seed=0)
    paired, random_pairs = weight_correlations(net, 0)
    assert paired.shape == (1,) and random_pairs.size == 0
