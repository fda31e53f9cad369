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
    MonteCarloEstimate,
    StreamingMoments,
    bayes_identity_check,
    constants_report,
    gradcheck_activation,
    grid_compare,
    mc_constants,
    weight_correlations,
)

LN3 = 1.0986122886681096914


class TestStreamingMoments:
    def test_matches_numpy_two_pass(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100_000) * 3.7 + 12.0
        mom = StreamingMoments()
        for chunk in np.array_split(values, 13):
            mom.update(chunk)
        assert mom.n == values.size
        assert mom.mean == pytest.approx(values.mean(), rel=1e-12)
        assert mom.std == pytest.approx(values.std(), rel=1e-10)

    def test_merge_resists_cancellation(self):
        # huge common offset: a naive sum-of-squares accumulator dies here
        rng = np.random.default_rng(1)
        values = rng.standard_normal(200_000) + 1e9
        mom = StreamingMoments()
        for chunk in np.array_split(values, 40):
            mom.update(chunk)
        assert mom.std == pytest.approx(values.std(), rel=1e-6)


def _mc(act, n, seed):
    return mc_constants([act], n, seed=seed)[act.name]


class TestMonteCarloConstants:
    def test_estimate_fields(self):
        est = _mc(Activation("xnor", "ail"), 100_000, seed=0)
        assert isinstance(est, MonteCarloEstimate)
        assert est.n == 100_000
        assert est.se_mean == pytest.approx(est.std / math.sqrt(est.n))

    def test_or_ail_against_table(self):
        est = _mc(Activation("or", "ail"), 10_000_000, seed=0)
        assert abs(est.mean - 0.68104) <= 4 * est.se_mean
        assert abs(est.std - 0.97229) <= 2e-3

    def test_xnor_il_against_table(self):
        est = _mc(Activation("xnor", "il"), 10_000_000, seed=1)
        assert abs(est.mean - 0.0) <= 4 * est.se_mean
        assert abs(est.std - 0.36641) <= 2e-3

    def test_xnor_ail_closed_form_std(self):
        est = _mc(Activation("xnor", "ail"), 10_000_000, seed=2)
        assert abs(est.std - math.sqrt(1 - 2 / math.pi)) <= 2e-3

    def test_seed_determinism(self):
        a = _mc(Activation("and", "ail"), 100_000, seed=3)
        b = _mc(Activation("and", "ail"), 100_000, seed=3)
        assert (a.mean, a.std) == (b.mean, b.std)

    def test_shared_stream_matches_one_act_calls(self, monkeypatch):
        # Three chunks (40k, 40k, 20k, the last shorter than a BLOCK), each
        # shared by seven gates: every estimate has the bits of a call that
        # draws the stream for its gate alone.
        monkeypatch.setattr(verify, "MC_CHUNK", 40_000)
        acts = [Activation(kind, family) for kind, family in sorted(NORMALIZATION_TABLE)]
        acts.append(Activation("xnor", "il", True))
        shared = mc_constants(acts, 100_000, seed=5)
        assert len(shared) == len(acts)
        for act in acts:
            assert shared[act.name] == _mc(act, 100_000, seed=5)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_one_input_kind_anywhere(self, position):
        acts = [Activation("and", "il"), Activation("or", "ail")]
        acts.insert(position, Activation("relu", "raw"))
        with pytest.raises(ValueError, match="2-input"):
            mc_constants(acts, 1000)

    def test_blocked_gate_pass_keeps_every_bit(self, monkeypatch):
        # Two gates run on 1000-element slices of the chunks they share, the
        # last of which is shorter than a chunk and not a whole number of
        # slices; each gate's moments still see whole chunks drawn in the
        # same order.
        monkeypatch.setattr(verify, "MC_CHUNK", 2500)
        monkeypatch.setattr(verify, "BLOCK", 1000)
        acts = [Activation("xnor", "il", True), Activation("and", "ail")]
        rng = np.random.default_rng(4)
        moments = [StreamingMoments() for _ in acts]
        for k in (2500, 2500, 1700):
            x, y = rng.standard_normal(k), rng.standard_normal(k)
            for act, mom in zip(acts, moments):
                mom.update(apply(act, x, y))
        est = mc_constants(acts, 6700, seed=4)
        for act, mom in zip(acts, moments):
            assert (est[act.name].mean, est[act.name].std) == (mom.mean, mom.std)


def _never_runs(*args, **kwargs):
    raise AssertionError("a gate ran")


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

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "grid.csv"
        [rep] = grid_compare(["or"], half_range=1.0, step=0.5, csv_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,exact,approx,diff"
        assert len(lines) == 1 + 5 * 5
        cols = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.abs(np.abs(cols[:, 4]).max() - rep.max_abs_diff) < 1e-9

    @pytest.mark.parametrize("arg, value", [
        ("step", 0.0), ("step", -0.1), ("step", math.inf), ("step", math.nan),
        ("half_range", -1.0), ("half_range", math.inf), ("half_range", math.nan),
    ])
    def test_rejects_bad_step(self, arg, value, monkeypatch):
        monkeypatch.setattr(verify, "apply", _never_runs)
        with pytest.raises(ValueError, match=arg):
            grid_compare(["and"], **{arg: value})

    @pytest.mark.parametrize("csv, keep_surfaces", [(True, False), (False, True)])
    def test_outputs_hold_one_kind(self, csv, keep_surfaces, tmp_path):
        path = tmp_path / "two.csv"
        with pytest.raises(ValueError, match="one kind"):
            grid_compare(["and", "or"], half_range=1.0, step=0.5,
                         csv_path=path if csv else None, keep_surfaces=keep_surfaces)
        assert not path.exists()

    @pytest.mark.parametrize("block", [7, 20])
    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_bands_match_whole_grid(self, kind, block, monkeypatch, tmp_path):
        # 9 rows in bands of 1 or 2; xnor's maximum ties at the four corners,
        # in the first and the last band, and the first in row-major order wins.
        monkeypatch.setattr(verify, "BLOCK", block)
        axes = -1.0 + 0.25 * np.arange(9)
        x, y = np.meshgrid(axes, axes, indexing="ij", sparse=True)
        exact = apply(Activation(kind, "il"), x, y)
        approx = apply(Activation(kind, "ail"), x, y)
        signed = approx - exact
        diff = np.abs(signed)
        i, j = np.unravel_index(int(diff.argmax()), diff.shape)
        distance = verify._kink_distance(x, y)
        ref_csv = tmp_path / "whole.csv"
        np.savetxt(ref_csv, np.column_stack([np.broadcast_to(x, diff.shape).ravel(),
                                             np.broadcast_to(y, diff.shape).ravel(),
                                             exact.ravel(), approx.ravel(), signed.ravel()]),
                   delimiter=",", header="x,y,exact,approx,diff", comments="", fmt="%.12g")
        if kind == "xnor":
            assert np.count_nonzero(diff == diff.max()) == 4

        [rep] = grid_compare([kind], half_range=1.0, step=0.25, csv_path=tmp_path / "bands.csv",
                             keep_surfaces=True)
        assert rep.max_abs_diff == diff[i, j]
        assert rep.argmax == (axes[i], axes[j])
        assert rep.masked_max_abs_diff == np.max(diff, where=distance > verify.EXCLUSION,
                                                 initial=0.0)
        assert rep.wide_masked_max_abs_diff == np.max(diff, where=distance > verify.WIDE_EXCLUSION,
                                                      initial=0.0)
        assert np.array_equal(rep.exact, exact) and np.array_equal(rep.approx, approx)
        assert (tmp_path / "bands.csv").read_bytes() == ref_csv.read_bytes()
        # With neither output, each band evaluates only the columns from its
        # first row on; every field keeps the whole grid's bits, also when one
        # walk serves every kind.
        [half] = grid_compare([kind], half_range=1.0, step=0.25)
        shared = grid_compare(GATE_KINDS, half_range=1.0, step=0.25)[GATE_KINDS.index(kind)]
        for got in (half, shared):
            assert got == GridCompareReport(kind, rep.max_abs_diff, rep.argmax,
                                            rep.masked_max_abs_diff, rep.wide_masked_max_abs_diff)

    @pytest.mark.parametrize("i, j", [(2, 3), (3, 4)])
    def test_half_grid_finds_an_off_diagonal_maximum(self, i, j, monkeypatch):
        # The gate differences peak on the diagonal (or tie with it) on every
        # grid, so a symmetric stand-in peaks only at the mirrored cells (i, j)
        # and (j, i). Bands are rows 2-3, 4-5, ... of 9 columns: (2, 3) and
        # (3, 2) share a band; (3, 4) is in the second row of a band that
        # starts at column 2, and (4, 3) lies left of its band's first column.
        axes = -1.0 + 0.25 * np.arange(9)
        pair_sum, pair_product = axes[i] + axes[j], axes[i] * axes[j]

        def stand_in(act, x, y):
            if act.family == "il":
                return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return 1.0 / (1.0 + (x + y - pair_sum) ** 2 + (x * y - pair_product) ** 2)

        monkeypatch.setattr(verify, "BLOCK", 20)
        monkeypatch.setattr(verify, "apply", stand_in)
        [whole] = grid_compare(["and"], half_range=1.0, step=0.25, keep_surfaces=True)
        diff = whole.approx - whole.exact
        assert np.argwhere(diff == diff.max()).tolist() == [[i, j], [j, i]]
        assert whole.argmax == (axes[i], axes[j])
        # Every kind sees the same stand-in, so a walk for all of them gives
        # the whole grid's fields for each.
        for half in grid_compare(["and"], half_range=1.0, step=0.25) \
                + grid_compare(GATE_KINDS, half_range=1.0, step=0.25):
            assert (half.max_abs_diff, half.argmax, half.masked_max_abs_diff,
                    half.wide_masked_max_abs_diff) == (whole.max_abs_diff, whole.argmax,
                                                       whole.masked_max_abs_diff,
                                                       whole.wide_masked_max_abs_diff)

    def test_default_grid_peaks_below_one_surface(self):
        # A 2001 x 2001 surface is 32 MB; the bands keep the peak far below
        # it, also with every kind folded in one walk.
        tracemalloc.start()
        try:
            reps = grid_compare(GATE_KINDS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(rep.exact is None for rep in reps)
        assert peak < 2001 * 2001 * 8, peak


class TestGradcheck:
    def test_all_kinds_pass(self):
        for act in (Activation("and", "il"), Activation("xnor", "ail"),
                    Activation("or", "il", normalized=True)):
            rep = gradcheck_activation(act, n_points=2000, seed=0)
            assert rep.max_rel_err < 1e-5, act.name

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
        assert bayes_identity_check(10_000, seed=0) < 1e-12

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
    def test_corrupted_constant_detected(self):
        table = dict(NORMALIZATION_TABLE)
        mean, _ = table[("or", "ail")]
        table[("or", "ail")] = (mean, 1.5)  # break the std
        results = constants_report(n=200_000, seed=0, table=table)[0]
        failing = [r.name for r in results if not r.passed]
        assert "OR_AIL std" in failing

    def test_clean_table_passes_at_moderate_n(self):
        results = constants_report(n=2_000_000, seed=0)[0]
        assert all(r.passed for r in results)


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
