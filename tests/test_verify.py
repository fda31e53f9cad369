import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitgates import activations, verify
from logitgates.activations import GATE_KINDS, Activation, NORMALIZATION_TABLE, apply
from logitgates.ensemble import parse_spec
from logitgates.network import Affine, BatchNorm, Network
from logitgates.verify import (
    CheckResult,
    GridCompareReport,
    bayes_identity_check,
    constants_report,
    gradcheck_activation,
    gradcheck_network,
    grid_compare,
    normal_moments,
    weight_correlations,
)

LN3 = 1.0986122886681096914


def _outcomes(terms):
    """``_exact_sum``'s and fsum's outcome: the sum's bits, or the type and message it raised."""
    t = np.asarray(terms, dtype=float)
    outcomes = []
    for sum_ in (verify._exact_sum, lambda t: math.fsum(t.tolist())):
        try:
            outcomes.append(sum_(t).hex())
        except (ValueError, OverflowError) as error:
            outcomes.append((type(error), str(error)))
    return tuple(outcomes)


class TestExactSum:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-300, 1e-300),  # subnormals among them
        st.floats(-1.0, 1.0)), max_size=40))
    def test_matches_fsum_on_finite_floats(self, terms):
        exact, fsum = _outcomes(terms)
        assert exact == fsum

    @pytest.mark.parametrize("n", [0, 1, 2 ** 13, 2 ** 13 + 1])
    def test_matches_fsum_at_level_counts(self, n):
        rng = np.random.default_rng(n)
        exact, fsum = _outcomes(rng.standard_normal(n) * np.exp2(rng.integers(-80, 80, n)))
        assert exact == fsum

    def test_terms_just_below_the_level_cut(self):
        # 2^13 terms give b = 40: each term sits just below 1 = 2^(e + b), at
        # a multiple of 2^-41, with 2^-43 more in the last. If the level cut at
        # 2^-41 (b one bit larger), its sum would need 54 bits and round to
        # even before fsum sees the 2^-43, and the result would move one ulp.
        m = np.ones(2 ** 13)
        m[-1] = 4.0
        terms = 1 - m * 2.0 ** -41
        terms[-1] += 2.0 ** -43
        exact, fsum = _outcomes(terms)
        assert exact == fsum

    @pytest.mark.parametrize("big", [1e300, 1e-300])
    def test_cancellations(self, big):
        # Exactly 1 + 2^-53 + 2^-60, just above the tie between 1 and 1 + 2^-52.
        terms = [big, 1.0, -big, 2.0 ** -60, big, -big, 2.0 ** -53]
        assert _outcomes(terms) == ((1 + 2.0 ** -52).hex(),) * 2

    def test_negative_zeros_sum_to_positive_zero(self):
        assert _outcomes([-0.0] * 5) == ((0.0).hex(),) * 2

    @pytest.mark.parametrize("terms", [
        [math.nan, 1.0], [math.inf, 1.0], [math.inf, -math.inf], [1.7e308, 1.7e308],
        # fsum's left-to-right order overflows; numpy's pairwise order would not.
        [1e308, 1e308] + [0.0] * 6 + [-1e308, -1e308] + [0.0] * 6])
    def test_non_finite_and_overflow_as_fsum(self, terms):
        exact, fsum = _outcomes(terms)
        assert exact == fsum


class TestNormalMoments:
    def test_estimates_keep_their_bits(self):
        acts = [Activation(kind, family) for kind, family in sorted(NORMALIZATION_TABLE)]
        assert normal_moments(acts) == {
            "and_ail": (-0.6810370721753103, 0.9722877400310953),
            "and_il": (-1.2989554058287938, 0.9483598547472291),
            "or_ail": (0.6810370721753102, 0.9722877400310953),
            "or_il": (1.2989554058287938, 0.9483598547472291),
            "xnor_ail": (-2.877797751016542e-18, 0.6028102749890867),
            "xnor_il": (-9.293643741587393e-19, 0.3664147893711065),
        }

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

    def test_one_shot_acts_give_every_row(self):
        acts = [Activation("and", "il"), Activation("or", "ail")]
        assert list(normal_moments(act for act in acts)) == ["and_il", "or_ail"]

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
    distance = verify._kink_distance(x, y)
    return GridCompareReport(
        kind, diff.max(), np.max(diff, where=distance > verify.EXCLUSION, initial=0.0),
        np.max(diff, where=distance > verify.WIDE_EXCLUSION, initial=0.0)), axes, diff


def _nan_apply(**where):
    """``apply`` with each gate named in ``where`` NaN wherever ``where[name](x, y)`` holds."""
    def broken(act, x, y):
        value = apply(act, x, y)
        return np.where(where[act.name](x, y), np.nan, value) if act.name in where else value
    return broken


def _at(*cells):
    """Whether (x, y) is one of the cells."""
    return lambda x, y: np.logical_or.reduce([(x == a) & (y == b) for a, b in cells])


class TestGridCompare:
    def test_and_origin_exceeds_one_strictly(self):
        [rep] = grid_compare(["and"], half_range=3.0, step=0.05)
        assert rep.max_abs_diff == pytest.approx(LN3, abs=1e-9)

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
        with pytest.raises(ValueError, match=arg):
            grid_compare([], **args)

    def test_no_kinds_give_no_reports(self, monkeypatch):
        monkeypatch.setattr(verify, "apply", _never_runs)
        assert grid_compare([]) == []

    @pytest.mark.parametrize("kinds", [["and"], ["and", "xnor"], ["or", "and", "xnor"]])
    def test_one_shot_kinds_give_every_report(self, kinds):
        expected = grid_compare(kinds, 1.0, 0.25)
        assert [report.kind for report in expected] == kinds
        assert grid_compare(iter(kinds), 1.0, 0.25) == expected
        assert grid_compare((kind for kind in kinds), 1.0, 0.25) == expected

    @pytest.mark.parametrize("block", [1, 20, 27, 32768])
    @pytest.mark.parametrize("half_range, step", [
        (1.0, 0.25), (1.0, 0.3), (0.5, 1 / 3), (0.0, 0.1),
        (1.0, verify.WIDE_EXCLUSION * math.sqrt(2) / 14),
        (1.0, verify.EXCLUSION * math.sqrt(2) / 2), (0.3, 0.001)])
    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_reduced_walk_matches_whole_grid(self, kind, half_range, step, block, monkeypatch):
        # 9, 8, 4 and 1 points; bands of 1, 2 or 3 rows (27: rows 3-5 hold the
        # middle of both 9 and 8 points) or the whole grid in one band. On 9
        # points xnor's maximum ties at the four corners. On the next two
        # grids WIDE_EXCLUSION * sqrt(2) / step is 14 and EXCLUSION *
        # sqrt(2) / step is 2, up to rounding, so cells lie at an exclusion
        # from x = y and x = -y, next to where the walk's column blocks end;
        # the last grid's 601 points make bands of up to 54 rows.
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
        # and (4, 3) lies left of its band's first column.
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
            assert grid_compare([kind], half_range=1.0, step=0.25) == [ref]
            assert grid_compare(GATE_KINDS, half_range=1.0, step=0.25)[
                GATE_KINDS.index(kind)] == ref

    @pytest.mark.parametrize("block", [20, 500])
    def test_cells_at_an_exclusion_are_excluded(self, block, monkeypatch):
        # A stand-in difference that falls with the distance to the kink
        # lines, so each masked maximum sits at the nearest cells kept. On
        # 101 points of step 0.02 the rows and columns at |coordinate| =
        # EXCLUSION and = WIDE_EXCLUSION lie exactly at an exclusion, so
        # they are not kept, also far from x = y and x = -y.
        def stand_in(act, x, y):
            if act.family == "il":
                return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return 1.0 / (1.0 + verify._kink_distance(x, y))

        edges = [verify.EXCLUSION, verify.WIDE_EXCLUSION]
        assert np.isin(edges + [-eps for eps in edges], verify.grid_axes(1.0, 0.02)).all()
        monkeypatch.setattr(verify, "BLOCK", block)
        monkeypatch.setattr(verify, "apply", stand_in)
        for kind in GATE_KINDS:
            ref, _, _ = _whole_grid(stand_in, kind, 1.0, 0.02)
            assert ref.masked_max_abs_diff < 1 / (1 + verify.EXCLUSION)
            assert ref.wide_masked_max_abs_diff < 1 / (1 + verify.WIDE_EXCLUSION)
            assert grid_compare([kind], 1.0, 0.02) == [ref]

    @pytest.mark.parametrize("gate, kinds", [("and_il", ["and", "or"]), ("xnor_il", ["xnor"])])
    def test_nan_region_fails_every_row_it_serves(self, gate, kinds, monkeypatch):
        # On the default grid, with the gate NaN where |x|, |y| > 3: a
        # region of every symmetry class, so each walk meets it.
        monkeypatch.setattr(verify, "apply", _nan_apply(
            **{gate: lambda x, y: (np.abs(x) > 3) & (np.abs(y) > 3)}))
        results = verify.diff_bound_suite()
        failed = [r for r in results if not r.passed]
        assert len(results) == 9 and len(failed) == 3 * len(kinds)
        assert {r.name.split()[1] for r in failed} == set(kinds)
        assert all(math.isnan(r.value) for r in failed)

    @pytest.mark.parametrize("block", [20, 32768])
    @pytest.mark.parametrize("gate, kinds", [("and_il", ["and", "or"]), ("xnor_il", ["xnor"])])
    def test_one_nan_cell_on_a_kink_line_fails_only_the_strict_row(
            self, gate, kinds, block, monkeypatch):
        # Each cell lies on a kink line, inside both exclusion bands, one at a
        # time: (-0.5, 0) on y = 0, and cells on y = x and y = -x in the
        # symmetry class the gate's walk evaluates. and's difference at a cell
        # is or's at its negation.
        cells = {"and_il": [(-0.5, 0.0), (0.5, 0.5), (-0.5, 0.5)],
                 "xnor_il": [(-0.5, 0.0), (-0.5, -0.5)]}[gate]
        monkeypatch.setattr(verify, "BLOCK", block)
        clean = grid_compare(GATE_KINDS, 1.0, 0.25)
        monkeypatch.setattr(verify, "grid_compare", lambda kinds: grid_compare(kinds, 1.0, 0.25))
        for cell in cells:
            monkeypatch.setattr(verify, "apply", _nan_apply(**{gate: _at(cell)}))
            for before, after in zip(clean, grid_compare(GATE_KINDS, 1.0, 0.25)):
                if after.kind not in kinds:
                    assert after == before
                    continue
                assert math.isnan(after.max_abs_diff), cell
                assert after.masked_max_abs_diff == before.masked_max_abs_diff, cell
                assert after.wide_masked_max_abs_diff == before.wide_masked_max_abs_diff, cell
            assert {r.name for r in verify.diff_bound_suite() if not r.passed} == {
                f"diff {kind} (strict, reported)" for kind in kinds}, cell

    def test_nan_cells_match_the_whole_grid(self, monkeypatch):
        # and_il is NaN at two cells and their transposes, or_il at the
        # negated cells, as duality has it; bands are rows 2-3, 4-5, ...
        cells = [(-0.5, -0.25), (-0.25, -0.5), (0.0, 0.5), (0.5, 0.0)]
        broken = _nan_apply(and_il=_at(*cells), or_il=_at(*[(-a, -b) for a, b in cells]))
        monkeypatch.setattr(verify, "BLOCK", 20)
        monkeypatch.setattr(verify, "apply", broken)
        for kind in ("and", "or"):
            ref, _, _ = _whole_grid(broken, kind, 1.0, 0.25)
            [walked] = grid_compare([kind], 1.0, 0.25)
            assert math.isnan(walked.max_abs_diff)
            np.testing.assert_equal(dataclasses.astuple(walked), dataclasses.astuple(ref))

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
        assert [rep.name for rep in reps] == [f"grad {act.name}" for act in acts]
        for rep in reps:
            assert rep.passed and rep.bound == verify.GRADCHECK_TOL, (rep.name, rep.value)

    @pytest.mark.parametrize("seed", [0, 49])
    def test_shared_points_match_one_act_calls(self, seed):
        acts = verify.all_activation_variants()
        reps = gradcheck_activation(acts, seed=seed)
        assert len(reps) == len(acts) == 16
        for act, rep in zip(acts, reps):
            [alone] = gradcheck_activation([act], seed=seed)
            assert rep.name == alone.name == f"grad {act.name}"
            assert rep.value == alone.value, act.name

    @pytest.mark.parametrize("seed", [0, 1, 49, 286])
    def test_points_are_the_first_of_the_stream_off_the_kink_lines(self, seed):
        n, box = verify.GRADCHECK_POINTS, verify.GRADCHECK_BOX
        stream = np.random.default_rng(seed).uniform(-box, box, size=(2 * n, 2))
        off = stream[verify._kink_distance(stream[:, 0], stream[:, 1]) > verify.BOUNDARY_EPS]
        assert np.array_equal(verify._interior_points(n, seed), off[:n])

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
        assert [rep.name for rep in reps] == [f"grad {act.name}" for act in acts]
        for act, rep in zip(acts, reps):
            [alone] = gradcheck_activation([act], seed=1)
            assert rep.value == alone.value, act.name

    def test_nan_partial_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "GRADCHECK_POINTS", 10)
        gradient = verify.gradient
        monkeypatch.setattr(verify, "gradient", lambda act, x, y: (
            np.full_like(x, np.nan), gradient(act, x, y)[1]))
        [rep] = gradcheck_activation([Activation("and", "il")])
        assert math.isnan(rep.value) and not rep.passed

    def test_nan_partials_or_loss_give_nan(self, monkeypatch):
        net = Network([Affine(4, 4), parse_spec("and_il"), Affine(2, 1)], seed=5)
        x = np.random.default_rng(5).uniform(-2, 2, (8, 4))
        assert gradcheck_network(net, x, seed=5) < 1e-4
        backward, forward = net.backward, net.forward

        def every_other_partial_nan(dout):
            backward(dout)
            net.flat_grads[::2] = np.nan

        monkeypatch.setattr(net, "backward", every_other_partial_nan)
        assert math.isnan(gradcheck_network(net, x, seed=5))
        monkeypatch.setattr(net, "backward", backward)
        monkeypatch.setattr(net, "forward", lambda x, training: forward(x, training) * np.nan)
        assert math.isnan(gradcheck_network(net, x, seed=5))

    def test_no_acts_give_no_reports(self):
        assert gradcheck_activation([]) == []

    def test_one_shot_acts_give_every_report(self, monkeypatch):
        monkeypatch.setattr(verify, "GRADCHECK_POINTS", 10)
        acts = [Activation("and", "il"), Activation("relu", "raw")]
        reps = gradcheck_activation(act for act in acts)
        assert reps == gradcheck_activation(acts)
        assert [rep.name for rep in reps] == ["grad and_il", "grad relu"]

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

    @pytest.mark.parametrize("gate", ["and_il", "or_il", "xnor_il"])
    def test_nan_gate_fails(self, gate, monkeypatch):
        routine = getattr(activations, gate)
        monkeypatch.setattr(activations, gate,
                            lambda x, y, grad=False: np.where(x > 15, np.nan, routine(x, y)))
        [result] = verify.bayes_suite(seed=0)
        assert math.isnan(result.value) and not result.passed

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
        with pytest.raises(ValueError, match="layer 1 is not affine"):
            weight_correlations(self._net(), 1)  # batch norm

    def test_random_pairs_of_untrained_net_center_near_zero(self):
        net = Network([Affine(64, 64), parse_spec("xnor_ail"), Affine(32, 1)],
                      seed=4)
        _, random_pairs = weight_correlations(net, 0, seed=4)
        assert abs(np.mean(random_pairs)) < 0.15


class TestCheckResult:
    @pytest.mark.parametrize("value, bound, passed", [
        (1.0, math.inf, True), (math.inf, math.inf, False), (math.nan, math.inf, False),
        (0.5, 1.0, True), (1.0, 1.0, False), (math.nan, 1.0, False), (-math.inf, 1.0, True),
    ])
    def test_passes_below_its_bound_only(self, value, bound, passed):
        assert CheckResult("check", value, bound).passed is passed

    def test_takes_no_verdict(self):
        with pytest.raises(TypeError):
            CheckResult("check", 1.0, 2.0, True)


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
