"""Independent numerical checks of the analytical claims the library rests on.

Everything here recomputes a quantity by a second route: Monte Carlo sampling
for the standardization constants, dense grids for the approximation bound,
central finite differences for gradients, and direct probability-space
evaluation for the gate identities (AND, OR and XNOR).

The Monte Carlo constants of every gate come from one stream: each chunk of
standard-normal operands is drawn once and shared by all the gates being
estimated, so the table's six rows cost one set of draws, not six.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import activations as A
from .activations import Activation, NORMALIZATION_TABLE, apply, gradient
from .ensemble import EnsembleSpec
from .network import Affine, BatchNorm, Network
from .numerics import BLOCK, sigmoid

# Fixed settings of the checks. Monte Carlo draws MC_CHUNK samples at a time,
# so its memory does not grow with the sample count or the number of gates,
# and evaluates each gate on BLOCK-element slices of each chunk. Gradient
# checks draw points from [-GRADCHECK_BOX, GRADCHECK_BOX]^2 farther than
# BOUNDARY_EPS from every kink line and pass below GRADCHECK_TOL. The network
# check compares NET_GRADCHECK_COORDS random parameter coordinates against
# central differences of step NET_GRADCHECK_STEP. The identity check draws
# its operands from [-BAYES_BOX, BAYES_BOX].
MC_CHUNK = 1_000_000
BOUNDARY_EPS = 1e-3
GRADCHECK_BOX = 8.0
GRADCHECK_TOL = 1e-5
NET_GRADCHECK_COORDS = 64
NET_GRADCHECK_STEP = 1e-5
BAYES_BOX = 20.0

# The grid comparison also reports the max difference farther than EXCLUSION
# and than WIDE_EXCLUSION from the kink lines. The xnor difference is bounded
# by 1 everywhere (sup log 2). For and/or the sup is log 3 at the origin and
# the region above 1 extends roughly 0.1 from the kink lines, so the <= 1 gate
# only holds beyond the wide exclusion; the narrow-exclusion figure is
# reported without gating.
EXCLUSION = 0.02
WIDE_EXCLUSION = 0.10


# ---------------------------------------------------------------------------
# Streaming moments (single pass, merge-based so chunks don't lose precision)
# ---------------------------------------------------------------------------


class StreamingMoments:
    """Numerically stable running mean/variance over chunked data."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).ravel()
        k = values.size
        if k == 0:
            return
        chunk_mean = float(values.mean())
        chunk_m2 = float(((values - chunk_mean) ** 2).sum())
        if self.n == 0:
            self.n, self.mean, self.m2 = k, chunk_mean, chunk_m2
            return
        delta = chunk_mean - self.mean
        total = self.n + k
        self.m2 += chunk_m2 + delta * delta * (self.n * k / total)
        self.mean += delta * (k / total)
        self.n = total

    @property
    def variance(self) -> float:
        return self.m2 / self.n if self.n > 0 else float("nan")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass
class MonteCarloEstimate:
    mean: float
    std: float
    n: int
    se_mean: float


def mc_constants(acts, n: int, seed: int = 0) -> dict[str, MonteCarloEstimate]:
    """Sample mean/std of each act(x, y) under independent standard-normal operands.

    Every act sees the same draws: each chunk of x and y is drawn once and
    every act is evaluated on it in turn, so an act's estimate has the bits
    that a call for that act alone gives. Returns estimates by act name.
    """
    acts = {act.name: act for act in acts}
    if any(act.arity != 2 for act in acts.values()):
        raise ValueError("constants are defined for 2-input activations")
    moments = {name: StreamingMoments() for name in acts}
    rng = np.random.default_rng(seed)
    remaining = int(n)
    values = np.empty(min(MC_CHUNK, remaining))
    while remaining > 0:
        k = min(MC_CHUNK, remaining)
        x = rng.standard_normal(k)
        y = rng.standard_normal(k)
        chunk = values[:k]
        for name, act in acts.items():
            # The gate's temporaries are block-sized, so they stay in cache;
            # the moments still see the whole chunk, so every rounding is
            # unchanged.
            for i in range(0, k, BLOCK):
                chunk[i:i + BLOCK] = apply(act, x[i:i + BLOCK], y[i:i + BLOCK])
            moments[name].update(chunk)
        remaining -= k
    return {name: MonteCarloEstimate(mean=m.mean, std=m.std, n=int(n),
                                     se_mean=m.std / math.sqrt(n))
            for name, m in moments.items()}


# ---------------------------------------------------------------------------
# AIL vs IL difference over a grid
# ---------------------------------------------------------------------------


@dataclass
class GridCompareReport:
    kind: str
    max_abs_diff: float            # strict, whole grid
    argmax: tuple
    masked_max_abs_diff: float     # farther than EXCLUSION from the kink lines
    wide_masked_max_abs_diff: float  # farther than WIDE_EXCLUSION
    exact: np.ndarray | None = None   # surfaces on the (x, y) grid, if kept
    approx: np.ndarray | None = None


def _kink_distance(x, y):
    """Distance from (x, y) to the nearest of the lines x=0, y=0, x=y, x=-y."""
    # In place: on a grid band every temporary is a band-sized surface.
    d = np.abs(x - y)
    np.minimum(d, np.abs(x + y), out=d)
    d /= math.sqrt(2)
    return np.minimum(d, np.minimum(np.abs(x), np.abs(y)), out=d)


def grid_compare(kinds, half_range: float = 10.0, step: float = 0.01, csv_path=None,
                 keep_surfaces: bool = False) -> list[GridCompareReport]:
    """Evaluate exact and approximate gates once over a square grid, per kind.

    Returns one report per kind in ``kinds``, in order. Each reports the
    strict max |approx - exact| plus the max over cells farther than
    EXCLUSION (and than WIDE_EXCLUSION) from the lines x=0, y=0, x=y, x=-y
    (the approximate gates' kink lines). ``keep_surfaces`` puts the exact and
    approximate surfaces, indexed [x, y], in the report. The CSV and the
    surfaces are per kind, so with either ``kinds`` must hold exactly one.

    The grid is walked once, in bands of rows holding about BLOCK cells. Each
    band forms its distances to the kink lines and both exclusion masks once,
    then folds every kind's difference into that kind's maxima (and the CSV)
    before the next band is formed, so no full surface exists unless
    ``keep_surfaces`` asks for one.

    Bit-exactly commutative gates on one shared axis make the grid its own
    transpose, so unless a CSV or the surfaces need whole rows, the band from
    row r evaluates columns r: only. The first maximum in row-major order is
    at (m, j >= m), m the least coordinate of any maximum, so its band has it.
    """
    if not (math.isfinite(half_range) and half_range >= 0):
        raise ValueError(f"half_range must be finite and non-negative, got {half_range!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    whole_rows = csv_path is not None or keep_surfaces
    if whole_rows and len(kinds) != 1:
        raise ValueError(f"a CSV or surfaces hold one kind, got {len(kinds)}")
    axes = -half_range + step * np.arange(int(round(2 * half_range / step)) + 1)
    n = axes.size
    gates = [(Activation(kind, "il"), Activation(kind, "ail")) for kind in kinds]
    # Each report folds the running maxima of its kind in place.
    corner = (float(axes[0]), float(axes[0]))
    reports = [GridCompareReport(kind, -math.inf, corner, 0.0, 0.0) for kind in kinds]
    if keep_surfaces:
        reports[0].exact, reports[0].approx = np.empty((n, n)), np.empty((n, n))
    rows = max(1, BLOCK // n)
    with open(csv_path, "w") if csv_path is not None else contextlib.nullcontext() as csv:
        for r in range(0, n, rows):
            c = 0 if whole_rows else r
            x, y = axes[r:r + rows, np.newaxis], axes[np.newaxis, c:]
            distance = _kink_distance(x, y)
            outside, wide_outside = distance > EXCLUSION, distance > WIDE_EXCLUSION
            for rep, (exact_act, approx_act) in zip(reports, gates):
                exact = apply(exact_act, x, y)
                approx = apply(approx_act, x, y)
                if keep_surfaces:
                    rep.exact[r:r + rows] = exact
                    rep.approx[r:r + rows] = approx
                signed = approx - exact
                if csv is not None:
                    cols = np.column_stack([np.broadcast_to(x, signed.shape).ravel(),
                                            np.broadcast_to(y, signed.shape).ravel(),
                                            exact.ravel(), approx.ravel(), signed.ravel()])
                    np.savetxt(csv, cols, delimiter=",",
                               header="" if r else "x,y,exact,approx,diff",
                               comments="", fmt="%.12g")
                diff = np.abs(signed, out=signed)
                # Strict > keeps the first maximum in row-major order, as
                # argmax over the whole grid would.
                k, w = int(diff.argmax()), n - c
                if diff.flat[k] > rep.max_abs_diff:
                    rep.max_abs_diff = float(diff.flat[k])
                    rep.argmax = (float(axes[r + k // w]), float(axes[c + k % w]))
                rep.masked_max_abs_diff = max(rep.masked_max_abs_diff, float(
                    np.max(diff, where=outside, initial=0.0)))
                rep.wide_masked_max_abs_diff = max(rep.wide_masked_max_abs_diff, float(
                    np.max(diff, where=wide_outside, initial=0.0)))
    return reports


# ---------------------------------------------------------------------------
# Gradient checks against central finite differences
# ---------------------------------------------------------------------------


def _interior_points(n: int, seed: int):
    """Random 2D points farther than BOUNDARY_EPS from all kink lines."""
    rng = np.random.default_rng(seed)
    points = np.empty((0, 2))
    while points.shape[0] < n:
        cand = rng.uniform(-GRADCHECK_BOX, GRADCHECK_BOX, size=(2 * n, 2))
        keep = _kink_distance(cand[:, 0], cand[:, 1]) > BOUNDARY_EPS
        points = np.vstack([points, cand[keep]])
    return points[:n]


@dataclass
class GradcheckReport:
    name: str
    max_rel_err: float


def gradcheck_activation(act: Activation, n_points: int = 10_000, seed: int = 0,
                         h: float = 1e-5) -> GradcheckReport:
    """Compare analytical partials with central differences at interior points."""
    pts = _interior_points(n_points, seed)
    x, y = pts[:, 0], pts[:, 1]
    if act.arity == 1:
        ana = (gradient(act, x),)
        fd = ((apply(act, x + h) - apply(act, x - h)) / (2 * h),)
    else:
        ana = gradient(act, x, y)
        fd = (
            (apply(act, x + h, y) - apply(act, x - h, y)) / (2 * h),
            (apply(act, x, y + h) - apply(act, x, y - h)) / (2 * h),
        )
    worst = 0.0
    for a, f in zip(ana, fd):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float((np.abs(a - f) / scale).max()))
    return GradcheckReport(name=act.name, max_rel_err=worst)


def gradcheck_network(net: Network, x: np.ndarray, seed: int = 0) -> float:
    """Max relative error of dL/dtheta vs central differences.

    L = sum(R * forward(x)) for a fixed random R; checks NET_GRADCHECK_COORDS
    randomly chosen parameter coordinates.
    """
    h = NET_GRADCHECK_STEP
    rng = np.random.default_rng(seed)
    y = net.forward(x, training=True)
    r = rng.standard_normal(y.shape)
    net.backward(r)
    params = net.parameters()
    analytic = {name: grad.copy() for name, _, grad, _ in params}

    def loss() -> float:
        # training=True so batch-norm keeps using batch statistics: the FD
        # must probe the same function the analytic backward differentiated
        return float(np.sum(r * net.forward(x, training=True)))

    worst = 0.0
    for _ in range(NET_GRADCHECK_COORDS):
        name, param, _, _ = params[rng.integers(len(params))]
        flat = param.reshape(-1)
        k = int(rng.integers(flat.size))
        orig = flat[k]
        flat[k] = orig + h
        up = loss()
        flat[k] = orig - h
        down = loss()
        flat[k] = orig
        fd = (up - down) / (2 * h)
        ana = analytic[name].reshape(-1)[k]
        if max(abs(ana), abs(fd)) < 1e-7:
            # below the resolution of the difference quotient itself (e.g. a
            # bias feeding batch norm has an exactly-zero gradient)
            continue
        scale = max(abs(ana), abs(fd))
        worst = max(worst, abs(ana - fd) / scale)
    return worst


# ---------------------------------------------------------------------------
# Weight correlations around an activation block
# ---------------------------------------------------------------------------


def weight_correlations(net: Network, layer_index: int, seed: int = 0):
    """Cosine similarity of operand-paired affine features vs random pairs.

    The indexed layer must be an Affine whose output feeds a 2-input
    activation block (batch norm in between is fine).
    """
    if not isinstance(net.specs[layer_index], Affine):
        raise ValueError(f"layer {layer_index} is not affine")
    follow = layer_index + 1
    while follow < len(net.specs) and isinstance(net.specs[follow], BatchNorm):
        follow += 1
    if follow >= len(net.specs) or not isinstance(net.specs[follow], EnsembleSpec) \
            or net.specs[follow].elementwise:
        raise ValueError(f"layer {layer_index} does not feed a 2-input activation block")

    w = net.layers[layer_index].weight  # (in, out): column c is feature c
    norms = np.linalg.norm(w, axis=0)
    unit = w / np.where(norms == 0, 1.0, norms)
    n_pairs = w.shape[1] // 2
    paired = np.einsum("ij,ij->j", unit[:, 0::2], unit[:, 1::2])

    if w.shape[1] < 4:
        # a single operand pair has no non-partner pairs to sample
        return paired, np.empty(0)
    rng = np.random.default_rng(seed)
    random_pairs = []
    while len(random_pairs) < n_pairs:
        a, b = rng.integers(w.shape[1], size=2)
        if a != b and b != (a ^ 1):  # skip self and operand partners
            random_pairs.append(float(unit[:, a] @ unit[:, b]))
    return paired, np.array(random_pairs)


# ---------------------------------------------------------------------------
# Probability identities for the exact gates
# ---------------------------------------------------------------------------


def bayes_identity_check(n: int = 10_000, seed: int = 0) -> float:
    """Max abs error of the exact gates' probability identities.

    sigma(and_il) = sigma(x)sigma(y), sigma(or_il) = 1 - sigma(-x)sigma(-y)
    and sigma(xnor_il) = sigma(x)sigma(y) + sigma(-x)sigma(-y).
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-BAYES_BOX, BAYES_BOX, size=n)
    y = rng.uniform(-BAYES_BOX, BAYES_BOX, size=n)
    both = sigmoid(x) * sigmoid(y)
    neither = sigmoid(-x) * sigmoid(-y)
    err_and = np.abs(sigmoid(A.and_il(x, y)) - both)
    err_or = np.abs(sigmoid(A.or_il(x, y)) - (1.0 - neither))
    err_xnor = np.abs(sigmoid(A.xnor_il(x, y)) - (both + neither))
    return float(max(err_and.max(), err_or.max(), err_xnor.max()))


# ---------------------------------------------------------------------------
# Aggregated suites (used by the CLI)
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool


def constants_report(n: int = 10_000_000, seed: int = 0, table: dict | None = None):
    """Monte Carlo vs tabulated constants: mean within 4 SE and 2e-3, std within 2e-3.

    Returns (check results, estimates by activation name).
    """
    table = NORMALIZATION_TABLE if table is None else table
    rows = [(Activation(kind, family), ref) for (kind, family), ref in sorted(table.items())]
    estimates = mc_constants([act for act, _ in rows], n, seed)
    results = []
    for act, (mean_ref, std_ref) in rows:
        est = estimates[act.name]
        label = act.name.upper()
        mean_err = abs(est.mean - mean_ref)
        results.append(CheckResult(f"{label} mean", mean_err,
                                   min(4 * est.se_mean, 2e-3),
                                   mean_err <= min(4 * est.se_mean, 2e-3)))
        std_err = abs(est.std - std_ref)
        results.append(CheckResult(f"{label} std", std_err, 2e-3, std_err <= 2e-3))
    return results, estimates


def gradients_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    for act in all_activation_variants():
        # The signed geometric mean's curvature diverges along the axes, so
        # the difference step must shrink for the comparison to be valid.
        h = 1e-6 if act.kind == "signed_geomean" else 1e-5
        rep = gradcheck_activation(act, seed=seed, h=h)
        results.append(CheckResult(f"grad {rep.name}", rep.max_rel_err, GRADCHECK_TOL,
                                   rep.max_rel_err < GRADCHECK_TOL))
    return results


def diff_bound_suite() -> list[CheckResult]:
    bound = 1.0 + 1e-9
    results = []
    for kind, rep in zip(A.GATE_KINDS, grid_compare(A.GATE_KINDS)):
        if kind == "xnor":
            results.append(CheckResult(f"diff {kind} (eps={EXCLUSION:g})",
                                       rep.masked_max_abs_diff, bound,
                                       rep.masked_max_abs_diff <= bound))
        else:
            results.append(CheckResult(f"diff {kind} (eps={EXCLUSION:g}, reported)",
                                       rep.masked_max_abs_diff, float("inf"), True))
        results.append(CheckResult(f"diff {kind} (eps={WIDE_EXCLUSION:g})",
                                   rep.wide_masked_max_abs_diff, bound,
                                   rep.wide_masked_max_abs_diff <= bound))
        results.append(CheckResult(f"diff {kind} (strict, reported)",
                                   rep.max_abs_diff, float("inf"), True))
    return results


def bayes_suite(seed: int = 0) -> list[CheckResult]:
    err = bayes_identity_check(seed=seed)
    return [CheckResult("probability identities", err, 1e-12, err < 1e-12)]


def all_activation_variants() -> list[Activation]:
    """Every constructible activation variant, each gate followed by its normalized form."""
    variants = []
    for kind, family in A._GATES:
        variants.append(Activation(kind, family))
        if (kind, family) in A.NORMALIZATION_TABLE:
            variants.append(Activation(kind, family, True))
    return variants
