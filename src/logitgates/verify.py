"""Independent numerical checks of the analytical claims the library rests on.

Everything here recomputes a quantity by a second route: Monte Carlo sampling
for the standardization constants, dense grids for the approximation bound,
central finite differences for gradients, and direct probability-space
evaluation for the gate identities.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import activations as A
from .activations import Activation, NORMALIZATION_TABLE, apply, gradient
from .network import ActBlock, Affine, BatchNorm, Network
from .numerics import sigmoid


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


def mc_constants(act: Activation, n: int, seed: int = 0,
                 chunk: int = 1_000_000) -> MonteCarloEstimate:
    """Sample mean/std of act(x, y) under independent standard-normal operands."""
    if act.arity != 2:
        raise ValueError("constants are defined for 2-input activations")
    moments = StreamingMoments()
    rng = np.random.default_rng(seed)
    remaining = int(n)
    while remaining > 0:
        k = min(chunk, remaining)
        x = rng.standard_normal(k)
        y = rng.standard_normal(k)
        moments.update(apply(act, x, y))
        remaining -= k
    return MonteCarloEstimate(mean=moments.mean, std=moments.std, n=int(n),
                              se_mean=moments.std / math.sqrt(n))


# ---------------------------------------------------------------------------
# AIL vs IL difference over a grid
# ---------------------------------------------------------------------------


# The xnor difference is bounded by 1 everywhere (sup log 2). For and/or the
# sup is log 3 at the origin and the region above 1 extends roughly 0.1 from
# the kink lines, so the <= 1 gate only holds beyond that exclusion; the
# narrow-exclusion figure is reported without gating.
WIDE_EXCLUSION = 0.10


@dataclass
class GridCompareReport:
    kind: str
    half_range: float
    step: float
    exclusion: float
    max_abs_diff: float            # strict, whole grid
    argmax: tuple
    masked_max_abs_diff: float     # farther than exclusion from the kink lines
    wide_masked_max_abs_diff: float  # farther than WIDE_EXCLUSION
    max_rel_diff: float
    exact: np.ndarray | None = None   # surfaces on the (x, y) grid, if kept
    approx: np.ndarray | None = None


def _grid_axes(half_range: float, step: float) -> np.ndarray:
    n = int(round(2 * half_range / step)) + 1
    return -half_range + step * np.arange(n)


def _kink_distance(x, y):
    """Distance from (x, y) to the nearest of the lines x=0, y=0, x=y, x=-y."""
    # In place: on a grid every temporary is a full surface.
    d = np.abs(x - y)
    np.minimum(d, np.abs(x + y), out=d)
    d /= math.sqrt(2)
    return np.minimum(d, np.minimum(np.abs(x), np.abs(y)), out=d)


def grid_compare(kind: str, half_range: float = 10.0, step: float = 0.01,
                 exclusion: float = 0.02, csv_path=None,
                 keep_surfaces: bool = False) -> GridCompareReport:
    """Evaluate exact and approximate gates once over a square grid.

    Reports the strict max |approx - exact| plus the max over cells farther
    than ``exclusion`` (and than WIDE_EXCLUSION) from the lines x=0, y=0,
    x=y, x=-y (the approximate gates' kink lines). ``keep_surfaces`` puts
    the exact and approximate surfaces, indexed [x, y], in the report.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    axes = _grid_axes(half_range, step)
    x, y = np.meshgrid(axes, axes, indexing="ij", sparse=True)
    exact = apply(Activation(kind, "il"), x, y)
    approx = apply(Activation(kind, "ail"), x, y)
    signed = approx - exact
    if csv_path is not None:
        cols = np.column_stack([np.broadcast_to(x, signed.shape).ravel(),
                                np.broadcast_to(y, signed.shape).ravel(),
                                exact.ravel(), approx.ravel(), signed.ravel()])
        np.savetxt(csv_path, cols, delimiter=",", header="x,y,exact,approx,diff",
                   comments="", fmt="%.12g")
        del cols
    diff = np.abs(signed, out=signed)

    i, j = np.unravel_index(int(diff.argmax()), diff.shape)
    distance = _kink_distance(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        max_rel = np.max(diff / np.abs(exact), where=exact != 0, initial=0.0)

    return GridCompareReport(
        kind=kind, half_range=half_range, step=step, exclusion=exclusion,
        max_abs_diff=float(diff[i, j]), argmax=(float(axes[i]), float(axes[j])),
        masked_max_abs_diff=float(np.max(diff, where=distance > exclusion, initial=0.0)),
        wide_masked_max_abs_diff=float(np.max(diff, where=distance > WIDE_EXCLUSION,
                                              initial=0.0)),
        max_rel_diff=float(max_rel),
        exact=exact if keep_surfaces else None,
        approx=approx if keep_surfaces else None,
    )


# ---------------------------------------------------------------------------
# Gradient checks against central finite differences
# ---------------------------------------------------------------------------

BOUNDARY_EPS = 1e-3


def _interior_points(n: int, seed: int, box: float, boundary_eps: float):
    """Random 2D points farther than boundary_eps from all kink lines.

    Returns (points, n_excluded): how many candidates fell inside a boundary
    band and were rejected.
    """
    rng = np.random.default_rng(seed)
    points = np.empty((0, 2))
    excluded = 0
    while points.shape[0] < n:
        cand = rng.uniform(-box, box, size=(2 * n, 2))
        keep = _kink_distance(cand[:, 0], cand[:, 1]) > boundary_eps
        excluded += int((~keep).sum())
        points = np.vstack([points, cand[keep]])
    return points[:n], excluded


@dataclass
class GradcheckReport:
    name: str
    n_points: int
    max_rel_err: float
    n_boundary_excluded: int = 0


def gradcheck_activation(act: Activation, n_points: int = 10_000, seed: int = 0,
                         h: float = 1e-5, box: float = 8.0,
                         boundary_eps: float = BOUNDARY_EPS) -> GradcheckReport:
    """Compare analytical partials with central differences at interior points."""
    pts, n_excluded = _interior_points(n_points, seed, box, boundary_eps)
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
    return GradcheckReport(name=act.name, n_points=n_points, max_rel_err=worst,
                           n_boundary_excluded=n_excluded)


def gradcheck_network(net: Network, x: np.ndarray, seed: int = 0,
                      n_coords: int = 64, h: float = 1e-5) -> float:
    """Max relative error of dL/dtheta vs central differences.

    L = sum(R * forward(x)) for a fixed random R; checks n_coords randomly
    chosen parameter coordinates.
    """
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
    for _ in range(n_coords):
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
    if follow >= len(net.specs) or not isinstance(net.specs[follow], ActBlock) \
            or net.specs[follow].spec.elementwise:
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


def bayes_identity_check(n: int = 10_000, seed: int = 0, box: float = 20.0) -> float:
    """Max abs error of sigma(and_il) = sigma(x)sigma(y) and the OR analogue."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box, box, size=n)
    y = rng.uniform(-box, box, size=n)
    err_and = np.abs(sigmoid(A.and_il(x, y)) - sigmoid(x) * sigmoid(y))
    err_or = np.abs(sigmoid(A.or_il(x, y)) - (1.0 - sigmoid(-x) * sigmoid(-y)))
    return float(max(err_and.max(), err_or.max()))


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
    results = []
    estimates = {}
    for (kind, family), (mean_ref, std_ref) in sorted(table.items()):
        act = Activation(kind, family)
        est = mc_constants(act, n, seed)
        estimates[act.name] = est
        label = f"{kind.upper()}_{family.upper()}"
        mean_err = abs(est.mean - mean_ref)
        results.append(CheckResult(f"{label} mean", mean_err,
                                   min(4 * est.se_mean, 2e-3),
                                   mean_err <= min(4 * est.se_mean, 2e-3)))
        std_err = abs(est.std - std_ref)
        results.append(CheckResult(f"{label} std", std_err, 2e-3, std_err <= 2e-3))
    return results, estimates


def gradients_suite(n_points: int = 10_000, seed: int = 0,
                    tol: float = 1e-5) -> list[CheckResult]:
    results = []
    for act in all_activation_variants():
        # The signed geometric mean's curvature diverges along the axes, so
        # the difference step must shrink for the comparison to be valid.
        h = 1e-6 if act.kind == "signed_geomean" else 1e-5
        rep = gradcheck_activation(act, n_points, seed, h=h)
        results.append(CheckResult(f"grad {rep.name}", rep.max_rel_err, tol,
                                   rep.max_rel_err < tol))
    return results


def diff_bound_suite(step: float = 0.01, exclusion: float = 0.02) -> list[CheckResult]:
    bound = 1.0 + 1e-9
    results = []
    for kind in A.GATE_KINDS:
        rep = grid_compare(kind, 10.0, step, exclusion)
        if kind == "xnor":
            results.append(CheckResult(f"diff {kind} (eps={exclusion:g})",
                                       rep.masked_max_abs_diff, bound,
                                       rep.masked_max_abs_diff <= bound))
        else:
            results.append(CheckResult(f"diff {kind} (eps={exclusion:g}, reported)",
                                       rep.masked_max_abs_diff, float("inf"), True))
        results.append(CheckResult(f"diff {kind} (eps={WIDE_EXCLUSION:g})",
                                   rep.wide_masked_max_abs_diff, bound,
                                   rep.wide_masked_max_abs_diff <= bound))
        results.append(CheckResult(f"diff {kind} (strict, reported)",
                                   rep.max_abs_diff, float("inf"), True))
    return results


def bayes_suite(n: int = 10_000, seed: int = 0) -> list[CheckResult]:
    err = bayes_identity_check(n, seed)
    return [CheckResult("probability identities", err, 1e-12, err < 1e-12)]


def all_activation_variants() -> list[Activation]:
    """Every constructible activation variant."""
    variants = []
    for kind in A.GATE_KINDS:
        for family in ("il", "ail"):
            for normalized in (False, True):
                variants.append(Activation(kind, family, normalized))
    for kind in A.RAW_2D_KINDS + A.RAW_1D_KINDS:
        variants.append(Activation(kind, "raw"))
    return variants
