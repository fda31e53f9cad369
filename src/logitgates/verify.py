"""Independent numerical checks of the analytical claims the library rests on.

Everything here recomputes a quantity by a second route: quadrature for the
standardization constants, dense grids for the approximation bound, central
finite differences for gradients, and direct probability-space evaluation
for the gate identities (AND, OR and XNOR).

The grid comparison walks a grid centred on the origin and evaluates each
gate pair on one symmetry class of its cells: and's pair runs where x <= y
and also gives or's differences, at the negated points (De Morgan duality),
and xnor's runs on the octant x <= y <= 0 (odd symmetry).

One deterministic quadrature rule gives the mean and std of every gate under
independent standard-normal operands, so the table's six rows cost six gate
calls on a few thousand points and need no seed.

The gradient check runs each gate once per (kind, family) on one draw of
points: a normalized variant's partials and difference quotients are its raw
gate's, standardized by ``activations.standardize``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import activations as A
from .activations import Activation, NORMALIZATION_TABLE, apply, gradient, standardize
from .ensemble import EnsembleSpec
from .network import Affine, BatchNorm, Network
from .numerics import BLOCK, sigmoid

# Fixed settings of the checks. The constants come from a polar quadrature
# rule of QUADRATURE_NODES nodes per axis and sector, on radii up to
# QUADRATURE_RADIUS. Each row passes within CONSTANTS_TOL of its family:
# the ail rows are closed forms, checked to rounding; the il rows are
# empirical 5-digit data, up to 2e-5 from the quadrature, checked to the 5e-5
# that the closed forms meet against their published digits.
# The gradient check draws GRADCHECK_POINTS points from
# [-GRADCHECK_BOX, GRADCHECK_BOX]^2 farther than BOUNDARY_EPS from every kink
# line and passes below GRADCHECK_TOL. The network check compares
# NET_GRADCHECK_COORDS random parameter coordinates against central
# differences of step NET_GRADCHECK_STEP. The identity check draws
# BAYES_POINTS operand pairs from [-BAYES_BOX, BAYES_BOX].
QUADRATURE_NODES = 32
QUADRATURE_RADIUS = 12.0
CONSTANTS_TOL = {"ail": 1e-12, "il": 5e-5}
BOUNDARY_EPS = 1e-3
GRADCHECK_POINTS = 10_000
GRADCHECK_BOX = 8.0
GRADCHECK_TOL = 1e-5
NET_GRADCHECK_COORDS = 64
NET_GRADCHECK_STEP = 1e-5
BAYES_POINTS = 10_000
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
# Moments under independent standard-normal operands, by quadrature
# ---------------------------------------------------------------------------


def _polar_rule(nodes: int):
    """Points and weights of a product rule for E[f(X, Y)], X and Y iid N(0, 1).

    In polar coordinates: Gauss-Legendre with ``nodes`` nodes in the angle on
    each of the eight pi/4 sectors between the lines x=0, y=0, x=y and x=-y,
    where the ail gates kink, so every gate is smooth on every sector; and
    Gauss-Legendre with ``nodes`` nodes in the radius on [0, QUADRATURE_RADIUS]
    against the density r exp(-r^2/2) / (2 pi). The mass beyond the radius,
    exp(-QUADRATURE_RADIUS^2 / 2), is below 1e-31.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    u, w = (t + 1) / 2, w / 2  # nodes and weights on [0, 1]
    sector = math.pi / 4
    theta = sector * (np.arange(8)[:, np.newaxis] + u).ravel()
    r = QUADRATURE_RADIUS * u
    r_weight = QUADRATURE_RADIUS * w * r * np.exp(-r * r / 2) / (2 * math.pi)
    x = np.outer(np.cos(theta), r).ravel()
    y = np.outer(np.sin(theta), r).ravel()
    return x, y, np.outer(np.tile(sector * w, 8), r_weight).ravel()


def normal_moments(acts) -> dict[str, tuple[float, float]]:
    """Mean and std of each act(x, y) under independent standard-normal operands.

    One polar rule of QUADRATURE_NODES nodes per axis and sector serves every
    act. The sums are correctly rounded (math.fsum), so no summation order can
    move a bit. Returns (mean, std) by act name.
    """
    if any(act.arity != 2 for act in acts):
        raise ValueError("constants are defined for 2-input activations")
    x, y, w = _polar_rule(QUADRATURE_NODES)
    moments = {}
    for act in acts:
        g = apply(act, x, y)
        mean = math.fsum(w * g)
        g -= mean
        moments[act.name] = (mean, math.sqrt(math.fsum(w * g * g)))
    return moments


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


def _kink_distance(x, y):
    """Distance from (x, y) to the nearest of the lines x=0, y=0, x=y, x=-y."""
    # In place: on a grid band every temporary is a band-sized surface.
    d = np.abs(x - y)
    np.minimum(d, np.abs(x + y), out=d)
    d /= math.sqrt(2)
    return np.minimum(d, np.minimum(np.abs(x), np.abs(y)), out=d)


def grid_axes(half_range: float, step: float) -> np.ndarray:
    """The grid's axis, centred on the origin: ``step * (k - count / 2)`` for k = 0..count."""
    if not (math.isfinite(half_range) and half_range >= 0):
        raise ValueError(f"half_range must be finite and non-negative, got {half_range!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if not math.isfinite(count := 2 * half_range / step):
        raise ValueError(f"half_range {half_range!r} / step {step!r} overflows the point count")
    count = int(round(count))
    return step * (np.arange(count + 1) - count / 2)


def grid_compare(kinds, half_range: float = 10.0, step: float = 0.01) -> list[GridCompareReport]:
    """Evaluate exact and approximate gates once over a square grid, per kind.

    Returns one report per kind in ``kinds``, in order. Each reports the
    strict max |approx - exact| plus the max over cells farther than
    EXCLUSION (and than WIDE_EXCLUSION) from the lines x=0, y=0, x=y, x=-y
    (the approximate gates' kink lines), on the grid of ``grid_axes``.

    The grid is walked once, in bands of rows holding about BLOCK cells. Each
    band forms its distances to the kink lines and both exclusion masks once,
    then folds every kind's difference into that kind's maxima before the
    next band is formed, so no full surface exists.

    Each kind's gates run on one cell of each symmetry class. The gates are
    bit-exactly commutative, or is the De Morgan dual -and(-x, -y) and xnor
    is odd in each operand, so |approx - exact| and the distances to the kink
    lines agree on a cell and its transpose, on and's cell and or's negated
    one, and on xnor's cells with the same |x| and |y|. The and pair runs on
    columns r: of the band from row r, which holds every cell with x <= y,
    and its differences serve or too. The xnor pair runs on the bands and
    columns where x <= y <= 0. Those cells include each class's first in
    row-major order, so the least maximum cell walked is the grid's first;
    for or it is the least of the negated cells, transposed to x <= y, which
    a later band may hold.
    """
    axes = grid_axes(half_range, step)
    n = axes.size
    # The gate pair whose differences serve each kind, and the row and column
    # each pair's walk stops before.
    pair = {kind: "and" if kind == "or" else kind for kind in kinds}
    stop = {p: (n - 1) // 2 + 1 if p == "xnor" else n for p in pair.values()}
    gates = {p: (Activation(p, "il"), Activation(p, "ail")) for p in stop}
    end = max(stop.values())
    # Each report folds the running maxima of its kind in place, its argmax
    # as grid indices until the walk ends.
    reports = [GridCompareReport(kind, -math.inf, (0, 0), 0.0, 0.0) for kind in kinds]
    rows = max(1, BLOCK // n)
    for r in range(0, end, rows):
        x, y = axes[r:r + rows, np.newaxis], axes[np.newaxis, r:end]
        distance = _kink_distance(x, y)
        outside, wide_outside = distance > EXCLUSION, distance > WIDE_EXCLUSION
        for p, (exact_act, approx_act) in gates.items():
            if r >= stop[p]:
                continue
            w = stop[p] - r  # the pair's columns are the band's first w
            exact = apply(exact_act, x, y[:, :w])
            approx = apply(approx_act, x, y[:, :w])
            diff = approx - exact
            np.abs(diff, out=diff)
            top = float(diff.max())
            masked = float(np.max(diff, where=outside[:, :w], initial=0.0))
            wide = float(np.max(diff, where=wide_outside[:, :w], initial=0.0))
            cells = None
            for rep in reports:
                if pair[rep.kind] != p:
                    continue
                rep.masked_max_abs_diff = max(rep.masked_max_abs_diff, masked)
                rep.wide_masked_max_abs_diff = max(rep.wide_masked_max_abs_diff, wide)
                # A tie counts too: a later band of and's may hold or's
                # first maximum.
                if top >= rep.max_abs_diff:
                    if cells is None:
                        cells = np.flatnonzero(diff == top)
                        i, j = r + cells // w, r + cells % w
                    if pair[rep.kind] == rep.kind:
                        first = int((i * n + j).min())
                    else:  # or at and's cells negated, then transposed to x <= y
                        first = int(((n - 1 - np.maximum(i, j)) * n
                                     + n - 1 - np.minimum(i, j)).min())
                    first = divmod(first, n)
                    if top > rep.max_abs_diff or first < rep.argmax:
                        rep.max_abs_diff, rep.argmax = top, first
    for rep in reports:
        rep.argmax = (float(axes[rep.argmax[0]]), float(axes[rep.argmax[1]]))
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


def gradcheck_activation(acts, seed: int = 0) -> list[GradcheckReport]:
    """Analytical partials of each act vs central differences; one report per act.

    One draw of GRADCHECK_POINTS interior points serves every act, and each gate runs once on
    them, for its raw and its normalized form alike: a normalized act's
    partials and difference quotients come from its raw gate's partials and
    shifted values, standardized. The step is 1e-5, or 1e-6 for the signed
    geometric mean, whose curvature diverges along the axes.
    """
    # Contiguous columns, since every gate reads them several times; they and
    # the shifted operands are read-only, so a gate writing into an operand
    # raises instead of corrupting the next gate's check.
    xy = np.ascontiguousarray(_interior_points(GRADCHECK_POINTS, seed).T)
    xy.flags.writeable = False
    x, y = xy
    shifted = {}  # step h -> (x + h, y + h), (x - h, y - h)
    scale, err = np.empty(GRADCHECK_POINTS), np.empty(GRADCHECK_POINTS)
    errors = dict.fromkeys(acts, 0.0)  # act -> its worst relative error so far
    groups = {}  # raw gate -> its acts
    for act in errors:
        groups.setdefault(Activation(act.kind, act.family), []).append(act)
    for gate, group in groups.items():
        h = 1e-6 if gate.kind == "signed_geomean" else 1e-5
        if h not in shifted:
            shifted[h] = plus, minus = xy + h, xy - h
            plus.flags.writeable = minus.flags.writeable = False
        (xp, yp), (xm, ym) = shifted[h]
        if gate.arity == 1:
            ana, operands = (gradient(gate, x),), (((xp,), (xm,)),)
        else:
            ana = gradient(gate, x, y)
            operands = (((xp, y), (xm, y)), ((x, yp), (x, ym)))
        for g, (at_up, at_down) in zip(ana, operands):
            up, down = apply(gate, *at_up), apply(gate, *at_down)
            for act in group:
                f, a = standardize(act, up, g)  # act's value at +h, and its partial
                f = f - standardize(act, down)
                f /= 2 * h
                # max(|a|, |f|, 1e-8) into scale, then |a - f| / scale into err
                np.maximum(np.abs(a, out=scale), np.abs(f, out=err), out=scale)
                np.maximum(scale, 1e-8, out=scale)
                np.abs(np.subtract(a, f, out=err), out=err)
                err /= scale
                errors[act] = np.maximum(errors[act], err.max())  # max() would drop a NaN
    return [GradcheckReport(name=act.name, max_rel_err=float(errors[act])) for act in acts]


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


def bayes_identity_check(seed: int = 0) -> float:
    """Max abs error of the exact gates' probability identities at BAYES_POINTS points.

    sigma(and_il) = sigma(x)sigma(y), sigma(or_il) = 1 - sigma(-x)sigma(-y)
    and sigma(xnor_il) = sigma(x)sigma(y) + sigma(-x)sigma(-y).
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-BAYES_BOX, BAYES_BOX, size=BAYES_POINTS)
    y = rng.uniform(-BAYES_BOX, BAYES_BOX, size=BAYES_POINTS)
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


def constants_report():
    """Quadrature vs NORMALIZATION_TABLE: one mean and one std check per row.

    Returns (check results, (mean, std) by activation name).
    """
    rows = [(Activation(kind, family), ref)
            for (kind, family), ref in sorted(NORMALIZATION_TABLE.items())]
    moments = normal_moments([act for act, _ in rows])
    results = []
    for act, refs in rows:
        bound = CONSTANTS_TOL[act.family]
        for quantity, value, ref in zip(("mean", "std"), moments[act.name], refs):
            err = abs(value - ref)
            results.append(CheckResult(f"{act.name.upper()} {quantity}", err, bound, err <= bound))
    return results, moments


def gradients_suite(seed: int = 0) -> list[CheckResult]:
    return [CheckResult(f"grad {rep.name}", rep.max_rel_err, GRADCHECK_TOL,
                        rep.max_rel_err < GRADCHECK_TOL)
            for rep in gradcheck_activation(all_activation_variants(), seed=seed)]


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
