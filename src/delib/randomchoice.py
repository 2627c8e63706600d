"""Distortion bounds for the random-choice deliberation rule.

A deliberating group of size k picks a member with probability proportional
to a concave transform g of the absolute normalized bias, and implements
that member's favorite; with opinion-change weight beta the group instead
mixes that lottery with a uniformly random member. Replacing the two
conditional bias distributions by their means (valid by convexity on one
side and Jensen on the other) turns the worst case over bias distributions
into a two-variable program:

    maximize (1 - alpha) - alpha * omega  over  alpha, omega in [0, 1]
    subject to the relaxed win probability being at least 1/2,

where alpha is the mass preferring the first alternative, -omega its mean
bias, and the win probability is a binomial mixture of the group-level
lotteries. For fixed alpha the win probability is nondecreasing in omega,
so the constraint is resolved by binary search for the smallest feasible
omega; the outer maximization runs on an alpha grid with a golden-section
refinement in the best cell plus one analytic candidate, the boundary
alpha where the omega -> 0+ limit of the constraint is tight (for the
linear transform this is alpha = 2**(-1/k), and the optimum sits there).

The binary search for one alpha is evaluated several levels per numpy
pass: one pass computes the constraint at all 2**d - 1 midpoints of the
next d levels, each formed as 0.5 * (lo + hi) from its neighbours, and
the path through them is then walked in Python. That replays the
one-level-at-a-time bisection exactly, decision for decision, without
relying on the float constraint being monotone. On the alpha grid only
the alphas that are feasible at omega = 1 and not already feasible at
omega = 0 are bisected.

Summation order is part of the result, so every constraint evaluation
puts one case per C-contiguous row and sums its k terms along that row.
The grid and a single alpha then give the same omega bit for bit.

The inversion group_size_for_epsilon finds the smallest group size whose
distortion_upper from zeta() beats 1 + epsilon; the Chernoff-style closed
form 4/delta^2 * log(2/delta) with epsilon = C_EPSILON_PER_DELTA * delta
is reported alongside it by the command-line tools.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import copeland_distortion_from_theta, lower_bounds_from_theta
from .instances import line_instance_from_bias_distribution
from .metric import BiasDistribution
from .models import LINEAR, BiasTransform, ModelConfig, exact_pk

INFEASIBLE = math.inf      # sentinel: no omega in [0,1] satisfies the constraint
C_EPSILON_PER_DELTA = 1.0  # epsilon = c * delta in the closed-form group size
GROUP_SIZE_CAP = 4096      # largest k the doubling search will try
_DIRECT_WEIGHT_MAX_K = 1000   # above this, binomial weights go through lgamma
_BLOCK_LEVELS = 5             # bisection levels decided per pass of a scalar solve


def _binomial_weights(k: int, alphas: np.ndarray) -> np.ndarray:
    """One C-contiguous row per alpha: C(k,l) alpha^l (1-alpha)^(k-l) for
    l = 1..k along it."""
    a = np.asarray(alphas, dtype=float)[:, None]
    ell = np.arange(1, k + 1)
    if k <= _DIRECT_WEIGHT_MAX_K:
        comb = np.array([float(math.comb(k, l)) for l in range(1, k + 1)])
        with np.errstate(divide="ignore"):
            return comb * a ** ell * (1.0 - a) ** (k - ell)
    logc = np.array([
        math.lgamma(k + 1) - math.lgamma(l + 1) - math.lgamma(k - l + 1)
        for l in ell
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = logc + ell * np.log(a)
        # k - l can be 0 only in the last column; keep 0 * (-inf) out of it
        t[:, :-1] += (k - ell[:-1]) * np.log(1.0 - a)
        w = np.exp(t)
    w[~np.isfinite(w)] = 0.0
    return w


def _lhs_array(
    k: int, weights: np.ndarray, alphas: np.ndarray | float, omegas,
    g: BiasTransform, beta: float,
) -> np.ndarray:
    """Relaxed win probability for each (alpha, omega) case: one case per
    row, weights being one row per omega or a single row shared by all."""
    ell = np.arange(1, k + 1, dtype=float)
    gw = np.asarray(g.apply(np.asarray(omegas, dtype=float)))[:, None]
    num = ell * gw
    den = num + (k - ell)
    # den is 0 only where num is (l = k at g(omega) = 0), and that term is
    # 0; flooring den at the least subnormal leaves every other den as is
    frac = num / np.maximum(den, math.ulp(0.0))
    return beta * (weights * frac).sum(axis=1) + (1.0 - beta) * alphas


def constraint_lhs(
    k: int, alpha: float, omega: float,
    g: BiasTransform = LINEAR, beta: float = 1.0,
) -> float:
    """Win probability of the relaxed two-point configuration.

    The l = k term is the 0/0 corner at omega = 0: a group drawn entirely
    from the zero-mean side carries no bias either way, and the boundary is
    resolved to 0 (the limit omega -> 0+ would give 1).
    """
    _check_unit("alpha", alpha)
    _check_unit("omega", omega)
    _check_unit("beta", beta)
    if k < 1:
        raise ValueError(f"group size must be >= 1, got {k}")
    a = np.array([float(alpha)])
    return float(
        _lhs_array(k, _binomial_weights(k, a), a, np.array([float(omega)]),
                   g, beta)[0]
    )


def _check_unit(name: str, x: float) -> None:
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{name} must be in [0,1], got {x!r}")


def _bisection_steps(tol: float) -> int:
    return max(1, math.ceil(math.log2(1.0 / tol)))


def _min_omega_array(
    k: int, alphas: np.ndarray, g: BiasTransform, beta: float, tol: float,
) -> np.ndarray:
    """Smallest feasible omega (within tol) per alpha of a grid; inf where
    none. Only the undecided alphas are bisected."""
    a = np.asarray(alphas, dtype=float)
    w = _binomial_weights(k, a)
    feasible = _lhs_array(k, w, a, np.ones_like(a), g, beta) >= 0.5
    at_zero = _lhs_array(k, w, a, np.zeros_like(a), g, beta) >= 0.5
    out = np.where(feasible, 0.0, INFEASIBLE)
    idx = np.flatnonzero(feasible & ~at_zero)
    if idx.size:
        w, a = w[idx], a[idx]
        lo = np.zeros_like(a)
        hi = np.ones_like(a)
        for _ in range(_bisection_steps(tol)):
            mid = 0.5 * (lo + hi)
            ok = _lhs_array(k, w, a, mid, g, beta) >= 0.5
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid)
        out[idx] = hi
    return out


def _subdivide(lo: float, hi: float, levels: int) -> list[float]:
    """lo, the 2**levels - 1 bisection midpoints between lo and hi in
    order, and hi; each midpoint is 0.5 * (left + right) of its
    neighbours one level up, as the sequential bisection computes it."""
    pts = [lo, hi]
    for _ in range(levels):
        finer = [lo]
        for x, y in zip(pts, pts[1:]):
            finer += (0.5 * (x + y), y)
        pts = finer
    return pts


def _min_omega(
    k: int, alpha: float, g: BiasTransform, beta: float, tol: float,
) -> float:
    """Smallest feasible omega for one alpha: the bisection of
    _min_omega_array, decided _BLOCK_LEVELS levels per pass. The first
    pass also tests omega = 1 (feasibility) and omega = 0."""
    w = _binomial_weights(k, np.array([alpha]))
    lo, hi = 0.0, 1.0
    ends = [1.0, 0.0]
    steps = _bisection_steps(tol)
    while steps > 0:
        levels = min(steps, _BLOCK_LEVELS)
        pts = _subdivide(lo, hi, levels)
        ok = (_lhs_array(k, w, alpha, ends + pts[1:-1], g, beta)
              >= 0.5).tolist()
        if ends:
            if not ok[0]:
                return INFEASIBLE
            if ok[1]:
                return 0.0
            ok, ends = ok[2:], []
        i, j = 0, len(pts) - 1
        while j - i > 1:
            m = (i + j) // 2
            if ok[m - 1]:
                j = m
            else:
                i = m
        lo, hi = pts[i], pts[j]
        steps -= levels
    return hi


def min_feasible_omega(
    k: int, alpha: float, g: BiasTransform = LINEAR, beta: float = 1.0,
    tol: float = 1e-9,
) -> float:
    """Binary search for the smallest omega satisfying the win constraint.

    Returns INFEASIBLE (math.inf) when even omega = 1 fails. Returns 0.0
    only when omega = 0 itself satisfies the constraint under the boundary
    resolution above; otherwise the result is positive, possibly at the
    tol scale (the alpha = 1 corner is feasible for every omega > 0 but
    not at 0).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_unit("alpha", alpha)
    _check_unit("beta", beta)
    if k < 1:
        raise ValueError(f"group size must be >= 1, got {k}")
    return _min_omega(k, float(alpha), g, beta, tol)


@dataclass
class ZetaResult:
    """Best point zeta() found for the relaxed program, with the distortion
    bounds derived from its value. The search is heuristic, so value is an
    incumbent, not a rigorous bound on the program's maximum."""

    k: int
    g: str
    beta: float
    value: float               # zeta, the incumbent objective
    alpha: float               # argmax
    omega: float
    distortion_upper: float    # ((1+zeta)/(1-zeta))^2
    det_lb: float              # min(3, (1+zeta)/(1-zeta))
    rand_lb: float             # min(2, 1/(1-zeta))
    alpha_step: float
    omega_tol: float

    def __post_init__(self):
        for f in ("beta", "value", "alpha", "omega", "distortion_upper",
                  "det_lb", "rand_lb", "alpha_step", "omega_tol"):
            setattr(self, f, float(getattr(self, f)))
        if not (0.0 <= self.value < 1.0):
            raise ValueError(f"zeta out of [0,1): {self.value!r}")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.omega <= 1.0):
            raise ValueError("argmax out of the unit box")
        if self.distortion_upper < 1.0:
            raise ValueError("distortion upper bound below 1")

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "g": self.g,
                "beta": self.beta,
                "zeta": self.value,
                "alpha": self.alpha,
                "omega": self.omega,
                "distortion_upper": self.distortion_upper,
                "det_lb": self.det_lb,
                "rand_lb": self.rand_lb,
                "alpha_step": self.alpha_step,
                "omega_tol": self.omega_tol,
            },
            indent=2,
        )


def _golden_max(f, lo: float, hi: float, iters: int = 60):
    """Golden-section search on the first item of f(x) = (value, ...);
    returns (x, *f(x)) at the best point."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1[0] < f2[0]:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
    return (x1, *f1) if f1[0] >= f2[0] else (x2, *f2)


def _boundary_alpha(k: int, beta: float) -> float:
    """Smallest alpha whose omega -> 0+ constraint limit reaches 1/2.

    The limit is beta * alpha^k + (1 - beta) * alpha, increasing in alpha,
    0 at 0 and 1 at 1, so bisection always lands.
    """
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if beta * mid**k + (1.0 - beta) * mid >= 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def zeta(
    k: int, g: BiasTransform = LINEAR, beta: float = 1.0,
    alpha_step: float = 1e-3, omega_tol: float = 1e-9,
) -> ZetaResult:
    """Search for the maximum of (1 - alpha) - alpha * omega over the
    feasible region.

    Grid over alpha at alpha_step, golden-section refinement inside the
    best cell, plus the boundary-alpha candidate. Candidates are compared
    with strict inequality in that fixed order, so the result is
    deterministic.
    """
    if k < 1:
        raise ValueError(f"group size must be >= 1, got {k}")
    _check_unit("beta", beta)
    if not (0.0 < alpha_step <= 1.0):
        raise ValueError(f"alpha_step must be in (0,1], got {alpha_step!r}")
    if omega_tol <= 0.0:
        raise ValueError(f"omega_tol must be positive, got {omega_tol!r}")
    n = max(1, round(1.0 / alpha_step))
    grid = np.arange(n + 1) / n
    omg = _min_omega_array(k, grid, g, beta, omega_tol)
    obj = np.full(n + 1, -math.inf)
    ok = np.isfinite(omg)
    obj[ok] = (1.0 - grid[ok]) - grid[ok] * omg[ok]
    i = int(np.argmax(obj))
    if not math.isfinite(obj[i]):
        raise RuntimeError("no feasible alpha on the grid")
    best_v, best_a, best_w = float(obj[i]), float(grid[i]), float(omg[i])

    def objective(a: float) -> tuple[float, float]:
        w = _min_omega(k, a, g, beta, omega_tol)
        return ((1.0 - a) - a * w if math.isfinite(w) else -math.inf), w

    lo = max(0.0, best_a - 1.0 / n)
    hi = min(1.0, best_a + 1.0 / n)
    a_ref, v_ref, w_ref = _golden_max(objective, lo, hi)
    if v_ref > best_v:
        best_v, best_a, best_w = v_ref, a_ref, w_ref
    a_c = _boundary_alpha(k, beta)
    v_c, w_c = objective(a_c)
    if v_c > best_v:
        best_v, best_a, best_w = v_c, a_c, w_c

    det_lb, rand_lb = lower_bounds_from_theta(best_v)
    return ZetaResult(
        k=k, g=g.spec(), beta=beta, value=best_v, alpha=best_a, omega=best_w,
        distortion_upper=copeland_distortion_from_theta(best_v),
        det_lb=det_lb, rand_lb=rand_lb,
        alpha_step=1.0 / n, omega_tol=omega_tol,
    )


def sweep(
    k_min: int, k_max: int, g: BiasTransform = LINEAR, beta: float = 1.0,
    alpha_step: float = 1e-3, omega_tol: float = 1e-9,
) -> list[ZetaResult]:
    """One ZetaResult per group size in [k_min, k_max]."""
    if not (1 <= k_min <= k_max):
        raise ValueError(f"need 1 <= k_min <= k_max, got {k_min}..{k_max}")
    return [zeta(k, g, beta, alpha_step, omega_tol) for k in range(k_min, k_max + 1)]


def group_size_for_epsilon(
    epsilon: float, *, alpha_step: float = 1e-3, omega_tol: float = 1e-9,
    cap: int = GROUP_SIZE_CAP,
) -> int:
    """Smallest group size whose distortion_upper is at most 1 + epsilon.

    Doubling followed by bisection on the linear-transform, full
    opinion-change model (the asymptotic guarantee is specific to it).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    target = 1.0 + epsilon

    def distortion(k: int) -> float:
        return zeta(k, LINEAR, 1.0, alpha_step, omega_tol).distortion_upper

    if distortion(1) <= target:
        return 1
    lo, hi = 1, 2
    while distortion(hi) > target:
        lo, hi = hi, hi * 2
        if hi > cap:
            raise RuntimeError(
                f"group size exceeds cap {cap} before reaching 1+{epsilon}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if distortion(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def group_size_closed_form(
    epsilon: float, c: float = C_EPSILON_PER_DELTA,
) -> int:
    """Chernoff-style group size 4/delta^2 * log(2/delta), epsilon = c*delta.

    Asymptotic companion to group_size_for_epsilon; clamped below at 1
    (large epsilon makes the formula vacuous).
    """
    if epsilon <= 0.0 or c <= 0.0:
        raise ValueError("epsilon and c must be positive")
    delta = epsilon / c
    return math.ceil(max(1.0, 4.0 / delta**2 * math.log(2.0 / delta)))


def incumbent_feasibility(result: ZetaResult) -> tuple[float, float]:
    """Exact win probability of the incumbent two-point configuration.

    Realizes the argmax distribution (-omega with mass alpha, +1 with mass
    1 - alpha) on a line instance and evaluates the deliberation rule by
    exact enumeration. Returns (win probability, gap), gap being how far
    the exact probability falls short of 1/2. For omega > 0 the group-level
    lottery matches the relaxed constraint exactly (a two-point
    configuration makes every mean substitution tight), so the gap is zero
    up to rounding; an omega of exactly 0 can report a real gap, which
    documents that the relaxation's boundary optimum is not achievable.
    """
    atoms = [(-result.omega, result.alpha), (1.0, 1.0 - result.alpha)]
    atoms = [(v, p) for v, p in atoms if p > 0.0]
    inst = line_instance_from_bias_distribution(BiasDistribution.from_atoms(atoms))
    model = ModelConfig(
        variant="random-choice", k=result.k,
        g=BiasTransform.parse(result.g), beta=result.beta,
    )
    pk = exact_pk(inst, model, "W", "X").value
    return pk, max(0.0, 0.5 - pk)
