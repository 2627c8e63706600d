"""Certified global maximization of small polynomial programs over boxes.

Interval branch and bound. Every interval arithmetic step is widened one
ulp outward (epsilon inflation), so enclosures stay sound without touching
the FPU rounding mode. The search pops the most promising boxes, splits
each along its widest-relative-width variable, prunes children that are
provably infeasible or provably no better than the incumbent, and harvests
incumbents from exactly evaluated midpoints plus projected coordinate
ascent. Reported upper bounds are rigorous whether or not the run ends
certified.

Feasibility slack: incumbents may violate constraints by up to `feas_tol`
after exact evaluation, and infeasibility pruning leaves the same slack,
so a slack-feasible incumbent can never sit inside a pruned box and
`bound >= value` always holds.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

CERTIFIED = "Certified"
BUDGET_EXHAUSTED = "BudgetExhausted"
INFEASIBLE = "Infeasible"

DEFAULT_TOL = 1e-4
DEFAULT_MAX_BOXES = 10_000_000
DEFAULT_FEAS_TOL = 1e-12
MAX_DEGREE = 4


def _dn(a):
    return np.nextafter(a, -np.inf)


def _up(a):
    return np.nextafter(a, np.inf)


def _wrap(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


class Expr:
    """Polynomial expression node; supports +, -, *, unary -, and ** n."""

    __slots__ = ()

    def __add__(self, o):
        return Add(self, _wrap(o))

    def __radd__(self, o):
        return Add(_wrap(o), self)

    def __sub__(self, o):
        return Sub(self, _wrap(o))

    def __rsub__(self, o):
        return Sub(_wrap(o), self)

    def __mul__(self, o):
        return Mul(self, _wrap(o))

    def __rmul__(self, o):
        return Mul(_wrap(o), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            raise ValueError("only integer powers >= 1")
        out = self
        for _ in range(n - 1):
            out = Mul(out, self)
        return out

    # subclasses: degree(), names(into set), plain(X, idx), ival(LO, HI, idx), obj()


class Const(Expr):
    __slots__ = ("v",)

    def __init__(self, v: float):
        self.v = float(v)

    def degree(self):
        return 0

    def names(self, s):
        pass

    def plain(self, X, idx):
        return np.full(X.shape[0], self.v)

    def ival(self, LO, HI, idx):
        c = np.full(LO.shape[0], self.v)
        return c, c.copy()

    def grad(self, LO, HI, idx, n):
        c = np.full(LO.shape[0], self.v)
        z = np.zeros((n, LO.shape[0]))
        return c, c.copy(), z, z.copy()

    def obj(self):
        return ["const", self.v]


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def degree(self):
        return 1

    def names(self, s):
        s.add(self.name)

    def plain(self, X, idx):
        return X[:, idx[self.name]]

    def ival(self, LO, HI, idx):
        j = idx[self.name]
        return LO[:, j], HI[:, j]

    def grad(self, LO, HI, idx, n):
        j = idx[self.name]
        z = np.zeros((n, LO.shape[0]))
        z[j] = 1.0
        return LO[:, j], HI[:, j], z, z.copy()

    def obj(self):
        return ["var", self.name]


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def degree(self):
        return max(self.a.degree(), self.b.degree())

    def names(self, s):
        self.a.names(s)
        self.b.names(s)

    def plain(self, X, idx):
        return self.a.plain(X, idx) + self.b.plain(X, idx)

    def ival(self, LO, HI, idx):
        al, ah = self.a.ival(LO, HI, idx)
        bl, bh = self.b.ival(LO, HI, idx)
        return _dn(al + bl), _up(ah + bh)

    def grad(self, LO, HI, idx, n):
        al, ah, Gal, Gah = self.a.grad(LO, HI, idx, n)
        bl, bh, Gbl, Gbh = self.b.grad(LO, HI, idx, n)
        return _dn(al + bl), _up(ah + bh), _dn(Gal + Gbl), _up(Gah + Gbh)

    def obj(self):
        return ["+", self.a.obj(), self.b.obj()]


class Sub(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def degree(self):
        return max(self.a.degree(), self.b.degree())

    def names(self, s):
        self.a.names(s)
        self.b.names(s)

    def plain(self, X, idx):
        return self.a.plain(X, idx) - self.b.plain(X, idx)

    def ival(self, LO, HI, idx):
        al, ah = self.a.ival(LO, HI, idx)
        bl, bh = self.b.ival(LO, HI, idx)
        return _dn(al - bh), _up(ah - bl)

    def grad(self, LO, HI, idx, n):
        al, ah, Gal, Gah = self.a.grad(LO, HI, idx, n)
        bl, bh, Gbl, Gbh = self.b.grad(LO, HI, idx, n)
        return _dn(al - bh), _up(ah - bl), _dn(Gal - Gbh), _up(Gah - Gbl)

    def obj(self):
        return ["-", self.a.obj(), self.b.obj()]


def _imul(al, ah, bl, bh):
    c = np.stack([al * bl, al * bh, ah * bl, ah * bh])
    return _dn(c.min(axis=0)), _up(c.max(axis=0))


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def degree(self):
        return self.a.degree() + self.b.degree()

    def names(self, s):
        self.a.names(s)
        self.b.names(s)

    def plain(self, X, idx):
        return self.a.plain(X, idx) * self.b.plain(X, idx)

    def ival(self, LO, HI, idx):
        al, ah = self.a.ival(LO, HI, idx)
        bl, bh = self.b.ival(LO, HI, idx)
        return _imul(al, ah, bl, bh)

    def grad(self, LO, HI, idx, n):
        al, ah, Gal, Gah = self.a.grad(LO, HI, idx, n)
        bl, bh, Gbl, Gbh = self.b.grad(LO, HI, idx, n)
        vl, vh = _imul(al, ah, bl, bh)
        # d(ab) = a db + b da, evaluated in intervals (broadcast over vars)
        pl, ph = _imul(al[None, :], ah[None, :], Gbl, Gbh)
        ql, qh = _imul(bl[None, :], bh[None, :], Gal, Gah)
        return vl, vh, _dn(pl + ql), _up(ph + qh)

    def obj(self):
        return ["*", self.a.obj(), self.b.obj()]


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def degree(self):
        return self.a.degree()

    def names(self, s):
        self.a.names(s)

    def plain(self, X, idx):
        return -self.a.plain(X, idx)

    def ival(self, LO, HI, idx):
        al, ah = self.a.ival(LO, HI, idx)
        return -ah, -al

    def grad(self, LO, HI, idx, n):
        al, ah, Gal, Gah = self.a.grad(LO, HI, idx, n)
        return -ah, -al, -Gah, -Gal

    def obj(self):
        return ["neg", self.a.obj()]


def var(name: str) -> Var:
    return Var(name)


def variables(*names: str) -> list[Var]:
    return [Var(n) for n in names]


@dataclass(frozen=True)
class Constraint:
    expr: Expr
    relation: str   # ">=" or "<="
    rhs: float

    def __post_init__(self):
        if self.relation not in (">=", "<="):
            raise ValueError(f"relation must be >= or <=, got {self.relation!r}")


class BoxProgram:
    """Maximize a polynomial over a box subject to polynomial inequalities."""

    def __init__(self, vars, objective: Expr, constraints=(), name: str = ""):
        self.var_names = tuple(v[0] for v in vars)
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("duplicate variable names")
        self.lower = np.array([float(v[1]) for v in vars])
        self.upper = np.array([float(v[2]) for v in vars])
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("variable bounds must be finite")
        if (self.lower > self.upper).any():
            raise ValueError("lower bound exceeds upper bound")
        self.objective = _wrap(objective)
        self.constraints = [
            c if isinstance(c, Constraint) else Constraint(_wrap(c[0]), c[1], float(c[2]))
            for c in constraints
        ]
        self.name = name
        self.idx = {n: i for i, n in enumerate(self.var_names)}

        used: set[str] = set()
        self.objective.names(used)
        for c in self.constraints:
            c.expr.names(used)
        unknown = used - set(self.var_names)
        if unknown:
            raise ValueError(f"undeclared variables: {sorted(unknown)}")
        for e in [self.objective] + [c.expr for c in self.constraints]:
            if e.degree() > MAX_DEGREE:
                raise ValueError(f"expression degree {e.degree()} exceeds {MAX_DEGREE}")

    @property
    def n(self) -> int:
        return len(self.var_names)

    def point(self, x: np.ndarray) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.var_names, x)}

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "vars": [
                    [n, lo, hi]
                    for n, lo, hi in zip(self.var_names, self.lower, self.upper)
                ],
                "objective": self.objective.obj(),
                "constraints": [
                    {"expr": c.expr.obj(), "relation": c.relation, "rhs": c.rhs}
                    for c in self.constraints
                ],
            },
            indent=2,
        )


def interval_eval(expr: Expr, box: dict[str, tuple[float, float]]):
    """Sound enclosure of expr over the box (dict name -> (lo, hi))."""
    names = sorted(box)
    idx = {n: i for i, n in enumerate(names)}
    LO = np.array([[box[n][0] for n in names]])
    HI = np.array([[box[n][1] for n in names]])
    lo, hi = _wrap(expr).ival(LO, HI, idx)
    return float(lo[0]), float(hi[0])


@dataclass
class GlobalOptimum:
    """Certificate: best feasible point found and a rigorous upper bound."""

    point: dict[str, float] | None
    value: float | None
    bound: float
    gap: float
    boxes: int
    status: str
    tol: float
    target_met: bool = False
    program: str = ""
    infeasible_samples: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "program": self.program,
                "point": self.point,
                "value": self.value,
                "bound": self.bound,
                "gap": self.gap,
                "boxes": self.boxes,
                "status": self.status,
                "tol": self.tol,
                "target_met": self.target_met,
            },
            indent=2,
        )


def _feasible_mask(prog: BoxProgram, X: np.ndarray, feas_tol: float) -> np.ndarray:
    ok = np.ones(X.shape[0], dtype=bool)
    for c in prog.constraints:
        g = c.expr.plain(X, prog.idx)
        if c.relation == ">=":
            ok &= g >= c.rhs - feas_tol
        else:
            ok &= g <= c.rhs + feas_tol
    return ok


def _is_feasible(prog: BoxProgram, x: np.ndarray, feas_tol: float) -> bool:
    return bool(_feasible_mask(prog, x[None, :], feas_tol)[0])


def _objective_at(prog: BoxProgram, x: np.ndarray) -> float:
    return float(prog.objective.plain(x[None, :], prog.idx)[0])


def _coordinate_ascent(
    prog: BoxProgram, x: np.ndarray, val: float, feas_tol: float, sweeps: int = 3,
) -> tuple[np.ndarray, float]:
    """First-improvement hill climb, one coordinate at a time, inside the
    global box; deterministic. Candidate moves must stay slack-feasible."""
    widths = prog.upper - prog.lower
    x = x.copy()
    for _ in range(sweeps):
        improved = False
        for j in range(prog.n):
            if widths[j] == 0:
                continue
            for frac in (0.25, 0.0625, 0.015625, 1e-4, 1e-6, 1e-8):
                step = widths[j] * frac
                for s in (step, -step):
                    xj = min(prog.upper[j], max(prog.lower[j], x[j] + s))
                    if xj == x[j]:
                        continue
                    cand = x.copy()
                    cand[j] = xj
                    if not _is_feasible(prog, cand, feas_tol):
                        continue
                    v = _objective_at(prog, cand)
                    if v > val:
                        x, val = cand, v
                        improved = True
                        break
                else:
                    continue
                break
        if not improved:
            break
    return x, val


def _split_dim(lo: np.ndarray, hi: np.ndarray) -> int:
    """Widest relative width with a strictly interior midpoint; -1 if none."""
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    rel = (hi - lo) / scale
    for j in np.argsort(-rel, kind="stable"):
        mid = 0.5 * (lo[j] + hi[j])
        if lo[j] < mid < hi[j]:
            return int(j)
    return -1


def solve_global(
    prog: BoxProgram,
    tol: float = DEFAULT_TOL,
    max_boxes: int = DEFAULT_MAX_BOXES,
    *,
    seeds=(),
    bound_target: float | None = None,
    feas_tol: float = DEFAULT_FEAS_TOL,
    epoch_size: int = 256,
    collect_infeasible: int = 0,
    branching: str = "smear",
) -> GlobalOptimum:
    """Branch-and-bound maximization.

    Returns Certified when the global gap is <= tol, BudgetExhausted when
    max_boxes is hit first (bound still rigorous), Infeasible when the whole
    box is proven infeasible. `seeds` are candidate points (dicts or
    vectors) used as initial incumbents after an exact feasibility check.
    `bound_target` stops the search early once the rigorous global upper
    bound drops to the target; the status then still reflects the gap rule
    and `target_met` records the early stop.

    `branching` picks the split coordinate: "smear" (default) splits where
    |gradient| x half-width is largest over the objective and the
    not-yet-settled constraints; "widest" splits the widest relative width,
    ties by variable order. Both are deterministic.
    """
    if branching not in ("smear", "widest"):
        raise ValueError(f"unknown branching rule: {branching!r}")
    n = prog.n
    idx = prog.idx
    inc_val = -math.inf
    inc_x: np.ndarray | None = None

    def consider(x: np.ndarray, v: float):
        nonlocal inc_val, inc_x
        if v > inc_val:
            inc_val, inc_x = v, x.copy()

    for s in seeds:
        if isinstance(s, dict):
            x = np.array([float(s[name]) for name in prog.var_names])
        else:
            x = np.asarray(s, dtype=float)
        x = np.minimum(prog.upper, np.maximum(prog.lower, x))
        if _is_feasible(prog, x, feas_tol):
            x2, v2 = _coordinate_ascent(prog, x, _objective_at(prog, x), feas_tol)
            consider(x2, v2)

    obj_deg = prog.objective.degree()
    con_degs = [c.expr.degree() for c in prog.constraints]
    obj_j = idx[prog.objective.name] if isinstance(prog.objective, Var) else None

    def _enclose(e, deg, LO, HI, MID, RADT):
        """Sound enclosure: natural extension intersected with the centered
        form f(mid) + grad(box) . (box - mid) for nonlinear expressions."""
        vl, vh, Gl, Gh = e.grad(LO, HI, idx, n)
        mag = np.maximum(np.abs(Gl), np.abs(Gh))
        if deg > 1:
            ml, mh = e.ival(MID, MID, idx)
            r = np.zeros(LO.shape[0])
            for j in range(n):
                r = _up(r + _up(RADT[j] * mag[j]))
            vl = np.maximum(vl, _dn(ml - r))
            vh = np.minimum(vh, _up(mh + r))
        return vl, vh, mag

    def child_bounds(LO, HI):
        """Per box: objective upper bound, infeasibility flag, and split dim.

        The gradients driving the centered form also drive smear-based
        branching (split where |grad| x width is largest over the objective
        and the not-yet-settled constraints).
        """
        MID = 0.5 * (LO + HI)
        RADT = (0.5 * (HI - LO)).T          # (n, N)
        ol, oh, omag = _enclose(prog.objective, obj_deg, LO, HI, MID, RADT)
        smear = omag * RADT
        infeas = np.zeros(LO.shape[0], dtype=bool)
        for c, deg in zip(prog.constraints, con_degs):
            gl, gh, gmag = _enclose(c.expr, deg, LO, HI, MID, RADT)
            if c.relation == ">=":
                infeas |= gh < c.rhs - feas_tol
                active = gl < c.rhs
            else:
                infeas |= gl > c.rhs + feas_tol
                active = gh > c.rhs
            smear += gmag * RADT * active[None, :]
        if branching == "widest":
            scale = np.maximum(1.0, np.maximum(np.abs(LO), np.abs(HI)))
            return oh, infeas, np.argmax((HI - LO).T / scale.T, axis=0)
        return oh, infeas, np.argmax(smear, axis=0)

    def infeasible_mask(LO, HI):
        """Constraints-only infeasibility, same enclosures as child_bounds."""
        MID = 0.5 * (LO + HI)
        RADT = (0.5 * (HI - LO)).T
        infeas = np.zeros(LO.shape[0], dtype=bool)
        for c, deg in zip(prog.constraints, con_degs):
            gl, gh, _ = _enclose(c.expr, deg, LO, HI, MID, RADT)
            if c.relation == ">=":
                infeas |= gh < c.rhs - feas_tol
            else:
                infeas |= gl > c.rhs + feas_tol
        return infeas

    _SHAVE_FRACS = (0.5, 0.5, 0.25, 0.25, 0.125, 0.125)

    def shave_objective(LO, HI):
        """When the objective is a bare variable, chop provably infeasible
        top slabs off its dimension. Contraction, not branching: every
        feasible point survives, and each box's objective bound drops to
        its new upper edge."""
        for frac in _SHAVE_FRACS:
            width = HI[:, obj_j] - LO[:, obj_j]
            s = width * frac
            live = s > 0
            if not live.any():
                break
            SLO = LO.copy()
            SLO[:, obj_j] = HI[:, obj_j] - s
            chop = infeasible_mask(SLO, HI) & live
            if chop.any():
                HI[chop, obj_j] -= s[chop]
        return HI[:, obj_j].copy()

    lo0, hi0 = prog.lower.copy(), prog.upper.copy()
    ub0, infeas0, sdim0 = child_bounds(lo0[None, :], hi0[None, :])
    boxes = 1
    residual = -math.inf          # sup over dropped undecided slivers
    infeasible_samples: list = []
    heap: list = []
    counter = 0

    if infeas0[0]:
        if collect_infeasible:
            infeasible_samples.append((lo0.tolist(), hi0.tolist()))
    else:
        mid = 0.5 * (lo0 + hi0)
        if _is_feasible(prog, mid, feas_tol):
            consider(mid, _objective_at(prog, mid))
        heapq.heappush(heap, (-float(ub0[0]), counter, lo0, hi0, int(sdim0[0])))
        counter += 1

    status = None
    target_met = False
    while True:
        global_ub = max(inc_val, residual, -heap[0][0] if heap else -math.inf)
        gap = global_ub - inc_val
        if not heap:
            if inc_x is None and residual == -math.inf:
                status = INFEASIBLE
                break
            status = CERTIFIED if gap <= tol else BUDGET_EXHAUSTED
            break
        if inc_x is not None and gap <= tol:
            status = CERTIFIED
            break
        if bound_target is not None and global_ub <= bound_target:
            target_met = True
            status = CERTIFIED if (inc_x is not None and gap <= tol) else BUDGET_EXHAUSTED
            break
        if boxes >= max_boxes:
            status = BUDGET_EXHAUSTED
            break

        parents = []
        while heap and len(parents) < epoch_size:
            nub, _, lo, hi, sdim = heapq.heappop(heap)
            if -nub <= inc_val:
                continue    # cannot improve; safe to discard
            parents.append((lo, hi, sdim))
        if not parents:
            continue

        child_lo, child_hi = [], []
        for lo, hi, sdim in parents:
            j = sdim
            if not (lo[j] < 0.5 * (lo[j] + hi[j]) < hi[j]):
                j = _split_dim(lo, hi)
            if j < 0:
                # box too small to split: try its corner exactly, keep the
                # enclosure's upper bound so the final bound stays rigorous
                if _is_feasible(prog, lo, feas_tol):
                    consider(lo, _objective_at(prog, lo))
                ub1, inf1, _ = child_bounds(lo[None, :], hi[None, :])
                if not inf1[0]:
                    residual = max(residual, float(ub1[0]))
                continue
            mid = 0.5 * (lo[j] + hi[j])
            l1, h1 = lo.copy(), hi.copy()
            h1[j] = mid
            l2, h2 = lo.copy(), hi.copy()
            l2[j] = mid
            child_lo.extend([l1, l2])
            child_hi.extend([h1, h2])

        if not child_lo:
            continue
        LO = np.stack(child_lo)
        HI = np.stack(child_hi)
        boxes += LO.shape[0]
        ubs, infeas, sdims = child_bounds(LO, HI)
        if collect_infeasible and len(infeasible_samples) < collect_infeasible:
            for i in np.flatnonzero(infeas)[: collect_infeasible - len(infeasible_samples)]:
                infeasible_samples.append((LO[i].tolist(), HI[i].tolist()))

        keep = ~infeas
        kidx = np.flatnonzero(keep)
        if obj_j is not None and kidx.size:
            KHI = HI[kidx]
            new_ubs = shave_objective(LO[kidx], KHI)
            HI[kidx] = KHI
            ubs[kidx] = new_ubs
        mids = 0.5 * (LO[keep] + HI[keep])
        if mids.size:
            feas = _feasible_mask(prog, mids, feas_tol)
            if feas.any():
                vals = prog.objective.plain(mids[feas], idx)
                b = int(np.argmax(vals))
                consider(mids[feas][b], float(vals[b]))

        improved = False
        for i in np.flatnonzero(keep):
            if ubs[i] > inc_val:
                heapq.heappush(
                    heap, (-float(ubs[i]), counter, LO[i], HI[i], int(sdims[i]))
                )
                counter += 1
                improved = True
        if inc_x is not None and improved:
            x2, v2 = _coordinate_ascent(prog, inc_x, inc_val, feas_tol, sweeps=1)
            consider(x2, v2)

    global_ub = max(inc_val, residual, -heap[0][0] if heap else -math.inf)
    if status == INFEASIBLE:
        return GlobalOptimum(
            point=None, value=None, bound=-math.inf, gap=math.inf, boxes=boxes,
            status=INFEASIBLE, tol=tol, target_met=target_met, program=prog.name,
            infeasible_samples=infeasible_samples,
        )
    bound = max(global_ub, inc_val)
    return GlobalOptimum(
        point=prog.point(inc_x) if inc_x is not None else None,
        value=inc_val if inc_x is not None else None,
        bound=bound,
        gap=bound - inc_val,
        boxes=boxes,
        status=status,
        tol=tol,
        target_met=target_met,
        program=prog.name,
        infeasible_samples=infeasible_samples,
    )
