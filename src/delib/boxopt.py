"""Certified global maximization of small polynomial programs over boxes.

Interval branch and bound. Every interval arithmetic step is widened one
ulp outward (epsilon inflation), so enclosures stay sound without touching
the FPU rounding mode. The centered form's radius is, per coordinate, the
distance from the box's center to its farther edge, rounded up.

Each program is compiled once into a tape: its objective and constraints
as one topologically ordered list of ops, with structurally equal subtrees
merged, so a shared subexpression is evaluated once per pass. One pass over
the tape evaluates every expression for a batch of points or boxes in plain
floats, in intervals, or in intervals with interval gradients, and frees
each intermediate result after its last use. Each op's gradient covers
only the variables its subexpression reads; the others are exactly 0.

The search pops the most promising boxes and splits each where
|gradient| x half-width is largest over the objective and the constraints
not yet settled (smear branching; `branching="widest"` splits the widest
relative width instead). It prunes children that are provably infeasible
or provably no better than the incumbent, and harvests incumbents from
exactly evaluated midpoints plus projected coordinate ascent. Reported
upper bounds are rigorous whether or not the run ends certified.

When the objective is a bare variable, each kept child is also shaved:
provably infeasible top slabs of that variable's range are cut off. A
slab lies inside its child, so the child's |gradient| bounds of the
nonlinear constraints serve the slab's centered form, and a slab costs
one interval pass over its rows stacked with their centers, not a fresh
gradient pass. The result is bit-identical to a fresh pass when the
objective variable is never a factor of a product whose other factor is
non-constant (as in every theta_3 case): then no gradient enclosure
depends on that variable's range.

Feasibility slack: incumbents may violate constraints by up to `feas_tol`
after exact evaluation, and infeasibility pruning leaves the same slack,
so a slack-feasible incumbent can never sit inside a pruned box and
`bound >= value` always holds.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import operator
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

    # subclasses: degree(), names(into set), obj(); evaluation goes
    # through the compiled _Tape


class Const(Expr):
    __slots__ = ("v",)

    def __init__(self, v: float):
        self.v = float(v)

    def degree(self):
        return 0

    def names(self, s):
        pass

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

    def obj(self):
        return ["var", self.name]


class _Binary(Expr):
    __slots__ = ("a", "b")
    symbol = ""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def degree(self):
        return max(self.a.degree(), self.b.degree())

    def names(self, s):
        self.a.names(s)
        self.b.names(s)

    def obj(self):
        return [self.symbol, self.a.obj(), self.b.obj()]


class Add(_Binary):
    __slots__ = ()
    symbol = "+"


class Sub(_Binary):
    __slots__ = ()
    symbol = "-"


class Mul(_Binary):
    __slots__ = ()
    symbol = "*"

    def degree(self):
        return self.a.degree() + self.b.degree()


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def degree(self):
        return self.a.degree()

    def names(self, s):
        self.a.names(s)

    def obj(self):
        return ["neg", self.a.obj()]


def _imul(al, ah, bl, bh):
    p, q, r, s = al * bl, al * bh, ah * bl, ah * bh
    return (_dn(np.minimum(np.minimum(p, q), np.minimum(r, s))),
            _up(np.maximum(np.maximum(p, q), np.maximum(r, s))))


# tape op kinds; ops from _ADD on take operand ops
_CONST, _VAR, _ADD, _SUB, _MUL, _NEG = range(6)
_KIND = {Add: _ADD, Sub: _SUB, Mul: _MUL}
_PLAIN = {_ADD: operator.add, _SUB: operator.sub, _MUL: operator.mul,
          _NEG: operator.neg}


def _ival_op(kind, a, b=None):
    al, ah = a
    if kind == _NEG:
        return -ah, -al
    bl, bh = b
    if kind == _ADD:
        return _dn(al + bl), _up(ah + bh)
    if kind == _SUB:
        return _dn(al - bh), _up(ah - bl)
    return _imul(al, ah, bl, bh)


def _mid_rad(LO, HI):
    """Centers of the boxes and, per coordinate, an upper bound on the
    distance from the center to either edge (variables x boxes). The
    rounded half-width 0.5 (HI - LO) can fall short of that distance, so
    each side's distance is rounded up and the larger one taken."""
    MID = 0.5 * (LO + HI)
    return MID, np.maximum(_up(HI - MID), _up(MID - LO)).T


def _centered(vl, vh, ml, mh, RADT, mag):
    """The natural extension [vl, vh] intersected with the centered form
    [ml, mh] +- sum_j RADT_j mag_j, each term and partial sum rounded up.
    mag is (variables x boxes), or stacks several expressions in front."""
    rad = np.zeros(ml.shape)
    for j, r in enumerate(RADT):
        rad = _up(rad + _up(r * mag[..., j, :]))
    return np.maximum(vl, _dn(ml - rad)), np.minimum(vh, _up(mh + rad))


def _place(G, rows, m):
    """An operand's interval gradient (lo, hi), over the variables it reads,
    spread over the m variables its op reads, with exact zeros in the rows
    it does not reach. rows is where its rows land, or None when they are
    all m."""
    if rows is None:
        return G
    out = []
    for g in G:
        z = np.zeros((m,) + g.shape[1:])
        z[rows] = g
        out.append(z)
    return out


class _Tape:
    """Expressions compiled to one flat op list, shared subtrees merged.

    ops[i] is (kind, arg): a constant's value, a variable's index, or the
    indices of the operand ops, which always come before op i. roots[r] is
    the op of expression r. Each op runs the same float operations as a
    walk over the expression tree, so every result is bit-identical to it.
    A pass frees each value after its last use and reduces each root as
    soon as it is computed.

    support[i] lists the variables op i reads, sorted. Op i's interval
    gradient covers only those rows: every other partial derivative is
    exactly 0, so it is neither stored nor rounded. A gradient that does
    not depend on the box stays one column; numpy broadcasting gives the
    same values as full rows.
    """

    def __init__(self, exprs, idx: dict[str, int], n: int):
        self.ops: list[tuple] = []
        self.degs = [e.degree() for e in exprs]
        self.nonlinear = [r for r, d in enumerate(self.degs) if d > 1]
        self.n = n
        keys: dict = {}

        def visit(e):
            if isinstance(e, Const):
                key, op = (_CONST, e.v.hex()), (_CONST, e.v)
            elif isinstance(e, Var):
                key = op = (_VAR, idx[e.name])
            elif isinstance(e, Neg):
                key = op = (_NEG, (visit(e.a),))
            else:
                key = op = (_KIND[type(e)], (visit(e.a), visit(e.b)))
            i = keys.get(key)
            if i is None:
                i = keys[key] = len(self.ops)
                self.ops.append(op)
            return i

        self.roots = [visit(e) for e in exprs]
        operands = [arg if kind >= _ADD else () for kind, arg in self.ops]
        last = {j: i for i, args in enumerate(operands) for j in args}
        # values to free after op i: its operands' last use, and op i itself
        # when no later op reads it
        self._dead = [{j for j in (*args, i) if last.get(j, j) == i}
                      for i, args in enumerate(operands)]
        self._slots: dict[int, list[int]] = {}
        for r, i in enumerate(self.roots):
            self._slots.setdefault(i, []).append(r)
        # _rows[i]: per operand of op i, the rows of support[i] its
        # gradient lands in, or None when it reads all of them
        self.support: list[list[int]] = []
        self._rows: list[tuple] = []
        for (kind, arg), args in zip(self.ops, operands):
            if kind == _CONST:
                s = []
            elif kind == _VAR:
                s = [arg]
            else:
                s = sorted({v for j in args for v in self.support[j]})
            self.support.append(s)
            self._rows.append(tuple(
                None if len(self.support[j]) == len(s)
                else [s.index(v) for v in self.support[j]] for j in args))

    def _run(self, leaf, op, reduce):
        """Yields reduce(r, value of root r) for every root r, in order;
        op(i, kind, *operand values) computes op i."""
        vals: dict = {}
        done: dict = {}
        nxt = 0
        for i, (kind, arg) in enumerate(self.ops):
            if kind >= _ADD:
                v = op(i, kind, *[vals[j] for j in arg])
            else:
                v = leaf(kind, arg)
            vals[i] = v
            for j in self._dead[i]:
                del vals[j]
            for r in self._slots.get(i, ()):
                done[r] = reduce(r, v)
            while nxt in done:
                yield done.pop(nxt)
                nxt += 1

    def plain(self, X: np.ndarray) -> list:
        """Float values of the roots at the rows of X (points x variables)."""
        return list(self._run(
            lambda kind, arg: (np.full(X.shape[0], arg) if kind == _CONST
                               else X[:, arg]),
            lambda i, kind, *args: _PLAIN[kind](*args),
            lambda r, v: v,
        ))

    def ival(self, LO: np.ndarray, HI: np.ndarray) -> list:
        """Natural interval extensions (lo, hi) of the roots over the boxes."""
        return list(self._run(
            lambda kind, arg: (np.full(LO.shape[0], arg),) * 2
            if kind == _CONST else (LO[:, arg], HI[:, arg]),
            lambda i, kind, *args: _ival_op(kind, *args),
            lambda r, v: v,
        ))

    def enclose(self, LO, HI):
        """Sound enclosures (lo, hi, |gradient| bound) of the roots over the
        boxes, one root at a time: the natural extension intersected with
        the centered form f(mid) + grad(box) . (box - mid) for nonlinear
        expressions. The |gradient| bound has one row per variable, exactly 0
        for each variable the root does not read."""
        N = LO.shape[0]
        MID, RADT = _mid_rad(LO, HI)
        centers = self.ival(MID, MID)
        none, one = np.zeros((0, 1)), np.ones((1, 1))

        def leaf(kind, arg):
            if kind == _CONST:
                c = np.full(N, arg)
                return c, c, none, none
            return LO[:, arg], HI[:, arg], one, one

        def grad(i, kind, a, b=None):
            """Interval value and interval gradient of op i."""
            if kind == _NEG:
                return -a[1], -a[0], -a[3], -a[2]
            vl, vh = _ival_op(kind, a[:2], b[:2])
            m, (ra, rb) = len(self.support[i]), self._rows[i]
            if kind == _MUL:
                # d(ab) = a db + b da, each product over its own variables
                Gl, Gh = _ival_op(_ADD, _place(_imul(*a[:2], *b[2:]), rb, m),
                                  _place(_imul(*b[:2], *a[2:]), ra, m))
            else:
                Gl, Gh = _ival_op(kind, _place(a[2:], ra, m),
                                  _place(b[2:], rb, m))
            return vl, vh, Gl, Gh

        def reduce(r, v):
            vl, vh, Gl, Gh = v
            mag = np.zeros((self.n,) + Gl.shape[1:])
            mag[self.support[self.roots[r]]] = np.maximum(np.abs(Gl),
                                                          np.abs(Gh))
            if self.degs[r] > 1:
                vl, vh = _centered(vl, vh, *centers[r], RADT, mag)
            return vl, vh, mag

        return self._run(leaf, grad, reduce)

    def enclose_within(self, LO, HI, mags):
        """Sound enclosures (lo, hi) of the roots over boxes that lie inside
        boxes already enclosed: mags stacks the |gradient| bounds of the
        nonlinear roots over the enclosing boxes (nonlinear roots x
        variables x boxes). Those bounds hold on every sub-box, so the
        centered form needs only one interval pass over the boxes stacked
        with their centers, and no gradient pass."""
        N = LO.shape[0]
        MID, RADT = _mid_rad(LO, HI)
        both = self.ival(np.concatenate([LO, MID]), np.concatenate([HI, MID]))
        out = [(lo[:N], hi[:N]) for lo, hi in both]
        if self.nonlinear:
            # (nonlinear roots, lo/hi, boxes then centers)
            B = np.array([both[r] for r in self.nonlinear])
            vl, vh = _centered(B[:, 0, :N], B[:, 1, :N], B[:, 0, N:],
                               B[:, 1, N:], RADT, mags)
            for i, r in enumerate(self.nonlinear):
                out[r] = vl[i], vh[i]
        return out


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

    @functools.cached_property
    def _tape(self) -> _Tape:
        """The program compiled on first use: root 0 is the objective, root
        i + 1 is constraint i."""
        return _Tape([self.objective] + [c.expr for c in self.constraints],
                     self.idx, self.n)

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
    (lo, hi), = _Tape([_wrap(expr)], idx, len(names)).ival(LO, HI)
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


def _evaluate(prog: BoxProgram, X: np.ndarray, feas_tol: float):
    """Slack-feasibility and objective value at each row of X, one pass."""
    obj, *gs = prog._tape.plain(X)
    ok = np.ones(X.shape[0], dtype=bool)
    for c, g in zip(prog.constraints, gs):
        if c.relation == ">=":
            ok &= g >= c.rhs - feas_tol
        else:
            ok &= g <= c.rhs + feas_tol
    return ok, obj


_ASCENT_FRACS = (0.25, 0.0625, 0.015625, 1e-4, 1e-6, 1e-8)


def _coordinate_ascent(
    prog: BoxProgram, x: np.ndarray, val: float, feas_tol: float, sweeps: int = 3,
) -> tuple[np.ndarray, float]:
    """First-improvement hill climb, one coordinate at a time, inside the
    global box; deterministic. Candidate moves must stay slack-feasible.
    A coordinate's moves are tried as one batch, and the first improving
    one in (larger step first, + before -) order is taken."""
    widths = prog.upper - prog.lower
    x = x.copy()
    for _ in range(sweeps):
        improved = False
        for j in range(prog.n):
            if widths[j] == 0:
                continue
            moves = []
            for frac in _ASCENT_FRACS:
                step = widths[j] * frac
                for s in (step, -step):
                    xj = min(prog.upper[j], max(prog.lower[j], x[j] + s))
                    if xj != x[j]:
                        moves.append(xj)
            if not moves:
                continue
            cand = np.repeat(x[None, :], len(moves), axis=0)
            cand[:, j] = moves
            ok, vals = _evaluate(prog, cand, feas_tol)
            better = np.flatnonzero(ok & (vals > val))
            if better.size:
                b = better[0]
                x, val = cand[b], float(vals[b])
                improved = True
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


_SHAVE_FRACS = (0.5, 0.5, 0.25, 0.25, 0.125, 0.125)
_EPOCH_SIZE = 256     # boxes popped and split per batched pass


def solve_global(
    prog: BoxProgram,
    tol: float = DEFAULT_TOL,
    max_boxes: int = DEFAULT_MAX_BOXES,
    *,
    seeds=(),
    bound_target: float | None = None,
    feas_tol: float = DEFAULT_FEAS_TOL,
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
    tape = prog._tape
    inc_val = -math.inf
    inc_x: np.ndarray | None = None

    def consider(x: np.ndarray, v: float):
        nonlocal inc_val, inc_x
        if v > inc_val:
            inc_val, inc_x = v, x.copy()

    def try_point(x: np.ndarray):
        ok, v = _evaluate(prog, x[None, :], feas_tol)
        if ok[0]:
            consider(x, float(v[0]))

    for s in seeds:
        if isinstance(s, dict):
            x = np.array([float(s[name]) for name in prog.var_names])
        else:
            x = np.asarray(s, dtype=float)
        x = np.minimum(prog.upper, np.maximum(prog.lower, x))
        ok, v = _evaluate(prog, x[None, :], feas_tol)
        if ok[0]:
            consider(*_coordinate_ascent(prog, x, float(v[0]), feas_tol))

    obj_j = prog.idx[prog.objective.name] if isinstance(prog.objective, Var) else None

    def violated(c, gl, gh):
        if c.relation == ">=":
            return gh < c.rhs - feas_tol
        return gl > c.rhs + feas_tol

    def child_bounds(LO, HI):
        """Per box: objective upper bound, infeasibility flag, split dim,
        and the |gradient| bounds of the nonlinear constraints.

        The gradients driving the centered form also drive smear-based
        branching (split where |grad| x width is largest over the objective
        and the not-yet-settled constraints).
        """
        RADT = (0.5 * (HI - LO)).T          # (n, N)
        roots = tape.enclose(LO, HI)
        ol, oh, omag = next(roots)
        smear = omag * RADT
        infeas = np.zeros(LO.shape[0], dtype=bool)
        mags = []
        for c, (gl, gh, gmag), deg in zip(prog.constraints, roots, tape.degs[1:]):
            infeas |= violated(c, gl, gh)
            active = gl < c.rhs if c.relation == ">=" else gh > c.rhs
            smear += gmag * RADT * active[None, :]
            if deg > 1:
                mags.append(gmag)
        if branching == "widest":
            scale = np.maximum(1.0, np.maximum(np.abs(LO), np.abs(HI)))
            return oh, infeas, np.argmax((HI - LO).T / scale.T, axis=0), mags
        return oh, infeas, np.argmax(smear, axis=0), mags

    def shave_objective(LO, HI, MAGS):
        """When the objective is a bare variable, chop provably infeasible
        top slabs off its dimension. Contraction, not branching: every
        feasible point survives, and each box's objective bound drops to
        its new upper edge. A slab lies inside its box, so the box's
        nonlinear-constraint gradient bounds MAGS serve every slab. A
        repeated fraction re-tests only the boxes the previous round
        chopped: any other box would test the same slab."""
        test = np.arange(LO.shape[0])
        for k, frac in enumerate(_SHAVE_FRACS):
            if k == 0 or frac != _SHAVE_FRACS[k - 1]:
                test = np.arange(LO.shape[0])
            s = (HI[test, obj_j] - LO[test, obj_j]) * frac
            live = s > 0
            test, s = test[live], s[live]
            if not test.size:
                continue
            SLO, SHI = LO[test], HI[test]
            SLO[:, obj_j] = SHI[:, obj_j] - s
            _, *cons = tape.enclose_within(SLO, SHI, MAGS[:, :, test])
            chop = np.zeros(test.size, dtype=bool)
            for c, (gl, gh) in zip(prog.constraints, cons):
                chop |= violated(c, gl, gh)
            test = test[chop]
            HI[test, obj_j] -= s[chop]
        return HI[:, obj_j].copy()

    lo0, hi0 = prog.lower.copy(), prog.upper.copy()
    ub0, infeas0, sdim0, _ = child_bounds(lo0[None, :], hi0[None, :])
    boxes = 1
    residual = -math.inf          # sup over dropped undecided slivers
    infeasible_samples: list = []
    heap: list = []
    counter = 0

    if infeas0[0]:
        if collect_infeasible:
            infeasible_samples.append((lo0.tolist(), hi0.tolist()))
    else:
        try_point(0.5 * (lo0 + hi0))
        heapq.heappush(heap, (-float(ub0[0]), counter, lo0, hi0, int(sdim0[0])))
        counter += 1

    status = None
    target_met = False
    stuck = None            # incumbent value the last ascent started from
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
        while heap and len(parents) < _EPOCH_SIZE:
            nub, _, lo, hi, sdim = heapq.heappop(heap)
            if -nub <= inc_val:
                continue    # cannot improve; safe to discard
            parents.append((lo, hi, sdim))
        if not parents:
            continue

        PLO = np.stack([p[0] for p in parents])
        PHI = np.stack([p[1] for p in parents])
        rows = np.arange(len(parents))
        J = np.array([p[2] for p in parents])
        M = 0.5 * (PLO[rows, J] + PHI[rows, J])
        split = (PLO[rows, J] < M) & (M < PHI[rows, J])
        for i in np.flatnonzero(~split):
            lo, hi = PLO[i], PHI[i]
            j = _split_dim(lo, hi)
            if j >= 0:
                J[i], M[i], split[i] = j, 0.5 * (lo[j] + hi[j]), True
                continue
            # box too small to split: try its corner exactly, keep the
            # enclosure's upper bound so the final bound stays rigorous
            try_point(lo)
            ub1, inf1, _, _ = child_bounds(lo[None, :], hi[None, :])
            if not inf1[0]:
                residual = max(residual, float(ub1[0]))
        if not split.any():
            continue
        # children in parent order, lower half first
        J, M = np.repeat(J[split], 2), np.repeat(M[split], 2)
        LO = np.repeat(PLO[split], 2, axis=0)
        HI = np.repeat(PHI[split], 2, axis=0)
        rows = np.arange(LO.shape[0])
        HI[rows[0::2], J[0::2]] = M[0::2]
        LO[rows[1::2], J[1::2]] = M[1::2]
        boxes += LO.shape[0]
        ubs, infeas, sdims, mags = child_bounds(LO, HI)
        if collect_infeasible and len(infeasible_samples) < collect_infeasible:
            for i in np.flatnonzero(infeas)[: collect_infeasible - len(infeasible_samples)]:
                infeasible_samples.append((LO[i].tolist(), HI[i].tolist()))

        keep = ~infeas
        kidx = np.flatnonzero(keep)
        if obj_j is not None and kidx.size:
            KHI = HI[kidx]
            MAGS = np.empty((len(mags), prog.n, kidx.size))
            for i, m in enumerate(mags):
                MAGS[i] = m[:, kidx]
            del mags    # before the shave, which sets the peak memory of a solve
            new_ubs = shave_objective(LO[kidx], KHI, MAGS)
            HI[kidx] = KHI
            ubs[kidx] = new_ubs
        mids = 0.5 * (LO[keep] + HI[keep])
        if mids.size:
            feas, vals = _evaluate(prog, mids, feas_tol)
            if feas.any():
                vals = vals[feas]
                b = int(np.argmax(vals))
                consider(mids[feas][b], float(vals[b]))

        # the heap holds rows of compact copies, so pruned boxes are freed
        push = np.flatnonzero(keep & (ubs > inc_val))
        for lo, hi, ub, sdim in zip(LO[push], HI[push], ubs[push].tolist(),
                                    sdims[push].tolist()):
            heapq.heappush(heap, (-ub, counter, lo, hi, sdim))
            counter += 1
        # an ascent from an incumbent it already failed to improve would
        # repeat the same moves: the incumbent changes only when inc_val rises
        if inc_x is not None and push.size and inc_val != stuck:
            stuck = inc_val
            consider(*_coordinate_ascent(prog, inc_x, inc_val, feas_tol, sweeps=1))

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
