"""Certified global maximization of small polynomial programs over boxes.

Interval branch and bound. Every interval arithmetic step is widened one
ulp outward (epsilon inflation), so enclosures stay sound without touching
the FPU rounding mode. Each nonlinear expression's natural extension is
intersected with its centered form, and so is each linear expression that
reads some variable more than once: in q + (1 - p - q) the natural
extension counts q's width twice, while the centered form's gradient sees
that the two reads cancel. A linear expression that reads each variable
once keeps its natural extension, which is exact up to rounding. The
centered form's radius is, per coordinate, the distance from the box's
center to its farther edge, rounded up. Being nonnegative, the radius's
terms and sums round up by adding one to their int64 bits, as
`np.nextafter` would.

Expression nodes carry the tape's own (kind, arg) encoding. Each program
is compiled once into a tape: its objective and constraints as one
topologically ordered list of those ops, with structurally equal subtrees
merged, so a shared subexpression is evaluated once per pass. One pass over
the tape evaluates every expression for a batch of points or boxes in plain
floats, in intervals, or in intervals with interval gradients, and frees
each intermediate result after its last use. Each op's gradient covers
only the variables its subexpression reads; the others are exactly 0.

The search pops the most promising boxes and splits each where
|gradient| x half-width is largest over the objective and the constraints
not yet settled (smear branching; `branching="widest"` splits the widest
relative width instead). It prunes children that are provably infeasible
or provably no better than the incumbent. Each box is enclosed once, when
it is made, and keeps that bound. Incumbents are the seeds and the points
of boxes, each evaluated in floating point: the midpoints of children and
the corners of boxes too small to split. Reported upper bounds are
rigorous whether or not the run ends certified.

Feasibility slack: incumbents may violate constraints by up to `FEAS_TOL`
as evaluated in floating point, and infeasibility pruning leaves the same
slack, so a slack-feasible incumbent sits inside a pruned box only where
rounding errs by more than `FEAS_TOL`.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

CERTIFIED = "Certified"
BUDGET_EXHAUSTED = "BudgetExhausted"
INFEASIBLE = "Infeasible"

DEFAULT_TOL = 1e-4
DEFAULT_MAX_BOXES = 10_000_000
FEAS_TOL = 1e-12      # constraint slack of incumbents and of pruning
MAX_DEGREE = 4


def _dn(a):
    return np.nextafter(a, -np.inf)


def _up(a):
    return np.nextafter(a, np.inf)


def _step_up(x):
    """np.nextafter(x, inf) in place for x >= +0: one add on the int64
    bits. +inf steps to NaN."""
    bits = x.view(np.int64)
    bits += 1
    return x


def _nan_to_inf(x):
    """x with NaNs set to +inf, in place."""
    np.copyto(x, np.inf, where=np.isnan(x))
    return x


# expression node and tape op kinds; kinds from _ADD on take operands
_CONST, _VAR, _ADD, _SUB, _MUL, _NEG = range(6)


def _wrap(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


class Expr:
    """Polynomial expression node; supports +, -, *, unary -, and ** n.
    Nodes carry the tape's own encoding: kind is a tape op kind, and arg a
    constant's float, a variable's name or the tuple of operand nodes."""

    __slots__ = ("kind", "arg")

    def __init__(self, kind: int, arg):
        self.kind, self.arg = kind, arg

    def __add__(self, o):
        return Expr(_ADD, (self, _wrap(o)))

    def __radd__(self, o):
        return Expr(_ADD, (_wrap(o), self))

    def __sub__(self, o):
        return Expr(_SUB, (self, _wrap(o)))

    def __rsub__(self, o):
        return Expr(_SUB, (_wrap(o), self))

    def __mul__(self, o):
        return Expr(_MUL, (self, _wrap(o)))

    def __rmul__(self, o):
        return Expr(_MUL, (_wrap(o), self))

    def __neg__(self):
        return Expr(_NEG, (self,))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            raise ValueError("only integer powers >= 1")
        return self if n == 1 else Expr(_MUL, (self ** (n - 1), self))


def Const(v: float) -> Expr:
    return Expr(_CONST, float(v))


def Var(name: str) -> Expr:
    return Expr(_VAR, name)


def _imul(al, ah, bl, bh):
    p, q, r, s = al * bl, al * bh, ah * bl, ah * bh
    return (_dn(np.minimum(np.minimum(p, q), np.minimum(r, s))),
            _up(np.maximum(np.maximum(p, q), np.maximum(r, s))))


_PLAIN = {_ADD: operator.add, _SUB: operator.sub, _MUL: operator.mul,
          _NEG: operator.neg}
_SYMBOL = {_ADD: "+", _SUB: "-", _MUL: "*", _NEG: "neg"}   # program JSON


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
    # the center lies in [LO, HI] while LO + HI is finite, which
    # solve_global ensures, so both distances are >= +0
    MID = 0.5 * (LO + HI)
    rad = np.maximum(_step_up(HI - MID), _step_up(MID - LO))
    return MID, _nan_to_inf(rad).T


def _centered(vl, vh, ml, mh, RADT, mag):
    """The natural extension [vl, vh] intersected with the centered form
    [ml, mh] +- sum_j RADT_j mag_j, each term and partial sum rounded up.
    RADT and mag are (variables x boxes); a row of mag may be one column."""
    # terms and sums are >= +0: each rounds up by a bit step (_step_up)
    # on one of two buffers, and a NaN stepped from +inf is +inf again
    rad, term = np.zeros(ml.shape), np.empty(ml.shape)
    rad_bits, term_bits = rad.view(np.int64), term.view(np.int64)
    for r, g in zip(RADT, mag):
        np.multiply(r, g, out=term)
        term_bits += 1
        rad += term
        rad_bits += 1
    _nan_to_inf(rad)
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
    same values as full rows. degs[r] is the degree of root r, and
    centered[r] whether `enclose` gives it the centered form.

    names are the variables in index order; compiling rejects any other.
    """

    def __init__(self, exprs, names):
        self.ops: list[tuple] = []
        self.names = tuple(names)
        self.n = len(self.names)
        idx = {name: j for j, name in enumerate(self.names)}
        unknown: set[str] = set()
        keys: dict = {}

        def visit(e):
            if e.kind == _CONST:
                key, op = (_CONST, e.arg.hex()), (_CONST, e.arg)
            elif e.kind == _VAR:
                if e.arg not in idx:
                    unknown.add(e.arg)
                key = op = (_VAR, idx.get(e.arg))
            else:
                key = op = (e.kind, tuple(map(visit, e.arg)))
            i = keys.get(key)
            if i is None:
                i = keys[key] = len(self.ops)
                self.ops.append(op)
            return i

        self.roots = [visit(e) for e in exprs]
        del visit   # a self-referencing closure: free keys now, not at gc
        if unknown:
            raise ValueError(f"undeclared variables: {sorted(unknown)}")
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
        deg: list[int] = []
        # repeats[i]: op i reads some variable more than once, as when
        # its operands' supports overlap or one operand is read twice
        repeats: list[bool] = []
        for (kind, arg), args in zip(self.ops, operands):
            if kind == _CONST:
                s, d = [], 0
            elif kind == _VAR:
                s, d = [arg], 1
            else:
                s = sorted({v for j in args for v in self.support[j]})
                d = (sum if kind == _MUL else max)(deg[j] for j in args)
            self.support.append(s)
            deg.append(d)
            repeats.append(any(repeats[j] for j in args)
                           or sum(len(self.support[j]) for j in args) > len(s))
            self._rows.append(tuple(
                None if len(self.support[j]) == len(s)
                else [s.index(v) for v in self.support[j]] for j in args))
        self.degs = [deg[i] for i in self.roots]
        # a linear root's natural extension overestimates only where it
        # reads a variable twice, as in x - x
        self.centered = [deg[i] > 1 or repeats[i] for i in self.roots]

    def obj(self, i):
        """Op i as the nested lists of the program JSON; a merged subtree
        is written out again at each use, as the expression tree has it."""
        kind, arg = self.ops[i]
        if kind == _CONST:
            return ["const", arg]
        if kind == _VAR:
            return ["var", self.names[arg]]
        return [_SYMBOL[kind], *[self.obj(j) for j in arg]]

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
        expressions and for linear ones that read a variable more than
        once. The |gradient| bound has one row per variable, exactly 0
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
            if self.centered[r]:
                vl, vh = _centered(vl, vh, *centers[r], RADT, mag)
            return vl, vh, mag

        return self._run(leaf, grad, reduce)


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
        # root 0 is the objective, root i + 1 is constraint i
        self._tape = _Tape([self.objective] + [c.expr for c in self.constraints],
                           self.var_names)
        for d in self._tape.degs:
            if d > MAX_DEGREE:
                raise ValueError(f"expression degree {d} exceeds {MAX_DEGREE}")

    @property
    def n(self) -> int:
        return len(self.var_names)

    def point(self, x: np.ndarray) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.var_names, x)}

    def to_json(self) -> str:
        objective, *exprs = map(self._tape.obj, self._tape.roots)
        return json.dumps(
            {
                "name": self.name,
                "vars": [
                    [n, lo, hi]
                    for n, lo, hi in zip(self.var_names, self.lower, self.upper)
                ],
                "objective": objective,
                "constraints": [
                    {"expr": e, "relation": c.relation, "rhs": c.rhs}
                    for c, e in zip(self.constraints, exprs)
                ],
            },
            indent=2,
        )


def interval_eval(expr: Expr, box: dict[str, tuple[float, float]]):
    """Sound enclosure of expr over the box (dict name -> (lo, hi))."""
    names = sorted(box)
    LO = np.array([[box[n][0] for n in names]])
    HI = np.array([[box[n][1] for n in names]])
    (lo, hi), = _Tape([_wrap(expr)], names).ival(LO, HI)
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


def _evaluate(prog: BoxProgram, X: np.ndarray):
    """Slack-feasibility and objective value at each row of X, one pass."""
    obj, *gs = prog._tape.plain(X)
    ok = np.ones(X.shape[0], dtype=bool)
    for c, g in zip(prog.constraints, gs):
        if c.relation == ">=":
            ok &= g >= c.rhs - FEAS_TOL
        else:
            ok &= g <= c.rhs + FEAS_TOL
    return ok, obj


_EPOCH_SIZE = 256     # boxes popped and split per batched pass


def solve_global(
    prog: BoxProgram,
    tol: float = DEFAULT_TOL,
    max_boxes: int = DEFAULT_MAX_BOXES,
    *,
    seeds=(),
    bound_target: float | None = None,
    branching: str = "smear",
) -> GlobalOptimum:
    """Branch-and-bound maximization.

    Returns Certified when the global gap is <= tol, BudgetExhausted when
    max_boxes is hit first (bound still rigorous), Infeasible when the whole
    box is proven infeasible. `seeds` are candidate points (dicts from
    variable name to value), clipped to the box and kept unmoved as
    initial incumbents when they are slack-feasible in floating point.
    `bound_target` stops the search early once the rigorous global upper
    bound drops to the target; the status then still reflects the gap rule
    and `target_met` records the early stop.

    `branching` picks the split coordinate among those whose midpoint lies
    strictly inside the box: "smear" (default) splits where |gradient| x
    half-width is largest over the objective and the not-yet-settled
    constraints; "widest" splits the widest relative width. Ties go by
    variable order, so both are deterministic.
    """
    if branching not in ("smear", "widest"):
        raise ValueError(f"unknown branching rule: {branching!r}")
    if not (0.0 <= tol < math.inf):
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    if max_boxes < 0:
        raise ValueError(f"max_boxes must be non-negative, got {max_boxes!r}")
    tape = prog._tape
    inc_val = -math.inf
    inc_x: np.ndarray | None = None

    def try_points(X: np.ndarray):
        """Make the first best slack-feasible row of X the incumbent if it
        beats the incumbent."""
        nonlocal inc_val, inc_x
        ok, v = _evaluate(prog, X)
        if ok.any():
            b = int(np.argmax(np.where(ok, v, -math.inf)))
            if v[b] > inc_val:
                inc_val, inc_x = float(v[b]), X[b].copy()

    try_points(np.clip(np.reshape([[float(s[name]) for name in prog.var_names]
                                   for s in seeds], (-1, prog.n)),
                       prog.lower, prog.upper))

    def child_bounds(LO, HI, root):
        """Per box: objective upper bound, infeasibility flag and split
        coordinate, the best-scoring one whose midpoint is strictly inside
        the box, or -1 when there is none.

        The gradients driving the centered form also drive smear-based
        branching (split where |grad| x width is largest over the objective
        and the not-yet-settled constraints).
        """
        RADT = (0.5 * (HI - LO)).T          # (n, N)
        roots = tape.enclose(LO, HI)
        # an overflow could make an enclosure NaN, which drops its box as
        # if infeasible; finite over the root box, finite over sub-boxes
        if root:
            roots = list(roots)
            if not all(np.isfinite(a).all() for e in roots for a in e):
                raise ValueError("enclosures over the root box are not "
                                 "finite; narrow the variable bounds")
            roots = iter(roots)
        ol, oh, omag = next(roots)
        score = omag * RADT
        infeas = np.zeros(LO.shape[0], dtype=bool)
        for c, (gl, gh, gmag) in zip(prog.constraints, roots):
            if c.relation == ">=":
                infeas |= gh < c.rhs - FEAS_TOL
                active = gl < c.rhs
            else:
                infeas |= gl > c.rhs + FEAS_TOL
                active = gh > c.rhs
            score += gmag * RADT * active[None, :]
        if branching == "widest":
            scale = np.maximum(1.0, np.maximum(np.abs(LO), np.abs(HI)))
            score = (HI - LO).T / scale.T
        MID = 0.5 * (LO + HI)
        inside = ((LO < MID) & (MID < HI)).T
        sdim = np.argmax(np.where(inside, score, -math.inf), axis=0)
        return oh, infeas, np.where(inside.any(axis=0), sdim, -1)

    if (np.abs([prog.lower, prog.upper]) > np.finfo(float).max / 2).any():
        raise ValueError("variable bounds too large: box centers overflow")
    LO, HI = prog.lower[None, :], prog.upper[None, :]   # the root box
    boxes = 0
    residual = -math.inf          # sup over the bounds of unsplittable boxes
    heap: list = []
    counter = 0
    target_met = False
    while True:
        ubs, infeas, sdims = child_bounds(LO, HI, root=not boxes)
        boxes += LO.shape[0]
        keep = ~infeas
        try_points(0.5 * (LO[keep] + HI[keep]))
        # the heap holds rows of compact copies, so pruned boxes are freed
        push = np.flatnonzero(keep & (ubs > inc_val))
        for lo, hi, ub, sdim in zip(LO[push], HI[push], ubs[push].tolist(),
                                    sdims[push].tolist()):
            heapq.heappush(heap, (-ub, counter, lo, hi, sdim))
            counter += 1

        global_ub = max(inc_val, residual, -heap[0][0] if heap else -math.inf)
        gap = global_ub - inc_val
        if inc_x is not None and gap <= tol:
            status = CERTIFIED
            break
        if not heap:
            status = (INFEASIBLE if inc_x is None and residual == -math.inf
                      else BUDGET_EXHAUSTED)
            break
        target_met = bound_target is not None and global_ub <= bound_target
        if target_met or boxes >= max_boxes:
            status = BUDGET_EXHAUSTED
            break

        parents = []
        while heap and len(parents) < _EPOCH_SIZE:
            nub, _, lo, hi, sdim = heapq.heappop(heap)
            if -nub <= inc_val:
                continue    # cannot improve; safe to discard
            if sdim < 0:
                # too small to split: try its corner, keep its bound so
                # the final bound stays rigorous
                try_points(lo[None, :])
                residual = max(residual, -nub)
                continue
            parents.append((lo, hi, sdim))

        # children in parent order, lower half first
        J = np.repeat(np.array([p[2] for p in parents], dtype=np.intp), 2)
        LO = np.repeat(np.reshape([p[0] for p in parents], (-1, prog.n)), 2,
                       axis=0)
        HI = np.repeat(np.reshape([p[1] for p in parents], (-1, prog.n)), 2,
                       axis=0)
        rows = np.arange(LO.shape[0])
        M = 0.5 * (LO[rows, J] + HI[rows, J])
        HI[rows[0::2], J[0::2]] = M[0::2]
        LO[rows[1::2], J[1::2]] = M[1::2]

    return GlobalOptimum(
        point=None if inc_x is None else prog.point(inc_x),
        value=None if inc_x is None else inc_val,
        bound=global_ub,
        gap=math.inf if inc_x is None else gap,
        boxes=boxes,
        status=status,
        tol=tol,
        target_met=target_met,
        program=prog.name,
    )
