"""Property tests for the compiled expression tape in `delib.boxopt`.

Random polynomials of degree <= 4 are built from a pool of subexpressions
that later ones reuse, both as the same object and as structurally equal
fresh copies, so the tape merges shared subtrees. The tape is compared
with a walk over the expression tree, bit for bit, and with exact
`Fraction` arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from delib.boxopt import _CONST, Add, Const, Mul, Neg, Sub, Var, _dn, _Tape, _up

_coords = st.floats(min_value=-4.0, max_value=4.0,
                    allow_nan=False, allow_infinity=False)
_consts = st.one_of(st.integers(-3, 3).map(float), _coords)


@st.composite
def _programs(draw):
    """(variable names, expressions): up to four roots over a shared pool."""
    n = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(n)]
    # recipe i: ("var", j) | ("const", c) | ("neg", a) | (op, a, b), a, b < i
    recipes, degs = [], []
    for j in range(n):
        recipes.append(("var", j))
        degs.append(1)
    for c in draw(st.lists(_consts, min_size=1, max_size=3)):
        recipes.append(("const", c))
        degs.append(0)
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["+", "-", "*", "neg"]))
        a = draw(st.integers(0, len(recipes) - 1))
        if op == "neg":
            recipes.append(("neg", a))
            degs.append(degs[a])
            continue
        b = draw(st.integers(0, len(recipes) - 1))
        deg = degs[a] + degs[b] if op == "*" else max(degs[a], degs[b])
        if deg > 4:
            continue
        recipes.append((op, a, b))
        degs.append(deg)

    shared: dict[int, object] = {}

    def build(i, fresh):
        """Recipe i as an Expr; fresh copies are equal but distinct objects."""
        if not fresh and i in shared:
            return shared[i]
        kind, *args = recipes[i]
        if kind == "var":
            e = Var(names[args[0]])
        elif kind == "const":
            e = Const(args[0])
        elif kind == "neg":
            e = Neg(build(args[0], draw(st.booleans())))
        else:
            cls = {"+": Add, "-": Sub, "*": Mul}[kind]
            e = cls(build(args[0], draw(st.booleans())),
                    build(args[1], draw(st.booleans())))
        if not fresh:
            shared[i] = e
        return e

    picks = draw(st.lists(st.integers(0, len(recipes) - 1),
                          min_size=1, max_size=4))
    return names, [build(i, draw(st.booleans())) for i in picks]


@st.composite
def _boxes(draw, n):
    """A few boxes (rows) over n variables; some sides are points."""
    rows = draw(st.integers(1, 4))
    lo, hi = np.empty((rows, n)), np.empty((rows, n))
    for r in range(rows):
        for j in range(n):
            a, b = sorted([draw(_coords), draw(_coords)])
            lo[r, j], hi[r, j] = a, b
    return lo, hi


def _exact(e, point, memo):
    """Exact value of e at a rational point."""
    key = id(e)
    if key not in memo:
        if isinstance(e, Const):
            memo[key] = Fraction(e.v)
        elif isinstance(e, Var):
            memo[key] = point[e.name]
        elif isinstance(e, Neg):
            memo[key] = -_exact(e.a, point, memo)
        else:
            a, b = _exact(e.a, point, memo), _exact(e.b, point, memo)
            memo[key] = (a * b if isinstance(e, Mul)
                         else a + b if isinstance(e, Add) else a - b)
    return memo[key]


def _float_walk(e, point, memo):
    """Float value of e by a walk over the tree, one rounding per node, and
    a bound on its distance from the exact value: the operands' errors
    carried through the op, plus one ulp of the op's own result."""
    key = id(e)
    if key in memo:
        return memo[key]
    if isinstance(e, Const):
        out = e.v, Fraction(0)
    elif isinstance(e, Var):
        out = point[e.name], Fraction(0)
    elif isinstance(e, Neg):
        f, err = _float_walk(e.a, point, memo)
        out = -f, err
    else:
        fa, ea = _float_walk(e.a, point, memo)
        fb, eb = _float_walk(e.b, point, memo)
        if isinstance(e, Mul):
            f = fa * fb
            err = abs(Fraction(fa)) * eb + abs(Fraction(fb)) * ea + ea * eb
        else:
            f = fa + fb if isinstance(e, Add) else fa - fb
            err = ea + eb
        out = f, err + Fraction(math.ulp(f))
    memo[key] = out
    return out


def _imul_stacked(al, ah, bl, bh):
    c = np.stack(np.broadcast_arrays(al * bl, al * bh, ah * bl, ah * bh))
    return _dn(c.min(axis=0)), _up(c.max(axis=0))


def _ival_tree(e, LO, HI, idx):
    """Interval extension by a walk over the tree, with full-size arrays
    and the four corner products reduced as one stack."""
    if isinstance(e, Const):
        c = np.full(LO.shape[0], e.v)
        return c, c
    if isinstance(e, Var):
        return LO[:, idx[e.name]], HI[:, idx[e.name]]
    al, ah = _ival_tree(e.a, LO, HI, idx)
    if isinstance(e, Neg):
        return -ah, -al
    bl, bh = _ival_tree(e.b, LO, HI, idx)
    if isinstance(e, Add):
        return _dn(al + bl), _up(ah + bh)
    if isinstance(e, Sub):
        return _dn(al - bh), _up(ah - bl)
    return _imul_stacked(al, ah, bl, bh)


def _grad_tree(e, LO, HI, idx):
    """Interval value and full (variables x boxes) interval gradient by a
    walk over the tree."""
    n, N = LO.shape[1], LO.shape[0]
    if isinstance(e, Const):
        c, z = np.full(N, e.v), np.zeros((n, N))
        return c, c, z, z
    if isinstance(e, Var):
        z = np.zeros((n, N))
        z[idx[e.name]] = 1.0
        return LO[:, idx[e.name]], HI[:, idx[e.name]], z, z
    al, ah, Gal, Gah = _grad_tree(e.a, LO, HI, idx)
    if isinstance(e, Neg):
        return -ah, -al, -Gah, -Gal
    bl, bh, Gbl, Gbh = _grad_tree(e.b, LO, HI, idx)
    if isinstance(e, Add):
        return _dn(al + bl), _up(ah + bh), _dn(Gal + Gbl), _up(Gah + Gbh)
    if isinstance(e, Sub):
        return _dn(al - bh), _up(ah - bl), _dn(Gal - Gbh), _up(Gah - Gbl)
    vl, vh = _imul_stacked(al, ah, bl, bh)
    pl, ph = _imul_stacked(al[None, :], ah[None, :], Gbl, Gbh)
    ql, qh = _imul_stacked(bl[None, :], bh[None, :], Gal, Gah)
    return vl, vh, _dn(pl + ql), _up(ph + qh)


def _enclose_tree(e, LO, HI, idx):
    """Natural extension intersected with the centered form, one
    expression and one variable at a time."""
    vl, vh, Gl, Gh = _grad_tree(e, LO, HI, idx)
    mag = np.maximum(np.abs(Gl), np.abs(Gh))
    if e.degree() > 1:
        MID = 0.5 * (LO + HI)
        RADT = (0.5 * (HI - LO)).T
        ml, mh = _ival_tree(e, MID, MID, idx)
        r = np.zeros(LO.shape[0])
        for j in range(LO.shape[1]):
            r = _up(r + _up(RADT[j] * mag[j]))
        vl = np.maximum(vl, _dn(ml - r))
        vh = np.minimum(vh, _up(mh + r))
    return vl, vh, mag


def _rational_points(data, lo, hi, count=4):
    """Random rational points of the box [lo, hi] (one row)."""
    for _ in range(count):
        point = []
        for a, b in zip(lo, hi):
            den = data.draw(st.integers(1, 1000))
            t = Fraction(data.draw(st.integers(0, den)), den)
            point.append(Fraction(a) + t * (Fraction(b) - Fraction(a)))
        yield point


def _tape(names, exprs):
    return _Tape(exprs, {name: j for j, name in enumerate(names)}, len(names))


def _same_bits(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@given(prog=_programs(), data=st.data())
def test_enclosures_match_tree_walk_bit_for_bit(prog, data):
    names, exprs = prog
    idx = {name: j for j, name in enumerate(names)}
    tape = _tape(names, exprs)
    LO, HI = data.draw(_boxes(len(names)))
    natural = tape.ival(LO, HI)
    centered = list(tape.enclose(LO, HI, (0.5 * (HI - LO)).T))
    for e, got_n, got_c in zip(exprs, natural, centered):
        assert all(map(_same_bits, got_n, _ival_tree(e, LO, HI, idx)))
        assert all(map(_same_bits, got_c, _enclose_tree(e, LO, HI, idx)))


@given(prog=_programs(), data=st.data())
def test_interval_and_centered_enclosures_contain_exact_values(prog, data):
    names, exprs = prog
    tape = _tape(names, exprs)
    LO, HI = data.draw(_boxes(len(names)))
    natural = tape.ival(LO, HI)
    centered = list(tape.enclose(LO, HI, (0.5 * (HI - LO)).T))
    for row in range(LO.shape[0]):
        for x in _rational_points(data, LO[row], HI[row]):
            point = dict(zip(names, x))
            for r, e in enumerate(exprs):
                v = _exact(e, point, {})
                assert natural[r][0][row] <= v <= natural[r][1][row]
                assert centered[r][0][row] <= v <= centered[r][1][row]
                # the centered form only ever tightens the natural extension
                assert natural[r][0][row] <= centered[r][0][row]
                assert centered[r][1][row] <= natural[r][1][row]


@given(prog=_programs(), data=st.data())
def test_plain_values_round_the_exact_value(prog, data):
    names, exprs = prog
    tape = _tape(names, exprs)
    LO, HI = data.draw(_boxes(len(names)))
    X = LO + (HI - LO) * data.draw(st.floats(0.0, 1.0))
    X = np.minimum(HI, np.maximum(LO, X))
    values = tape.plain(X)
    for row in range(X.shape[0]):
        fpoint = dict(zip(names, X[row].tolist()))
        point = {k: Fraction(v) for k, v in fpoint.items()}
        for r, e in enumerate(exprs):
            got = values[r][row]
            want, err = _float_walk(e, fpoint, {})
            # the same float operations as a walk over the tree, merged or not
            assert got == want
            # one rounding per op: within one ulp per op of the exact value
            assert abs(Fraction(got) - _exact(e, point, {})) <= err


def _copy(e):
    """e as a tree of new objects, with no node shared."""
    if isinstance(e, Const):
        return Const(e.v)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Neg):
        return Neg(_copy(e.a))
    return type(e)(_copy(e.a), _copy(e.b))


@given(prog=_programs())
def test_equal_subtrees_compile_to_one_op(prog):
    names, exprs = prog
    tape = _tape(names, exprs)
    # no two ops compute the same thing
    keys = [(kind, arg.hex() if kind == _CONST else arg) for kind, arg in tape.ops]
    assert len(set(keys)) == len(keys)
    # unshared copies of the same expressions merge back into the same ops
    twice = _tape(names, exprs + [_copy(e) for e in exprs])
    assert twice.ops == tape.ops
    assert twice.roots == tape.roots + tape.roots
