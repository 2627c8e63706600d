"""Property tests for the compiled expression tape in `delib.boxopt`.

Random polynomials of degree <= 4 are built from a pool of subexpressions
that later ones reuse, both as the same object and as structurally equal
fresh copies, so the tape merges shared subtrees. The tape is compared
with a walk over the expression tree, bit for bit, and with exact
`Fraction` arithmetic; its degrees, variables and program JSON are
compared with walks over the tree too. On the paper's programs,
enclosures are also compared with a dense pass that carries every
gradient over all variables.
"""

import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from delib import boxopt
from delib.averaging import build_theta3_case_program
from delib.boxopt import (
    _ADD, _CONST, _MUL, _NEG, _SUB, _VAR, BoxProgram, Const, Expr, Var,
    _centered, _dn, _imul, _ival_op, _mid_rad, _nan_to_inf, _step_up, _Tape,
    _up,
)

from conftest import paper_programs

_coords = st.floats(min_value=-4.0, max_value=4.0,
                    allow_nan=False, allow_infinity=False)
_consts = st.one_of(st.integers(-3, 3).map(float), _coords)
# exact and float arithmetic of the operator kinds, and their program JSON
_ARITH = {_ADD: operator.add, _SUB: operator.sub, _MUL: operator.mul,
          _NEG: operator.neg}
_SYMBOLS = {_ADD: "+", _SUB: "-", _MUL: "*", _NEG: "neg"}


@st.composite
def _programs(draw):
    """(variable names, expressions): up to four roots over a shared pool."""
    n = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(n)]
    # recipe i: (_VAR, j) | (_CONST, c) | (_NEG, a) | (kind, a, b), a, b < i
    recipes, degs = [], []
    for j in range(n):
        recipes.append((_VAR, j))
        degs.append(1)
    for c in draw(st.lists(_consts, min_size=1, max_size=3)):
        recipes.append((_CONST, c))
        degs.append(0)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([_ADD, _SUB, _MUL, _NEG]))
        a = draw(st.integers(0, len(recipes) - 1))
        if kind == _NEG:
            recipes.append((_NEG, a))
            degs.append(degs[a])
            continue
        b = draw(st.integers(0, len(recipes) - 1))
        deg = degs[a] + degs[b] if kind == _MUL else max(degs[a], degs[b])
        if deg > 4:
            continue
        recipes.append((kind, a, b))
        degs.append(deg)

    shared: dict[int, object] = {}

    def build(i, fresh):
        """Recipe i as an Expr; fresh copies are equal but distinct objects."""
        if not fresh and i in shared:
            return shared[i]
        kind, *args = recipes[i]
        if kind == _VAR:
            e = Var(names[args[0]])
        elif kind == _CONST:
            e = Const(args[0])
        else:
            e = Expr(kind, tuple(build(a, draw(st.booleans())) for a in args))
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
        if e.kind == _CONST:
            memo[key] = Fraction(e.arg)
        elif e.kind == _VAR:
            memo[key] = point[e.arg]
        else:
            memo[key] = _ARITH[e.kind](*[_exact(a, point, memo)
                                         for a in e.arg])
    return memo[key]


def _float_walk(e, point, memo):
    """Float value of e by a walk over the tree, one rounding per node, and
    a bound on its distance from the exact value: the operands' errors
    carried through the op, plus one ulp of the op's own result."""
    key = id(e)
    if key in memo:
        return memo[key]
    if e.kind == _CONST:
        out = e.arg, Fraction(0)
    elif e.kind == _VAR:
        out = point[e.arg], Fraction(0)
    elif e.kind == _NEG:
        f, err = _float_walk(e.arg[0], point, memo)
        out = -f, err
    else:
        (fa, ea), (fb, eb) = (_float_walk(a, point, memo) for a in e.arg)
        f = _ARITH[e.kind](fa, fb)
        if e.kind == _MUL:
            err = abs(Fraction(fa)) * eb + abs(Fraction(fb)) * ea + ea * eb
        else:
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
    if e.kind == _CONST:
        c = np.full(LO.shape[0], e.arg)
        return c, c
    if e.kind == _VAR:
        return LO[:, idx[e.arg]], HI[:, idx[e.arg]]
    al, ah = _ival_tree(e.arg[0], LO, HI, idx)
    if e.kind == _NEG:
        return -ah, -al
    bl, bh = _ival_tree(e.arg[1], LO, HI, idx)
    if e.kind == _ADD:
        return _dn(al + bl), _up(ah + bh)
    if e.kind == _SUB:
        return _dn(al - bh), _up(ah - bl)
    return _imul_stacked(al, ah, bl, bh)


def _names(e):
    """The names of the variables e reads, by a walk over the tree."""
    if e.kind == _CONST:
        return set()
    if e.kind == _VAR:
        return {e.arg}
    return set().union(*map(_names, e.arg))


def _degree(e):
    """The degree of e, by a walk over the tree."""
    if e.kind == _CONST:
        return 0
    if e.kind == _VAR:
        return 1
    degs = [_degree(a) for a in e.arg]
    return sum(degs) if e.kind == _MUL else max(degs)


def _reads_twice(e):
    """Whether e reads some variable more than once, counting each read
    along each path of the tree."""
    reads = []

    def walk(e):
        if e.kind == _VAR:
            reads.append(e.arg)
        elif e.kind != _CONST:
            for a in e.arg:
                walk(a)

    walk(e)
    return len(reads) > len(set(reads))


def _json_tree(e):
    """e as the nested lists of the program JSON, by a walk over the tree."""
    if e.kind == _CONST:
        return ["const", e.arg]
    if e.kind == _VAR:
        return ["var", e.arg]
    return [_SYMBOLS[e.kind], *map(_json_tree, e.arg)]


def _reads(e, idx):
    """Boolean mask of the variables e reads."""
    mask = np.zeros(len(idx), dtype=bool)
    mask[[idx[name] for name in _names(e)]] = True
    return mask


def _only(mask, Gl, Gh):
    """An interval gradient with exact zeros in the rows mask leaves out."""
    Gl, Gh = np.array(Gl, dtype=float), np.array(Gh, dtype=float)
    Gl[~mask] = Gh[~mask] = 0.0
    return Gl, Gh


def _grad_tree(e, LO, HI, idx):
    """Interval value and full (variables x boxes) interval gradient by a
    walk over the tree. A partial derivative is an exact zero outside the
    variables its node reads, and so is each partial product a db outside
    the variables of db."""
    n, N = LO.shape[1], LO.shape[0]
    if e.kind == _CONST:
        c, z = np.full(N, e.arg), np.zeros((n, N))
        return c, c, z, z
    if e.kind == _VAR:
        z = np.zeros((n, N))
        z[idx[e.arg]] = 1.0
        return LO[:, idx[e.arg]], HI[:, idx[e.arg]], z, z
    mask = _reads(e, idx)
    al, ah, Gal, Gah = _grad_tree(e.arg[0], LO, HI, idx)
    if e.kind == _NEG:
        return (-ah, -al, *_only(mask, -Gah, -Gal))
    bl, bh, Gbl, Gbh = _grad_tree(e.arg[1], LO, HI, idx)
    if e.kind == _ADD:
        return (_dn(al + bl), _up(ah + bh),
                *_only(mask, _dn(Gal + Gbl), _up(Gah + Gbh)))
    if e.kind == _SUB:
        return (_dn(al - bh), _up(ah - bl),
                *_only(mask, _dn(Gal - Gbh), _up(Gah - Gbl)))
    vl, vh = _imul_stacked(al, ah, bl, bh)
    pl, ph = _only(_reads(e.arg[1], idx),
                   *_imul_stacked(al[None, :], ah[None, :], Gbl, Gbh))
    ql, qh = _only(_reads(e.arg[0], idx),
                   *_imul_stacked(bl[None, :], bh[None, :], Gal, Gah))
    return vl, vh, *_only(mask, _dn(pl + ql), _up(ph + qh))


def _enclose_tree(e, LO, HI, idx):
    """Natural extension intersected with the centered form, one
    expression and one variable at a time."""
    vl, vh, Gl, Gh = _grad_tree(e, LO, HI, idx)
    mag = np.maximum(np.abs(Gl), np.abs(Gh))
    if _degree(e) > 1 or _reads_twice(e):
        MID = 0.5 * (LO + HI)
        RADT = np.maximum(_up(HI - MID), _up(MID - LO)).T
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


def _same_bits(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@given(prog=_programs(), data=st.data())
def test_enclosures_match_tree_walk_bit_for_bit(prog, data):
    names, exprs = prog
    idx = {name: j for j, name in enumerate(names)}
    tape = _Tape(exprs, names)
    LO, HI = data.draw(_boxes(len(names)))
    natural = tape.ival(LO, HI)
    centered = list(tape.enclose(LO, HI))
    for e, got_n, got_c in zip(exprs, natural, centered):
        assert all(map(_same_bits, got_n, _ival_tree(e, LO, HI, idx)))
        assert all(map(_same_bits, got_c, _enclose_tree(e, LO, HI, idx)))


@given(prog=_programs(), data=st.data())
def test_gradient_bounds_are_zero_for_variables_not_read(prog, data):
    names, exprs = prog
    idx = {name: j for j, name in enumerate(names)}
    LO, HI = data.draw(_boxes(len(names)))
    for e, (_, _, mag) in zip(exprs, _Tape(exprs, names).enclose(LO, HI)):
        unread = mag[~_reads(e, idx)]
        assert _same_bits(unread, np.zeros_like(unread))


@given(prog=_programs(), data=st.data())
def test_interval_and_centered_enclosures_contain_exact_values(prog, data):
    names, exprs = prog
    tape = _Tape(exprs, names)
    LO, HI = data.draw(_boxes(len(names)))
    natural = tape.ival(LO, HI)
    centered = list(tape.enclose(LO, HI))
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
    tape = _Tape(exprs, names)
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
    if e.kind in (_CONST, _VAR):
        return Expr(e.kind, e.arg)
    return Expr(e.kind, tuple(map(_copy, e.arg)))


@given(prog=_programs())
def test_equal_subtrees_compile_to_one_op(prog):
    names, exprs = prog
    tape = _Tape(exprs, names)
    # no two ops compute the same thing
    keys = [(kind, arg.hex() if kind == _CONST else arg) for kind, arg in tape.ops]
    assert len(set(keys)) == len(keys)
    # unshared copies of the same expressions merge back into the same ops
    twice = _Tape(exprs + [_copy(e) for e in exprs], names)
    assert twice.ops == tape.ops
    assert twice.roots == tape.roots + tape.roots


@given(prog=_programs())
def test_degrees_and_variables_match_tree_walk(prog):
    names, exprs = prog
    tape = _Tape(exprs, names)
    assert tape.degs == [_degree(e) for e in exprs]
    assert tape.centered == [_degree(e) > 1 or _reads_twice(e) for e in exprs]
    for i, e in zip(tape.roots, exprs):
        assert tape.support[i] == sorted(map(names.index, _names(e)))


@given(prog=_programs(), data=st.data())
def test_undeclared_variables_are_named(prog, data):
    names, exprs = prog
    declared = [name for name in names if data.draw(st.booleans())]
    missing = sorted(set().union(*map(_names, exprs)) - set(declared))
    if not missing:
        _Tape(exprs, declared)
        return
    with pytest.raises(ValueError) as err:
        _Tape(exprs, declared)
    assert str(err.value) == f"undeclared variables: {missing}"


@given(prog=_programs(), data=st.data())
def test_program_json_matches_tree_walk(prog, data):
    names, (objective, *exprs) = prog
    box = [(name, *sorted([data.draw(_coords), data.draw(_coords)]))
           for name in names]
    cons = [(e, data.draw(st.sampled_from([">=", "<="])), data.draw(_consts))
            for e in exprs]
    program = BoxProgram(box, objective, cons, name="random")
    assert program.to_json() == json.dumps({
        "name": "random",
        "vars": [list(v) for v in box],
        "objective": _json_tree(objective),
        "constraints": [{"expr": _json_tree(e), "relation": rel, "rhs": rhs}
                        for e, rel, rhs in cons],
    }, indent=2)


_RADIUS_BOXES = [
    (-1.7148085531751386e-11, 0.7296554464470921),
    (2.701930100448224e-12, 3.22728442292395e-12),
]


def _radius_covers(lo, hi):
    """Whether the centered form's radius covers the exact distance from
    the center to both edges of every coordinate of every box."""
    MID, RADT = _mid_rad(lo, hi)
    for row in range(lo.shape[0]):
        for j in range(lo.shape[1]):
            m = Fraction(MID[row, j])
            reach = max(Fraction(hi[row, j]) - m, m - Fraction(lo[row, j]))
            if Fraction(RADT[j, row]) < reach:
                return False
    return True


def test_centered_form_radius_covers_the_distance_to_the_center():
    # on both boxes the rounded half-width 0.5 (hi - lo) falls short
    lo = np.array([[a for a, _ in _RADIUS_BOXES]])
    hi = np.array([[b for _, b in _RADIUS_BOXES]])
    assert _radius_covers(lo, hi)


@given(data=st.data())
def test_centered_form_radius_covers_random_boxes(data):
    assert _radius_covers(*data.draw(_boxes(3)))


_STEP_EDGES = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.0, 1.7976931348623157e308]


@given(bits=st.lists(st.integers(0, 0x7FEF_FFFF_FFFF_FFFF), max_size=20))
def test_bit_step_is_nextafter_on_nonnegative_floats(bits):
    # every finite float >= +0 from its bit pattern, plus the edges: +0,
    # the smallest subnormal, the largest subnormal, the smallest normal,
    # 1 and the largest finite value
    x = np.concatenate([np.array(bits, dtype=np.int64).view(np.float64),
                        _STEP_EDGES])
    with np.errstate(over="ignore"):      # the largest value steps to inf
        want = np.nextafter(x, np.inf)
    assert _same_bits(_step_up(x.copy()), want)


def test_bit_step_of_infinity_is_nan_and_maps_back_to_infinity():
    x = _step_up(np.array([np.inf, np.inf]))
    assert np.isnan(x).all()
    with np.errstate(invalid="ignore"):   # the stepped inf is a signaling NaN
        x[1] += 1.0
    assert _same_bits(_nan_to_inf(x), np.nextafter([np.inf] * 2, np.inf))


def _centered_by_nextafter(vl, vh, ml, mh, RADT, mag):
    """_centered with every rounding an np.nextafter call."""
    rad = np.zeros(ml.shape)
    for j, r in enumerate(RADT):
        rad = _up(rad + _up(r * mag[j]))
    return np.maximum(vl, _dn(ml - rad)), np.minimum(vh, _up(mh + rad))


def _array(data, elements, shape):
    size = math.prod(shape)
    values = data.draw(st.lists(elements, min_size=size, max_size=size))
    return np.array(values, dtype=float).reshape(shape)


_magnitudes = st.one_of(
    st.floats(0.0, 4.0), st.floats(0.0, 1.7976931348623157e308),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300]))


@given(data=st.data())
def test_centered_form_steps_bits_as_nextafter_rounds(data):
    # radii and gradient bounds up to the largest float, so terms and
    # sums overflow to inf as well
    # (variables x boxes), as enclose passes them; a row of mag that does
    # not depend on the box may be one column
    n, rows = (data.draw(st.integers(1, 4)) for _ in range(2))
    RADT = _array(data, _magnitudes, (n, rows))
    mag = _array(data, _magnitudes,
                 (n, data.draw(st.sampled_from([1, rows]))))
    ml = _array(data, _coords, (rows,))
    vl, vh = ml - 8.0, ml + 8.0
    with np.errstate(over="ignore", invalid="ignore"):
        got = _centered(vl, vh, ml, ml, RADT, mag)
        want = _centered_by_nextafter(vl, vh, ml, ml, RADT, mag)
    assert all(map(_same_bits, got, want))


def test_centered_form_on_a_huge_radius_is_the_natural_extension():
    # the radius overflows to +inf, not NaN, so the centered form is
    # (-inf, inf) and the natural extension stands
    vl, vh, ml = np.array([-2.0]), np.array([3.0]), np.array([0.5])
    RADT, mag = np.full((2, 1), 1e300), np.full((2, 1), 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _centered(vl, vh, ml, ml, RADT, mag)
    assert _same_bits(got[0], vl) and _same_bits(got[1], vh)


@st.composite
def _linear_sums(draw):
    """(names, expression, exact coefficients, exact constant, scale): a
    signed sum of terms c * x over at most three variables, which it reads
    with repeats, plus a constant. scale bounds the magnitude of every
    partial sum over boxes in [-4, 4]."""
    n = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(n)]
    c0 = draw(_consts)
    e, coef, const, scale = Const(c0), [Fraction(0)] * n, Fraction(c0), abs(c0)
    for _ in range(draw(st.integers(1, 6))):
        j, c = draw(st.integers(0, n - 1)), draw(_consts)
        x = Var(names[j])
        term = Const(c) * x if draw(st.booleans()) else x * Const(c)
        how = draw(st.sampled_from(["+", "-", "rsub"]))
        if how == "rsub":         # term - e flips every earlier sign
            e, coef, const = term - e, [-a for a in coef], -const
        else:
            e = e + term if how == "+" else e - term
        coef[j] += Fraction(c) if how != "-" else -Fraction(c)
        scale += 4 * abs(c)
    return names, e, coef, const, scale


@given(lin=_linear_sums(), data=st.data())
def test_linear_roots_enclose_within_rounding_of_their_coefficient_form(
        lin, data):
    # a natural extension counts a variable's width once per read, so
    # x - x + y would overestimate by 2 width(x); the coefficient form
    # c0 + sum_j a_j x_j has exact range, and the enclosure is within a
    # few roundings per op of it
    names, e, coef, const, scale = lin
    LO, HI = data.draw(_boxes(len(names)))
    (lo, hi, _), = _Tape([e], names).enclose(LO, HI)
    # at most 13 ops, each rounded outward by an ulp of at most scale (or
    # by a subnormal step at 0), carried through the gradient and f(mid)
    slack = 2.0 ** -45 * scale + 1e-300
    for row in range(LO.shape[0]):
        ends = [sorted([a * Fraction(LO[row, j]), a * Fraction(HI[row, j])])
                for j, a in enumerate(coef)]
        want_lo = const + sum(end[0] for end in ends)
        want_hi = const + sum(end[1] for end in ends)
        assert lo[row] <= want_lo and want_hi <= hi[row]
        assert want_lo - Fraction(lo[row]) <= slack
        assert Fraction(hi[row]) - want_hi <= slack


def test_cancelling_reads_leave_the_other_variables_range():
    x, y = Var("x"), Var("y")
    (lo, hi, _), = _Tape([x - x + y], ["x", "y"]).enclose(
        np.array([[0.0, 2.0]]), np.array([[1.0, 3.0]]))
    assert 2.0 - 1e-14 <= lo[0] <= 2.0 and 3.0 <= hi[0] <= 3.0 + 1e-14


@pytest.mark.parametrize("name", sorted(paper_programs()))
def test_only_the_k2_part_programs_have_a_linear_root_with_repeats(name):
    # the fix for repeated reads leaves every other paper program's
    # enclosures as they were: none of its linear roots reads a variable
    # twice
    tape = paper_programs()[name]._tape
    repeated = [c and d == 1 for c, d in zip(tape.centered, tape.degs)]
    if "copeland-k2-B" in name or "copeland-k2-slope" in name:
        assert repeated[0]
    else:
        assert repeated == [False] * len(repeated)


def _dense_enclose(tape, LO, HI):
    """tape.enclose with every gradient carried over all n variables, as
    (n, 1) columns or (n, boxes) arrays; rows a node does not read hold 0
    or the outward rounding of sums and products of 0."""
    N, n = LO.shape
    zero, unit = np.zeros((n, 1)), list(np.eye(n)[:, :, None])
    MID, RADT = _mid_rad(LO, HI)
    centers = tape.ival(MID, MID)
    vals = []
    for kind, arg in tape.ops:
        if kind == _CONST:
            c = np.full(N, arg)
            vals.append((c, c, zero, zero))
            continue
        if kind == _VAR:
            vals.append((LO[:, arg], HI[:, arg], unit[arg], unit[arg]))
            continue
        a = vals[arg[0]]
        if kind == _NEG:
            vals.append((-a[1], -a[0], -a[3], -a[2]))
            continue
        b = vals[arg[1]]
        vl, vh = _ival_op(kind, a[:2], b[:2])
        if kind == _MUL:
            Gl, Gh = _ival_op(_ADD, _imul(*a[:2], *b[2:]),
                              _imul(*b[:2], *a[2:]))
        else:
            Gl, Gh = _ival_op(kind, a[2:], b[2:])
        vals.append((vl, vh, Gl, Gh))
    out = []
    for r, i in enumerate(tape.roots):
        vl, vh, Gl, Gh = vals[i]
        mag = np.maximum(np.abs(Gl), np.abs(Gh))
        if tape.centered[r]:
            vl, vh = _centered(vl, vh, *centers[r], RADT, mag)
        out.append((vl, vh, mag))
    return out


def _sub_boxes(prog, count, rng):
    """Seeded sub-boxes of the program's box, from the full box down to
    points, with about one side in five of zero width."""
    width = prog.upper - prog.lower
    scale = rng.choice([1.0, 0.1, 1e-3, 1e-6, 0.0], size=(count, 1))
    half = 0.5 * width * scale * rng.random((count, prog.n))
    half[rng.random((count, prog.n)) < 0.2] = 0.0
    mid = prog.lower + width * rng.random((count, prog.n))
    LO = np.clip(mid - half, prog.lower, prog.upper)
    HI = np.clip(mid + half, prog.lower, prog.upper)
    LO[0], HI[0] = prog.lower, prog.upper
    return LO, HI


@pytest.mark.parametrize("prog", [pytest.param(p, id=name) for name, p
                                  in paper_programs().items()])
def test_paper_program_enclosures_match_a_dense_gradient_pass(prog):
    tape = prog._tape
    LO, HI = _sub_boxes(prog, 400, np.random.default_rng(11))
    dense = _dense_enclose(tape, LO, HI)
    for i, got, want in zip(tape.roots, tape.enclose(LO, HI), dense):
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        reads = np.zeros(prog.n, dtype=bool)
        reads[tape.support[i]] = True
        mag, dense_mag = np.broadcast_arrays(got[2], want[2])
        assert _same_bits(mag[reads], dense_mag[reads])
        assert _same_bits(mag[~reads], np.zeros_like(mag[~reads]))


def test_gradient_pass_rounds_only_the_variables_each_op_reads(monkeypatch):
    # a dense pass sends 392,276 elements through _up/_dn on these boxes
    prog = build_theta3_case_program(7)
    LO, HI = _sub_boxes(prog, 512, np.random.default_rng(5))
    rounded = []

    def counted(step):
        def count_and_step(a):
            rounded.append(np.size(a))
            return step(a)
        return count_and_step

    for name in ("_up", "_dn"):
        monkeypatch.setattr(boxopt, name, counted(getattr(boxopt, name)))
    list(prog._tape.enclose(LO, HI))
    assert sum(rounded) <= 0.6 * 392_276
