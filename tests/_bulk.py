"""Vectorized test oracle: one quantifier-free body on many aligned lassos at once.

Rows are independent lassos sharing one shape (pre, period); atoms come as
boolean arrays. The large acceptance cross-checks run on this path, and
`test_eval_bulk_matches_scalar` checks it against `semantics.eval_formula`.

Arrays are column-major: every temporal step updates one position for all
rows, `res[:, j]`, which is then one contiguous pass over memory.
"""

from typing import Mapping, Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from hypersynth.formula import (
    And,
    BoolConst,
    Eventually,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    PropAtom,
    Release,
    TraceAtom,
    Until,
    WeakUntil,
    parse_formula,
)
from hypersynth.semantics import LassoTrace, TraceSet, eval_formula


def eval_bulk(f: Formula, atoms: Mapping[tuple, np.ndarray], pre: int, period: int,
              rows: Optional[int] = None) -> np.ndarray:
    """Return a bool array of shape (rows, pre + period) of per-position verdicts.

    Atom keys are ("trace", prop, traceVar) and ("prop", var); each maps to a
    (rows, pre + period) bool array.
    """
    n = pre + period
    atoms = {key: np.asfortranarray(a) for key, a in atoms.items()}

    def rec(g: Formula) -> np.ndarray:
        if isinstance(g, BoolConst):
            r = rows if rows is not None else next(iter(atoms.values())).shape[0]
            return np.full((r, n), g.value, dtype=bool, order="F")
        if isinstance(g, TraceAtom):
            return atoms[("trace", g.prop, g.trace_var)]
        if isinstance(g, PropAtom):
            return atoms[("prop", g.var)]
        if isinstance(g, Not):
            return ~rec(g.child)
        if isinstance(g, And):
            return rec(g.left) & rec(g.right)
        if isinstance(g, Or):
            return rec(g.left) | rec(g.right)
        if isinstance(g, Implies):
            return ~rec(g.left) | rec(g.right)
        if isinstance(g, Iff):
            return rec(g.left) == rec(g.right)
        if isinstance(g, Next):
            a = rec(g.child)
            res = np.empty_like(a, order="F")
            res[:, : n - 1] = a[:, 1:]
            res[:, n - 1] = a[:, pre]
            return res
        if isinstance(g, Eventually):
            # every loop position reaches the whole cycle, so the loop verdict is uniform
            a = rec(g.child)
            res = np.empty_like(a, order="F")
            res[:, pre:] = a[:, pre:].any(axis=1)[:, None]
            for j in range(pre - 1, -1, -1):
                res[:, j] = a[:, j] | res[:, j + 1]
            return res
        if isinstance(g, Globally):
            a = rec(g.child)
            res = np.empty_like(a, order="F")
            res[:, pre:] = a[:, pre:].all(axis=1)[:, None]
            for j in range(pre - 1, -1, -1):
                res[:, j] = a[:, j] & res[:, j + 1]
            return res
        if isinstance(g, (Until, WeakUntil, Release)):
            a = rec(g.left)
            b = rec(g.right)
            if isinstance(g, WeakUntil):
                a, b = b, a | b
                is_release = True
            else:
                is_release = isinstance(g, Release)
            res = np.full(a.shape, is_release, order="F")
            for _ in range(2):
                for j in range(n - 1, -1, -1):
                    nxt = res[:, j + 1] if j + 1 < n else res[:, pre]
                    if is_release:
                        res[:, j] = b[:, j] & (a[:, j] | nxt)
                    else:
                        res[:, j] = b[:, j] | (a[:, j] & nxt)
            return res
        raise TypeError(f"cannot bulk-evaluate node {type(g).__name__}")

    return rec(f)


# ---------------------------------------------------------------------------
# the bulk evaluator agrees with the scalar one (collected through test_semantics)

_SIG = frozenset({"a", "b"})


@st.composite
def _bodies(draw):
    ops = ["atom", "!", "&", "|", "X", "F", "G", "U", "W", "R"]
    def build(depth):
        op = draw(st.sampled_from(ops if depth > 0 else ["atom"]))
        if op == "atom":
            return draw(st.sampled_from(["a[pi]", "b[pi]", "true"]))
        if op == "!":
            return f"!({build(depth - 1)})"
        if op in ("X", "F", "G"):
            return f"{op} ({build(depth - 1)})"
        return f"({build(depth - 1)}) {op} ({build(depth - 1)})"
    return build(3)


@given(_bodies(), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_bulk_matches_scalar(text, data):
    f = parse_formula(text, {"a", "b"}, trace_vars={"pi"})
    pre = data.draw(st.integers(0, 2))
    period = data.draw(st.integers(1, 3))
    n = pre + period
    rows = 8
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    arr_a = rng.random((rows, n)) < 0.5
    arr_b = rng.random((rows, n)) < 0.5
    out = eval_bulk(f, {("trace", "a", "pi"): arr_a, ("trace", "b", "pi"): arr_b}, pre, period)
    for r in range(rows):
        vals = [
            (frozenset({"a"}) if arr_a[r, i] else frozenset())
            | (frozenset({"b"}) if arr_b[r, i] else frozenset())
            for i in range(n)
        ]
        t = LassoTrace(_SIG, tuple(vals[:pre]), tuple(vals[pre:]))
        want = eval_formula(f, TraceSet(_SIG, frozenset({t})), {"pi": t})
        assert out[r, 0] == want, f"{text} pre={pre} period={period} row={r}"
