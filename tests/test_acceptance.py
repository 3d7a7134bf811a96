"""Acceptance checks: one test per shipping criterion, each printing a pass line."""

import functools
import itertools
import math
import random
import time

import pytest

from hypersynth.automata import ltl_to_nba
from hypersynth.bench import gen_arbiter
from hypersynth.formula import (
    And,
    Eventually,
    Globally,
    Next,
    Not,
    Or,
    Release,
    TraceAtom,
    TraceForall,
    Until,
    WeakUntil,
    parse,
    parse_formula,
    to_nnf,
)
from hypersynth.fragments import (
    LINEAR_CANDIDATE,
    NO_UNIVERSAL,
    OUTSIDE,
    SINGLE_UNIVERSAL,
    UNDEC_FORALL_EXISTS,
    UNDEC_PROP_ALTERNATION,
    classify_formula,
    has_info_fork,
    parse_architecture,
    render_architecture,
)
from hypersynth.mc import accepts_lasso, mc_exists_forall
from hypersynth.reductions import eliminate_knowledge
from hypersynth.semantics import (
    LassoTrace,
    TraceSet,
    eval_bulk,
    eval_formula,
    replace_set,
    system_traces,
)
from hypersynth.synth import prepare, search, solve_at_bounds

from _oracles import (
    CHAINED,
    FORKED,
    K_CONTEXTS,
    brute_fork,
    feeds,
    random_architecture,
    random_child,
    random_micro_set,
    rooted,
)


def _report(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


def _solve_family(doc, max_n, max_m):
    t0 = time.monotonic()
    inst = prepare(doc)
    res, attempts = search(inst, max_n, max_m)
    secs = time.monotonic() - t0
    return {"doc": doc, "inst": inst, "res": res, "attempts": attempts, "secs": secs}


@pytest.fixture(scope="module")
def arb2():
    return _solve_family(gen_arbiter(2, {1}), 3, 3)


@pytest.fixture(scope="module")
def arb2full():
    return _solve_family(gen_arbiter(2, {1}, True), 4, 3)


@pytest.fixture(scope="module")
def arb3():
    return _solve_family(gen_arbiter(3, {1}), 4, 3)


# ---------------------------------------------------------------------------
# criteria 1 to 3: the prompt-arbiter verdict table


def test_criterion_1_arbiter2_prompt(arb2):
    t0 = time.monotonic()
    inst, res = arb2["inst"], arb2["res"]
    for m in (1, 2, 3):
        assert solve_at_bounds(inst, 1, m).status == "unsat", m
    assert solve_at_bounds(inst, 2, 1).status == "unsat"
    assert res is not None and res.status == "sat"
    assert res.n <= 3 and res.m <= 3
    assert (res.n, res.m) == (2, 2)
    assert res.system is not None and res.generator is not None
    assert res.generator.signals == inst.gen_signals
    ok, _ = mc_exists_forall(res.system, res.generator, inst.body)
    assert ok
    secs = arb2["secs"] + time.monotonic() - t0
    assert secs < 60
    _report(1, f"unsat at n=1 for m<=3 and at (2,1); sat at (2,2), re-verified, {secs:.1f}s")


def test_criterion_2_arbiter2_full_prompt(arb2full):
    t0 = time.monotonic()
    inst, res = arb2full["inst"], arb2full["res"]
    assert solve_at_bounds(inst, 3, 1).status == "unsat"
    assert res is not None and res.status == "sat"
    assert res.n <= 4 and res.m <= 3
    # one state above the paper's (3,2): the point the bench declares for this row
    assert (res.n, res.m) == (4, 2)
    ok, _ = mc_exists_forall(res.system, res.generator, inst.body)
    assert ok
    secs = arb2full["secs"] + time.monotonic() - t0
    assert secs < 300
    _report(2, f"unsat at (3,1); sat at (4,2), re-verified, {secs:.1f}s")


def test_criterion_3_arbiter3_prompt(arb3):
    t0 = time.monotonic()
    inst, res = arb3["inst"], arb3["res"]
    assert res is not None and res.status == "sat"
    assert res.n <= 4 and res.m <= 3
    assert (res.n, res.m) == (3, 3)
    ok, _ = mc_exists_forall(res.system, res.generator, inst.body)
    assert ok
    secs = arb3["secs"] + time.monotonic() - t0
    assert secs < 900
    _report(3, f"sat at (3,3), re-verified, {secs:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: automaton translation vs the evaluator on every small body

_SIG_AT = ("a@pi", "b@pi")
_LETTERS = [
    frozenset(s for b, s in enumerate(_SIG_AT) if d >> b & 1) for d in range(4)
]
_SHAPES = [(p, l) for p in range(4) for l in range(1, 4)]


def _depth3_bodies():
    atoms = [TraceAtom("a", "pi"), TraceAtom("b", "pi")]
    unary = [Not, Next, Eventually, Globally]
    binary = [And, Or, Until, WeakUntil, Release]
    lvl2 = [u(x) for u in unary for x in atoms]
    lvl2 += [b(x, y) for b in binary for x in atoms for y in atoms]
    pool = atoms + lvl2
    lvl3 = [u(x) for u in unary for x in pool]
    lvl3 += [b(x, y) for b in binary for x in pool for y in pool]
    seen, out = set(), []
    for f in atoms + lvl2 + lvl3:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _succ_table(nba):
    succ = [[0] * 4 for _ in range(nba.n_states)]
    for src, guard, dst in nba.transitions:
        for li in range(4):
            if all((sig in _LETTERS[li]) == val for sig, val in guard):
                succ[src][li] |= 1 << dst
    return succ


def _step_mask(succ, mask, li):
    out = 0
    while mask:
        bit = mask & -mask
        out |= succ[bit.bit_length() - 1][li]
        mask ^= bit
    return out


def _loop_acceptance(succ, accepting, n_states, v):
    # per position j of v, the states that start an accepting run over the
    # rotation v[j:] + v[:j] repeated forever, as a Buchi fixpoint over the
    # loop product: Z[j] is the set of states that, at position j of v, have
    # a run through an accepting state infinitely often,
    # Z = nu Z. mu Y. (accepting & pre Z) | pre Y, one bitmask per position
    lv = len(v)
    acc = 0
    for s in accepting:
        acc |= 1 << s
    cols = [[succ[s][v[j]] for s in range(n_states)] for j in range(lv)]

    def pre(x):
        out = []
        for j in range(lv):
            nxt, m = x[(j + 1) % lv], 0
            for s, targets in enumerate(cols[j]):
                if targets & nxt:
                    m |= 1 << s
            out.append(m)
        return out

    z = [(1 << n_states) - 1] * lv
    while True:
        base = [acc & m for m in pre(z)]
        y = base
        while True:
            y2 = [b | m for b, m in zip(base, pre(y))]
            if y2 == y:
                break
            y = y2
        if y == z:
            return z
        z = y


def _word_tables(nba):
    succ = _succ_table(nba)
    init = 0
    for s in nba.initial:
        init |= 1 << s
    reach = {(): init}
    for n in range(1, 4):
        for w in itertools.product(range(4), repeat=n):
            reach[w] = _step_mask(succ, reach[w[:-1]], w[-1])
    accs = {}
    for n in range(1, 4):
        for v in itertools.product(range(4), repeat=n):
            # one fixpoint serves every rotation of v
            if v not in accs:
                z = _loop_acceptance(succ, nba.accepting, nba.n_states, v)
                for j in range(n):
                    accs[v[j:] + v[:j]] = z[j]
    return reach, accs


@functools.lru_cache(maxsize=None)
def _index_bit(k, rows):
    """Mask of the rows 0 .. rows - 1 whose index has bit k set (1 << k < rows):
    runs of 2**k zeros then 2**k ones, doubled up to `rows` bits."""
    half = 1 << k
    mask, width = ((1 << half) - 1) << half, 2 * half
    while width < rows:
        mask |= mask << width
        width *= 2
    return mask


def _lowest_bit(mask):
    return (mask & -mask).bit_length() - 1


def _state_rows(masks, spacing):
    """Per automaton state, the bits i * spacing of the state sets masks[i] that hold it."""
    rows = {}
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            s = low.bit_length() - 1
            rows[s] = rows.get(s, 0) | 1 << (i * spacing)
            m ^= low
    return rows


def test_criterion_4_automata_match_oracle_exhaustively():
    t0 = time.monotonic()
    formulas = _depth3_bodies()
    assert len(formulas) == 4622
    lassos = sum(4 ** (p + l) for p, l in _SHAPES)
    assert lassos == 7140
    rng = random.Random(4)
    plain = frozenset({"a", "b"})
    # row i of a shape is the word whose letters are the base-4 digits of i,
    # first letter most significant; a is bit 0 of a letter, b is bit 1
    letter_atoms = {
        (p, l): {
            ("trace", sig, "pi"): [_index_bit(2 * (p + l - 1 - w) + b, 4 ** (p + l)) for w in range(p + l)]
            for b, sig in enumerate(("a", "b"))
        }
        for p, l in _SHAPES
    }
    agreements = 0
    samples = 0
    for fi, f in enumerate(formulas):
        nba = ltl_to_nba(f)
        reach, accs = _word_tables(nba)
        # per loop length, each state's mask of the loop words it accepts
        loops = {
            l: _state_rows([accs[v] for v in itertools.product(range(4), repeat=l)], 1)
            for l in range(1, 4)
        }
        for p, l in _SHAPES:
            pr = [reach[w] for w in itertools.product(range(4), repeat=p)]
            count = 4 ** (p + l)
            # row prefix * 4**l + loop is accepted when a state reached by the
            # prefix accepts the loop: per state, its loop-word mask repeated
            # at the rows of the prefixes that reach it
            got = 0
            for state, prefixes in _state_rows(pr, 4 ** l).items():
                got |= loops[l].get(state, 0) * prefixes
            want = eval_bulk(f, letter_atoms[p, l], p, l, count)[0]
            if got != want:
                bad = _lowest_bit(got ^ want)
                pytest.fail(f"mismatch: {f} at shape ({p},{l}) word index {bad}")
            agreements += count
        if fi % 15 == 0:
            # anchor the bitmask tables to the member-level interfaces
            p, l = rng.choice(_SHAPES)
            idx = rng.randrange(4 ** (p + l))
            word = [(idx // 4 ** (p + l - 1 - j)) % 4 for j in range(p + l)]
            jig = (reach[tuple(word[:p])] & accs[tuple(word[p:])]) != 0
            direct = accepts_lasso(
                nba,
                [_LETTERS[d] for d in word[:p]],
                [_LETTERS[d] for d in word[p:]],
            )
            t = LassoTrace(
                plain,
                tuple(frozenset(s for b, s in enumerate(("a", "b")) if d >> b & 1) for d in word[:p]),
                tuple(frozenset(s for b, s in enumerate(("a", "b")) if d >> b & 1) for d in word[p:]),
            )
            scal = eval_formula(f, TraceSet(plain, frozenset({t})), {"pi": t})
            assert jig == direct == scal, (str(f), p, l, idx)
            samples += 1
    assert agreements == 4622 * 7140 == 33001080
    assert samples >= 300
    secs = time.monotonic() - t0
    assert secs < 600
    _report(
        4,
        f"4622 bodies x 7140 lassos, {agreements} membership agreements, "
        f"{samples} sampled cross-checks, {secs:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: synthesized machines satisfy the original document

_CHUNK = 1 << 16


def _q_witness(inst, res):
    evar = inst.exist_vars[0]
    key = f"{inst.designated_input}@{evar}"
    gp, gl = res.generator.output_lasso()
    pre = tuple(key in v for v in gp)
    loop = tuple(key in v for v in gl)
    return pre, loop


def _q_lasso(pre, loop):
    wrap = lambda xs: tuple(frozenset({"q"}) if x else frozenset() for x in xs)
    return LassoTrace(frozenset({"q"}), wrap(pre), wrap(loop))


def _c5_eval_rows(M, body, pi_var, qpre, qloop, p, l, lo, rows):
    """Mask of body's verdicts at position 0 on the input lassos lo .. lo + rows - 1.

    Lasso idx reads its p + l letters as the base-2**|I| digits of idx, first
    letter most significant, input b being bit b of a digit; `rows` is a
    power of two that divides lo.
    """
    nin, n_m = len(M.inputs), len(M.labels)
    # uniform lasso shape: past p + n_m*l every driven state run has looped,
    # and the period is a common multiple of every input, state, and q cycle
    c0 = math.lcm(*range(1, n_m + 1))
    big_p = max(p + n_m * l, len(qpre))
    big_l = math.lcm(l * c0, len(qloop))
    npos = big_p + big_l
    full = (1 << rows) - 1

    def index_bit(k):
        # bit k of lo + r: a fixed pattern below the chunk size, constant above it
        return _index_bit(k, rows) if 1 << k < rows else full * (lo >> k & 1)

    # per word position: each input's mask, then each input valuation's
    letters = []
    for w in range(p + l):
        ins = [index_bit(nin * (p + l - 1 - w) + b) for b in range(nin)]
        vals = []
        for d in range(1 << nin):
            m = full
            for b, x in enumerate(ins):
                m &= x if d >> b & 1 else full ^ x
            vals.append(m)
        letters.append((ins, vals))
    arrs = {("trace", sig, pi_var): [] for sig in (*M.inputs, *M.outputs)}
    # the machine runs on every row at once, as one row mask per state
    states = [0] * n_m
    states[M.initial] = full
    for j in range(npos):
        ins, vals = letters[j if j < p else p + (j - p) % l]
        for sig, x in zip(M.inputs, ins):
            arrs[("trace", sig, pi_var)].append(x)
        for o in M.outputs:
            m = 0
            for s, lab in enumerate(M.labels):
                if o in lab:
                    m |= states[s]
            arrs[("trace", o, pi_var)].append(m)
        nxt = [0] * n_m
        for s, row in enumerate(M.delta):
            if states[s]:
                for d, s2 in enumerate(row):
                    nxt[s2] |= states[s] & vals[d]
        states = nxt
    arrs[("prop", "q")] = [
        full if (qpre[j] if j < len(qpre) else qloop[(j - len(qpre)) % len(qloop)]) else 0
        for j in range(npos)
    ]
    return eval_bulk(body, arrs, big_p, big_l, rows)[0]


def _c5_check(name, fam, max_prefix=4, max_loop=4):
    doc, inst, res = fam["doc"], fam["inst"], fam["res"]
    assert res is not None
    M = res.system
    inner = doc.formula.child
    assert isinstance(inner, TraceForall)
    body, pi_var = inner.child, inner.var
    qpre, qloop = _q_witness(inst, res)
    nvals = 1 << len(M.inputs)
    total_rows = 0
    for p in range(max_prefix + 1):
        for l in range(1, max_loop + 1):
            total = nvals ** (p + l)
            rows = min(_CHUNK, total)
            for lo in range(0, total, rows):
                col = _c5_eval_rows(M, body, pi_var, qpre, qloop, p, l, lo, rows)
                assert col == (1 << rows) - 1, (name, p, l, lo + _lowest_bit(~col))
                total_rows += rows

    # spot checks through the member-level pipeline: drive the machine one
    # step at a time, attach the witness with replace_set, then eval_formula
    rng = random.Random(5)
    qw = _q_lasso(qpre, qloop)
    sig = frozenset(M.inputs) | frozenset(M.outputs)
    for _ in range(20):
        p, l = rng.randrange(0, 3), rng.randrange(1, 3)
        idx = rng.randrange(nvals ** (p + l))
        word = [(idx // nvals ** (p + l - 1 - j)) % nvals for j in range(p + l)]
        vals = []
        s = M.initial
        hist = {}
        j = 0
        while True:
            wj = j if j < p else p + (j - p) % l
            if j >= p:
                kk = (s, (j - p) % l)
                if kk in hist:
                    start = hist[kk]
                    break
                hist[kk] = j
            inp = frozenset(x for b, x in enumerate(M.inputs) if word[wj] >> b & 1)
            vals.append(M.labels[s] | inp)
            s = M.step(s, inp)
            j += 1
        t = LassoTrace(sig, tuple(vals[:start]), tuple(vals[start:]))
        Tq = replace_set(TraceSet(sig, frozenset({t})), "q", qw)
        scal = eval_formula(body, Tq, {pi_var: next(iter(Tq.traces))}, prop_bound=3)
        vec = _c5_eval_rows(M, body, pi_var, qpre, qloop, p, l, idx, 1) == 1
        assert scal and vec, (name, p, l, idx, scal, vec)

    # the quantified document itself, evaluated literally on a small bound
    small = 2 if len(M.inputs) <= 2 else 1
    T = system_traces(M, small, small)
    assert eval_formula(doc.formula, T, prop_bound=3), name
    return f"{name} {total_rows} lassos"


def test_criterion_5_documents_hold_on_system_traces(arb2, arb2full, arb3):
    t0 = time.monotonic()
    parts = [
        _c5_check("arbiter-2-prompt", arb2),
        _c5_check("arbiter-2-full-prompt", arb2full),
        _c5_check("arbiter-3-prompt", arb3),
    ]
    secs = time.monotonic() - t0
    _report(5, f"all true at bounds (4,4): {'; '.join(parts)}; {secs:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: the prefix catalog lands in the expected regions

_CATALOG = [
    # the promptness prefix: one quantified bound stream, one universal trace
    ("exists q : prop . forall pi : trace . true", SINGLE_UNIVERSAL),
    ("forall pi : trace . true", SINGLE_UNIVERSAL),
    (
        "exists q : prop . exists pi : trace . forall r : prop . "
        "forall pi2 : trace . exists s : prop . true",
        SINGLE_UNIVERSAL,
    ),
    ("forall pi : trace . forall q : prop . exists r : prop . true", SINGLE_UNIVERSAL),
    ("exists pi : trace . true", NO_UNIVERSAL),
    ("forall pi : trace . exists pi2 : trace . true", UNDEC_FORALL_EXISTS),
    (
        "forall pi : trace . forall pi2 : trace . exists pi3 : trace . true",
        UNDEC_FORALL_EXISTS,
    ),
    ("forall q : prop . exists r : prop . forall pi : trace . true", UNDEC_PROP_ALTERNATION),
    ("forall pi : trace . forall pi2 : trace . true", LINEAR_CANDIDATE),
    ("forall q : prop . exists pi : trace . forall pi2 : trace . true", OUTSIDE),
]


def test_criterion_6_fragment_catalog():
    for text, expected in _CATALOG:
        v = classify_formula(parse_formula(text, {"a"}))
        assert v.kind == expected, text
        assert v.decidable == (expected in (NO_UNIVERSAL, SINGLE_UNIVERSAL)), text
        assert v.justification
    _report(6, f"{len(_CATALOG)} prefix patterns in their expected regions")


# ---------------------------------------------------------------------------
# criterion 7: fork detection vs a brute-force search over candidate tuples

def test_criterion_7_fork_detection():
    forked, witness = has_info_fork(parse_architecture(FORKED))
    assert forked
    assert {witness[2], witness[3]} == {"p", "pp"}
    ok, none_witness = has_info_fork(parse_architecture(CHAINED))
    assert not ok and none_witness is None
    rng = random.Random(7)
    forks = 0
    for _ in range(20):
        a = random_architecture(rng)
        got, witness = has_info_fork(a)
        assert got == brute_fork(a), render_architecture(a)
        if got:
            pset, vset, p, p2 = witness
            assert not vset & (a.inputs[p] | a.inputs[p2])
            assert rooted(a, pset, vset)
            assert any(feeds(a, q, p, p2) for q in pset)
            assert any(feeds(a, q2, p2, p) for q2 in pset)
            forks += 1
    _report(7, f"both reference architectures and 20 random ones agree ({forks} forked)")


# ---------------------------------------------------------------------------
# criterion 8: knowledge elimination vs direct evaluation on micro trace sets

def test_criterion_8_knowledge_elimination():
    checked = 0
    for polarity, seed in (("pos", 2026), ("neg", 2027)):
        rng = random.Random(seed)
        for _ in range(30):
            agents = rng.choice(["a", "b", "a, b"])
            child = random_child(rng)
            k = f"K {{{agents}}} [pi] ({child})"
            if polarity == "neg":
                k = f"!({k})"
            text = "forall pi : trace . " + rng.choice(K_CONTEXTS).format(k=k)
            f = to_nnf(parse_formula(text, {"a", "b"}))
            out = eliminate_knowledge(f)
            T = random_micro_set(rng)
            want = eval_formula(f, T, prop_bound=3)
            got = eval_formula(out, T, prop_bound=3)
            assert got == want, text
            checked += 1
    assert checked == 60
    _report(8, "30 positive and 30 negative occurrences match direct evaluation")


# ---------------------------------------------------------------------------
# criterion 9: encoder tripwires


def test_criterion_9_encoder_tripwires(arb2, arb2full, arb3):
    contradiction = prepare(
        parse("inputs: i\noutputs: o\nforall pi : trace . (G (o[pi])) & (F (!(o[pi])))")
    )
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            assert solve_at_bounds(contradiction, n, m).status == "unsat", (n, m)
    trivial = prepare(parse("inputs: i\noutputs: o\nforall pi : trace . true"))
    res = solve_at_bounds(trivial, 1, 1)
    assert res.status == "sat" and len(res.system.labels) == 1
    pads = []
    for fam in (arb2, arb2full, arb3):
        first = fam["res"]
        for nn, mm in ((first.n + 1, first.m), (first.n, first.m + 1)):
            assert solve_at_bounds(fam["inst"], nn, mm).status == "sat", (nn, mm)
            pads.append((nn, mm))
    _report(
        9,
        f"contradiction unsat at 9 bound pairs, trivial sat at (1,1), "
        f"{len(pads)} monotonicity pads sat",
    )
