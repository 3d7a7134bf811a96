"""Brute-force and random-input oracles shared by the fragment, reduction and
acceptance tests."""

import itertools

from hypersynth.fragments import Architecture
from hypersynth.semantics import LassoTrace, TraceSet

# ---------------------------------------------------------------------------
# information forks: brute force straight from the definition, enumerating
# every candidate tuple

FORKED = """
env : inputs {} outputs {i, ip}
p : inputs {i} outputs {o}
pp : inputs {ip} outputs {op}
"""

CHAINED = """
env : inputs {} outputs {i, ip}
p : inputs {i} outputs {o}
pp : inputs {i, ip} outputs {op}
"""


def rooted(a, pset, vset):
    region = {a.env}
    todo = [a.env]
    while todo:
        x = todo.pop()
        for y in pset:
            if y not in region and a.edge_label(x, y) & vset:
                region.add(y)
                todo.append(y)
    return region == set(pset)


def feeds(a, q, p, other):
    inter = a.outputs[q] & a.inputs[p]
    return bool(inter) and not inter <= a.inputs[other]


def brute_fork(a):
    procs = list(a.processes)
    allvars = sorted(a.all_vars())
    others = [x for x in procs if x != a.env]
    for p, p2 in itertools.permutations(procs, 2):
        banned = a.inputs[p] | a.inputs[p2]
        avail = [v for v in allvars if v not in banned]
        for r in range(len(avail) + 1):
            for vsub in itertools.combinations(avail, r):
                vset = frozenset(vsub)
                for k in range(len(others) + 1):
                    for psub in itertools.combinations(others, k):
                        pset = frozenset(psub) | {a.env}
                        if not rooted(a, pset, vset):
                            continue
                        if any(feeds(a, q, p, p2) for q in pset) and any(
                            feeds(a, q2, p2, p) for q2 in pset
                        ):
                            return True
    return False


def random_architecture(rng):
    env_out = frozenset({"i1", "i2"})
    workers = ["w1", "w2", "w3"]
    inputs = {"env": frozenset()}
    outputs = {"env": env_out}
    for k, w in enumerate(workers, start=1):
        outputs[w] = frozenset({f"o{k}"})
    pool = sorted(env_out) + [f"o{k}" for k in range(1, 4)]
    for k, w in enumerate(workers, start=1):
        choices = [v for v in pool if v != f"o{k}"]
        inputs[w] = frozenset(v for v in choices if rng.random() < 0.45)
    return Architecture(("env", *workers), "env", inputs, outputs)


# ---------------------------------------------------------------------------
# knowledge elimination: micro trace sets and the formulas around K

# contexts keep the knowledge operator at positions 0 or 1: the pointer
# sequence r can only designate positions below the witness bound, so the
# emulation is exact precisely where the bounded evaluator can realize it
K_CONTEXTS = [
    "{k}",
    "X ({k})",
    "(a[pi]) & ({k})",
    "(b[pi]) | ({k})",
    "(a[pi]) & (X ({k}))",
]


def random_micro_set(rng):
    pick = lambda: frozenset(x for x in ("a", "b") if rng.random() < 0.5)
    mk = lambda k: tuple(pick() for _ in range(k))
    sig = frozenset({"a", "b"})
    t1 = LassoTrace(sig, mk(rng.randrange(2)), mk(rng.randrange(1, 3)))
    t2 = LassoTrace(sig, mk(rng.randrange(2)), mk(rng.randrange(1, 3)))
    return TraceSet(sig, frozenset({t1, t2}))


def random_child(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(["a[pi]", "b[pi]"])
    op = rng.choice(["!", "X", "F", "G", "&", "|"])
    if op in ("!", "X", "F", "G"):
        return f"{op}({random_child(rng, depth - 1)})"
    return f"({random_child(rng, depth - 1)}) {op} ({random_child(rng, depth - 1)})"
