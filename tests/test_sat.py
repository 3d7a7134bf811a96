"""The bundled CDCL solver against brute force, and DIMACS emission."""

import hashlib
import itertools
import random
import time

from hypersynth.bench import gen_arbiter
from hypersynth.sat import COUNTERS, Solver, _luby, emit_dimacs, solve_clauses
from hypersynth.synth import encode, prepare


def brute_sat(nvars, clauses):
    for bits in itertools.product([False, True], repeat=nvars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def satisfies(model, clauses):
    val = {abs(l): l > 0 for l in model}
    return all(any(val[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def php(holes):
    """Pigeonhole with holes+1 pigeons: classically unsatisfiable."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


# ---------------------------------------------------------------------------
# solver core

def test_empty_problem_is_sat():
    s = Solver()
    assert s.solve() is True
    assert s.model() == []


def test_empty_clause_is_unsat():
    s = Solver()
    s.add_clause([])
    assert s.solve() is False


def test_unit_conflict():
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1])
    assert s.solve() is False


def test_tautology_ignored():
    s = Solver()
    s.add_clause([1, -1])
    assert s.solve() is True
    assert len(s.clauses) == 0


def test_duplicate_literals_collapse():
    s = Solver()
    s.add_clause([1, 1, 2])
    assert s.solve() is True


def test_unit_propagation_chain():
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    assert s.solve() is True
    assert set(s.model()) >= {1, 2, 3}


def test_model_covers_all_vars():
    status, model, _ = solve_clauses(5, [[1, 2], [-3]])
    assert status is True
    assert sorted(abs(l) for l in model) == [1, 2, 3, 4, 5]
    assert -3 in model


def test_pigeonhole_unsat():
    for holes in (2, 3):
        nvars, clauses = php(holes)
        assert solve_clauses(nvars, clauses)[:2] == (False, None)


def test_search_counters():
    # decide 1 false (the initial phase), which implies 2; then decide 3 false
    status, model, counts = solve_clauses(3, [[1, 2], [-1, 3]])
    assert (status, model) == (True, [-1, 2, -3])
    assert counts == {"conflicts": 0, "decisions": 2, "propagations": 1, "restarts": 0}
    # restarts follow the Luby sequence: after 64, then 64 more conflicts
    nvars, clauses = php(5)
    status, _, counts = solve_clauses(nvars, clauses)
    assert status is False and tuple(counts) == COUNTERS
    assert counts == {"conflicts": 159, "decisions": 217, "propagations": 1890, "restarts": 2}


def test_deadline_returns_unknown():
    nvars, clauses = php(5)
    s = Solver()
    s.ensure_vars(nvars)
    for cl in clauses:
        s.add_clause(cl)
    assert s.solve(deadline=time.monotonic()) is None
    assert s.conflicts == 1
    assert solve_clauses(nvars, clauses, deadline=time.monotonic())[:2] == (None, None)


def test_random_instances_match_brute_force():
    rng = random.Random(99)
    for _ in range(80):
        nvars = rng.randrange(3, 9)
        nclauses = rng.randrange(2, 5 * nvars)
        clauses = []
        for _ in range(nclauses):
            width = rng.randrange(1, 4)
            cl = [rng.choice([-1, 1]) * rng.randrange(1, nvars + 1) for _ in range(width)]
            clauses.append(cl)
        status, model, _ = solve_clauses(nvars, clauses)
        want = brute_sat(nvars, clauses)
        assert status == want, clauses
        if status:
            assert satisfies(model, clauses)


def test_add_clauses_edge_cases():
    batch = [
        [1, 2, 1, 3],    # duplicate literal: kept once
        [4, -4, 5],      # tautology: dropped
        [6],             # unit: propagated at once
        [6, 11],         # true at level 0: dropped, but variable 11 exists
        [-6, 8, 9],      # -6 is false at level 0: dropped from the clause
        [12, -13],       # past nvars: the solver grows
        [-9, 14],
        [-9, -14],
        [9, 10],
        [-8],            # unit: implies 9 and 14, then [-9, -14] conflicts
        [9],             # ignored once ok is False
        [20, 21],        # ignored: no growth
    ]
    batched = Solver()
    batched.ensure_vars(10)
    batched.add_clauses(batch)
    one_by_one = Solver()
    one_by_one.ensure_vars(10)
    for cl in batch:
        one_by_one.add_clause(cl)
    for s in (batched, one_by_one):
        # propagation swapped the watched literals of the clauses it visited
        assert s.clauses == [[2, 4, 6], [18, 16], [24, 27], [28, 19], [29, 19], [18, 20]]
        assert s.trail == [12, 17, 18, 28]
        assert s.ok is False
        assert s.nvars == 14


def test_clause_added_after_a_satisfiable_solve():
    # the model of the first solve is not a level-0 fact for the next clause
    s = Solver()
    s.add_clause([1, 2])
    assert s.solve() is True and s.model() == [-1, 2]
    s.add_clause([1])
    assert s.solve() is True and s.model()[0] == 1


def test_learnt_clauses_stay_watched_by_their_first_two_literals():
    nvars, clauses = php(5)
    s = Solver()
    s.add_clauses(clauses)
    attached = len(s.clauses)
    assert s.solve() is False
    assert len(s.clauses) > attached  # learnt clauses are kept
    watched = [(ci, lit) for lit, ws in enumerate(s.watches) for ci in ws]
    assert sorted(watched) == sorted((ci, lit) for ci, cl in enumerate(s.clauses) for lit in cl[:2])
    assert all(len(cl) >= 2 for cl in s.clauses)


def test_luby_sequence():
    want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert [_luby(x) for x in range(15)] == want


def test_new_var_numbering():
    s = Solver()
    s.ensure_vars(7)
    assert s.nvars == 7


def test_clauses_share_one_int_per_literal():
    # encoded literals above 256 lie outside CPython's small-int cache, so a
    # fresh int per occurrence would hold its own object
    s = Solver()
    s.add_clause([200, -201, 202])
    s.add_clause([-203, 200, -201])
    first, second = s.clauses
    assert first[0] == second[1] == 400 and first[0] is second[1]
    assert first[1] == second[2] == 403 and first[1] is second[2]


def test_decisions_follow_activity_after_rescale():
    s = Solver()
    s.ensure_vars(10)
    s.var_inc = 5e99
    s._bump_var(3)
    s.var_inc = 6e100
    s._bump_var(7)  # past 1e100: every activity is scaled down
    assert s.activity[3] == 0.5 and s.activity[7] == 6.0
    picked = []
    for _ in range(3):
        assert s._decide()
        picked.append(s.trail[-1] >> 1)
    assert picked == [7, 3, 1]


# the arbiter table's solve points: ((k, full), (n, m), status, conflicts,
# SHA-1 of the model's signed literals joined by spaces, or None if unsat)
TABLE_SOLVES = (
    ((2, False), (2, 1), False, 4, None),
    ((2, False), (2, 2), True, 9, "defbf12af2b5d80a2eddb20ad497de54fefbcc94"),
    ((2, True), (3, 1), False, 12, None),
    ((2, True), (3, 2), False, 71, None),
    ((2, True), (4, 2), True, 73, "82dc98f2e1590fa063701fb62b6a1244a0e0df25"),
    ((3, False), (3, 1), False, 8, None),
    ((3, False), (3, 2), False, 208, None),
    ((3, False), (4, 2), True, 94, "3c643c0e3936c94f3d5e90d4ef70a5eee237fb6d"),
)


def test_table_solves_keep_their_search():
    # a speed-up of the solver must not change which literal it decides or
    # learns: same verdict, same conflict count, same model at every point
    got = []
    for (k, full), (n, m), *_ in TABLE_SOLVES:
        problem = encode(prepare(gen_arbiter(k, {1}, full)), n, m)
        s = Solver()
        s.ensure_vars(problem.nvars)
        for cl in problem.clauses:
            s.add_clause(cl)
        status = s.solve()
        digest = hashlib.sha1(" ".join(map(str, s.model())).encode()).hexdigest() if status else None
        got.append(((k, full), (n, m), status, s.conflicts, digest))
    assert got == list(TABLE_SOLVES)


# ---------------------------------------------------------------------------
# DIMACS

def test_dimacs_round_trip():
    clauses = [[1, -2], [3], [-1, -3, 2]]
    text = emit_dimacs(3, clauses, comments=["made by a test"])
    assert text == "c made by a test\np cnf 3 3\n1 -2 0\n3 0\n-1 -3 2 0\n"
