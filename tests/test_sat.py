"""The bundled CDCL solver against brute force, and DIMACS emission."""

import itertools
import random
import time

from hypersynth.sat import Solver, _luby, emit_dimacs, solve_clauses


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
    status, model = solve_clauses(5, [[1, 2], [-3]])
    assert status is True
    assert sorted(abs(l) for l in model) == [1, 2, 3, 4, 5]
    assert -3 in model


def test_pigeonhole_unsat():
    for holes in (2, 3):
        nvars, clauses = php(holes)
        assert solve_clauses(nvars, clauses) == (False, None)


def test_deadline_returns_unknown():
    nvars, clauses = php(5)
    s = Solver()
    s.ensure_vars(nvars)
    for cl in clauses:
        s.add_clause(cl)
    assert s.solve(deadline=time.monotonic()) is None
    assert s.conflicts == 1
    assert solve_clauses(nvars, clauses, deadline=time.monotonic()) == (None, None)


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
        status, model = solve_clauses(nvars, clauses)
        want = brute_sat(nvars, clauses)
        assert status == want, clauses
        if status:
            assert satisfies(model, clauses)


def test_luby_sequence():
    want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert [_luby(x) for x in range(15)] == want


def test_new_var_numbering():
    s = Solver()
    assert s.new_var() == 1
    assert s.new_var() == 2
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


# ---------------------------------------------------------------------------
# DIMACS

def test_dimacs_round_trip():
    clauses = [[1, -2], [3], [-1, -3, 2]]
    text = emit_dimacs(3, clauses, comments=["made by a test"])
    assert text == "c made by a test\np cnf 3 3\n1 -2 0\n3 0\n-1 -3 2 0\n"
