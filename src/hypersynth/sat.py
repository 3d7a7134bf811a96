"""Self-contained CDCL SAT solver with watched literals and 1UIP learning."""

from __future__ import annotations

import heapq
import time
from typing import Iterable, Optional

# literals are encoded as 2*var for positive, 2*var+1 for negative (vars 1-based);
# value[lit] is 1 when lit is true, 0 when it is false, 2 when its variable is free

COUNTERS = ("conflicts", "decisions", "propagations", "restarts")


def _luby(x: int) -> int:
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class Solver:
    """CDCL with VSIDS-style activities, phase saving, Luby restarts; learnt clauses all stay."""

    def __init__(self):
        self.nvars = 0
        self.clauses: list = []          # each clause is a list of encoded lits
        self.watches: list = [[], []]    # per encoded literal
        self.lits: list = [0, 1]         # one shared int per encoded literal
        self.value: list = [2, 2]        # per encoded literal
        self.level: list = [0]
        self.reason: list = [-1]         # clause index or -1
        self.activity: list = [0.0]
        self.phase: list = [1]           # per var: low bit of its last literal (1 at first)
        self.queued: list = [False]      # per var: a heap entry holds its activity
        self.trail: list = []
        self.lim: list = []              # trail length at each decision level
        self.qhead = 0
        self.heap: list = []
        self.var_inc = 1.0
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0            # literals implied by unit clauses
        self.restarts = 0

    # ------------------------------------------------------------------ setup

    def ensure_vars(self, n: int):
        old = self.nvars
        if n <= old:
            return
        k = n - old
        self.nvars = n
        self.value += [2] * (2 * k)
        self.level += [0] * k
        self.reason += [-1] * k
        self.activity += [0.0] * k
        self.phase += [1] * k
        self.queued += [True] * k
        self.watches += [[] for _ in range(2 * k)]
        self.lits += range(2 * old + 2, 2 * n + 2)
        for v in range(old + 1, n + 1):
            heapq.heappush(self.heap, (0.0, v))

    def add_clause(self, signed_lits: Iterable) -> None:
        self.add_clauses((signed_lits,))

    def add_clauses(self, clauses: Iterable) -> None:
        """Load clauses of signed DIMACS literals at decision level 0.

        The solver grows to every variable a read clause names. A repeated
        literal, a literal false at level 0, a tautology and a clause true at
        level 0 are dropped; a unit clause is propagated at once. An empty
        clause or a conflicting unit sets `ok` to False, and later clauses are
        ignored.
        """
        self._backtrack(0)  # a satisfiable solve leaves its decisions on the trail
        lits = self.lits
        value = self.value
        for c in clauses:
            if not self.ok:
                return
            live = []
            for s in c:
                try:
                    lit = lits[s + s if s > 0 else 1 - s - s]
                except IndexError:
                    self.ensure_vars(abs(s))
                    lit = lits[s + s if s > 0 else 1 - s - s]
                val = value[lit]
                if val == 2:
                    if lit not in live:
                        if lit ^ 1 in live:
                            break  # tautology
                        live.append(lit)
                elif val:
                    break  # true at level 0
            else:
                if len(live) > 1:
                    self._attach(live)
                elif live:
                    self._enqueue(live[0], -1)
                    if self._propagate() is not None:
                        self.ok = False
                else:
                    self.ok = False
                continue
            self.ensure_vars(max(map(abs, c), default=0))

    def _attach(self, lits: list) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        return ci

    # ------------------------------------------------------------ assignments

    def _enqueue(self, lit: int, reason: int):
        """Make the free literal `lit` true at the current decision level."""
        v = lit >> 1
        self.value[lit] = 1
        self.value[lit ^ 1] = 0
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> Optional[int]:
        """Unit propagation from qhead; the index of a conflicting clause or None.

        Each watch list is compacted in place: ws[:j] holds the clauses that
        keep their watch on the falsified literal.
        """
        clauses = self.clauses
        watches = self.watches
        value = self.value
        level = self.level
        reason = self.reason
        trail = self.trail
        lvl = len(self.lim)
        start = len(trail)
        qhead = self.qhead
        confl = None
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            ws = watches[falsified]
            j = 0
            it = iter(ws)
            for ci in it:
                cl = clauses[ci]
                first = cl[0]
                if first == falsified:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = falsified
                vf = value[first]
                if vf == 1:
                    ws[j] = ci
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if value[lk]:  # true or free: watch it instead
                        cl[1] = lk
                        cl[k] = falsified
                        watches[lk].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if vf == 0:  # every literal is false
                        confl = ci
                        break
                    value[first] = 1  # _enqueue(first, ci), inlined
                    value[first ^ 1] = 0
                    v = first >> 1
                    level[v] = lvl
                    reason[v] = ci
                    trail.append(first)
            if confl is not None:
                ws[j:] = list(it)
                break
            del ws[j:]
        self.qhead = qhead
        self.propagations += len(trail) - start
        return confl

    # -------------------------------------------------------------- analysis

    def _bump_var(self, v: int):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            # every key changed: rekey the free variables, v among them
            value = self.value
            self.queued = [False] + [value[u + u] == 2 for u in range(1, self.nvars + 1)]
            self.heap = [
                (-self.activity[u], u) for u in range(1, self.nvars + 1) if self.queued[u]
            ]
            heapq.heapify(self.heap)
        elif self.value[v + v] == 2:
            heapq.heappush(self.heap, (-act, v))
            self.queued[v] = True
        else:
            self.queued[v] = False

    def _analyze(self, confl: int):
        clauses = self.clauses
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = bytearray(self.nvars + 1)
        learnt = [0]
        counter = 0
        lit = -1
        ind = len(trail) - 1
        cur_level = len(self.lim)
        first = True
        while True:
            cl = clauses[confl]
            start = 0 if first else 1
            for q in cl[start:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    self._bump_var(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[ind] >> 1]:
                ind -= 1
            lit = trail[ind]
            ind -= 1
            v = lit >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            confl = reason[v]
            first = False
        learnt[0] = lit ^ 1

        # cheap self-subsumption: drop literals implied by the rest
        def redundant(q: int) -> bool:
            r = reason[q >> 1]
            if r < 0:
                return False
            for p in clauses[r]:
                if p == (q ^ 1):
                    continue
                if not seen[p >> 1] and level[p >> 1] > 0:
                    return False
            return True

        for q in learnt[1:]:
            seen[q >> 1] = 1
        kept = [learnt[0]] + [q for q in learnt[1:] if not redundant(q)]

        if len(kept) == 1:
            return kept, 0
        blevel = max(level[q >> 1] for q in kept[1:])
        # watch a literal from the backtrack level in slot 1
        for k in range(1, len(kept)):
            if level[kept[k] >> 1] == blevel:
                kept[1], kept[k] = kept[k], kept[1]
                break
        return kept, blevel

    def _backtrack(self, blevel: int):
        if len(self.lim) <= blevel:
            return
        bound = self.lim[blevel]
        trail = self.trail
        value = self.value
        phase = self.phase
        reason = self.reason
        queued = self.queued
        activity = self.activity
        heap = self.heap
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            v = lit >> 1
            phase[v] = lit & 1
            value[lit] = value[lit ^ 1] = 2
            reason[v] = -1
            if not queued[v]:
                heapq.heappush(heap, (-activity[v], v))
                queued[v] = True
        del trail[bound:]
        del self.lim[blevel:]
        self.qhead = min(self.qhead, len(trail))

    def _decide(self) -> bool:
        # every free variable has an entry keyed on its current activity;
        # entries of assigned variables and older keys are skipped
        heap = self.heap
        while heap:
            negact, v = heapq.heappop(heap)
            if -negact == self.activity[v]:
                self.queued[v] = False
                lit = v + v + self.phase[v]
                if self.value[lit] == 2:
                    self.decisions += 1
                    self.lim.append(len(self.trail))
                    self._enqueue(lit, -1)
                    return True
        return False

    # ------------------------------------------------------------------ main

    def solve(self, deadline: Optional[float] = None) -> Optional[bool]:
        """True if satisfiable, False if not; None when the deadline passed.

        `deadline` is a `time.monotonic()` instant, checked at each conflict.
        """
        if not self.ok:
            return False
        restart_round = 0
        limit = 64 * _luby(restart_round)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                if deadline is not None and time.monotonic() >= deadline:
                    self._backtrack(0)
                    return None
                if not self.lim:
                    self.ok = False
                    return False
                learnt, blevel = self._analyze(confl)
                self._backtrack(blevel)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    self._enqueue(learnt[0], self._attach(learnt))
                self.var_inc /= 0.95
            else:
                if since_restart >= limit:
                    restart_round += 1
                    self.restarts += 1
                    limit = 64 * _luby(restart_round)
                    since_restart = 0
                    self._backtrack(0)
                    continue
                if not self._decide():
                    return True

    def model(self) -> list:
        """Signed DIMACS literals for all variables after a satisfiable solve."""
        value = self.value
        return [v if value[v + v] == 1 else -v for v in range(1, self.nvars + 1)]


# ---------------------------------------------------------------------------
# DIMACS


def emit_dimacs(nvars: int, clauses: list, comments: Optional[list] = None) -> str:
    lines = [f"c {c}" for c in (comments or [])]
    lines.append(f"p cnf {nvars} {len(clauses)}")
    for cl in clauses:
        lines.append(" ".join(str(x) for x in cl) + " 0")
    return "\n".join(lines) + "\n"


def solve_clauses(nvars: int, clauses: list, deadline: Optional[float] = None):
    """Load a CNF into a fresh solver and solve it.

    Returns (status, model, counts): status is True, False, or None when the
    deadline passed; model holds signed literals for every variable when status
    is True, else None; counts maps each name in COUNTERS to the solver's count.
    """
    s = Solver()
    s.ensure_vars(nvars)
    s.add_clauses(clauses)
    status = s.solve(deadline=deadline)
    counts = {name: getattr(s, name) for name in COUNTERS}
    return status, (s.model() if status else None), counts
