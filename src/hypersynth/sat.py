"""Self-contained CDCL SAT solver with watched literals and 1UIP learning."""

from __future__ import annotations

import heapq
import time
from typing import Iterable, Optional

# literals are encoded as 2*var for positive, 2*var+1 for negative (vars 1-based)


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
    """CDCL with VSIDS-style activities, phase saving, Luby restarts, clause reduction."""

    def __init__(self):
        self.nvars = 0
        self.clauses: list = []          # each clause is a list of encoded lits
        self.learnts: set = set()        # indices into clauses that were learned
        self.cl_activity: dict = {}
        self.watches: list = [[], []]    # per encoded literal
        self.lits: list = [0, 1]         # one shared int per encoded literal
        self.assign: list = [-1]         # per var: -1 free, 0 false, 1 true
        self.level: list = [0]
        self.reason: list = [-1]         # clause index or -1
        self.activity: list = [0.0]
        self.phase: list = [0]
        self.trail: list = []
        self.lim: list = []              # trail length at each decision level
        self.qhead = 0
        self.heap: list = []
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.ok = True
        self.conflicts = 0

    # ------------------------------------------------------------------ setup

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(-1)
        self.level.append(0)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.phase.append(0)
        self.watches.append([])
        self.watches.append([])
        self.lits += (2 * self.nvars, 2 * self.nvars + 1)
        heapq.heappush(self.heap, (0.0, self.nvars))
        return self.nvars

    def ensure_vars(self, n: int):
        while self.nvars < n:
            self.new_var()

    def _lit(self, signed: int) -> int:
        v = abs(signed)
        self.ensure_vars(v)
        return self.lits[2 * v + (signed < 0)]

    def _value(self, lit: int) -> int:
        a = self.assign[lit >> 1]
        if a < 0:
            return -1
        return a ^ (lit & 1)

    def add_clause(self, signed_lits: Iterable) -> None:
        if not self.ok:
            return
        lits = []
        seen = set()
        for s in signed_lits:
            lit = self._lit(s)
            if lit ^ 1 in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
        # at level 0 drop falsified literals and detect satisfied clauses
        live = []
        for lit in lits:
            v = self._value(lit)
            if v == 1:
                return
            if v == -1:
                live.append(lit)
        if not live:
            self.ok = False
            return
        if len(live) == 1:
            self._enqueue(live[0], -1)
            if self._propagate() is not None:
                self.ok = False
            return
        self._attach(live)

    def _attach(self, lits: list) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        return ci

    # ------------------------------------------------------------ assignments

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = lit >> 1
        val = self.assign[v]
        if val >= 0:
            return (val ^ (lit & 1)) == 1
        self.assign[v] = 1 - (lit & 1)
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        clauses = self.clauses
        watches = self.watches
        assign = self.assign
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = lit ^ 1
            ws = watches[falsified]
            i = 0
            end = len(ws)
            keep = []
            confl = None
            while i < end:
                ci = ws[i]
                i += 1
                cl = clauses[ci]
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], falsified
                first = cl[0]
                a = assign[first >> 1]
                if a >= 0 and (a ^ (first & 1)) == 1:
                    keep.append(ci)
                    continue
                moved = False
                for k in range(2, len(cl)):
                    lk = cl[k]
                    ak = assign[lk >> 1]
                    if ak < 0 or (ak ^ (lk & 1)) == 1:
                        cl[1], cl[k] = lk, falsified
                        watches[lk].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if a >= 0:  # first is false: conflict
                    keep.extend(ws[i:end])
                    confl = ci
                    break
                if not self._enqueue(first, ci):
                    keep.extend(ws[i:end])
                    confl = ci
                    break
            watches[falsified] = keep + ws[end:]
            if confl is not None:
                return confl
        return None

    # -------------------------------------------------------------- analysis

    def _bump_var(self, v: int):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            # every key changed: rekey the free variables, v among them
            self.heap = [
                (-self.activity[u], u) for u in range(1, self.nvars + 1) if self.assign[u] < 0
            ]
            heapq.heapify(self.heap)
        elif self.assign[v] < 0:
            heapq.heappush(self.heap, (-self.activity[v], v))

    def _bump_clause(self, ci: int):
        if ci in self.learnts:
            act = self.cl_activity.get(ci, 0.0) + self.cla_inc
            self.cl_activity[ci] = act
            if act > 1e100:
                for k in self.cl_activity:
                    self.cl_activity[k] *= 1e-100
                self.cla_inc *= 1e-100

    def _analyze(self, confl: int):
        seen = bytearray(self.nvars + 1)
        learnt = [0]
        counter = 0
        lit = -1
        ind = len(self.trail) - 1
        cur_level = len(self.lim)
        first = True
        while True:
            self._bump_clause(confl)
            cl = self.clauses[confl]
            start = 0 if first else 1
            for q in cl[start:]:
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump_var(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[ind] >> 1]:
                ind -= 1
            lit = self.trail[ind]
            ind -= 1
            v = lit >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[v]
            first = False
        learnt[0] = lit ^ 1

        # cheap self-subsumption: drop literals implied by the rest
        def redundant(q: int) -> bool:
            r = self.reason[q >> 1]
            if r < 0:
                return False
            for p in self.clauses[r]:
                if p == (q ^ 1):
                    continue
                if not seen[p >> 1] and self.level[p >> 1] > 0:
                    return False
            return True

        for q in learnt[1:]:
            seen[q >> 1] = 1
        kept = [learnt[0]] + [q for q in learnt[1:] if not redundant(q)]

        if len(kept) == 1:
            return kept, 0
        blevel = max(self.level[q >> 1] for q in kept[1:])
        # watch a literal from the backtrack level in slot 1
        for k in range(1, len(kept)):
            if self.level[kept[k] >> 1] == blevel:
                kept[1], kept[k] = kept[k], kept[1]
                break
        return kept, blevel

    def _backtrack(self, blevel: int):
        if len(self.lim) <= blevel:
            return
        bound = self.lim[blevel]
        for lit in reversed(self.trail[bound:]):
            v = lit >> 1
            self.phase[v] = self.assign[v]
            self.assign[v] = -1
            self.reason[v] = -1
            heapq.heappush(self.heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.lim[blevel:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> bool:
        # every free variable has an entry keyed on its current activity;
        # entries of assigned variables and older keys are skipped
        while self.heap:
            negact, v = heapq.heappop(self.heap)
            if self.assign[v] < 0 and -negact == self.activity[v]:
                self.lim.append(len(self.trail))
                self._enqueue(2 * v + (1 - self.phase[v]), -1)
                return True
        return False

    def _reduce_db(self):
        if len(self.learnts) < 20:
            return
        ranked = sorted(self.learnts, key=lambda ci: self.cl_activity.get(ci, 0.0))
        locked = {self.reason[lit >> 1] for lit in self.trail}
        drop = set()
        for ci in ranked[: len(ranked) // 2]:
            if ci in locked or len(self.clauses[ci]) <= 2:
                continue
            drop.add(ci)
        if not drop:
            return
        for ci in drop:
            cl = self.clauses[ci]
            for w in (cl[0], cl[1]):
                try:
                    self.watches[w].remove(ci)
                except ValueError:
                    pass
            self.clauses[ci] = []
            self.learnts.discard(ci)
            self.cl_activity.pop(ci, None)

    # ------------------------------------------------------------------ main

    def solve(self, deadline: Optional[float] = None) -> Optional[bool]:
        """True if satisfiable, False if not; None when the deadline passed.

        `deadline` is a `time.monotonic()` instant, checked at each conflict.
        """
        if not self.ok:
            return False
        if self._propagate() is not None:
            self.ok = False
            return False
        restart_round = 0
        limit = 64 * _luby(restart_round)
        since_restart = 0
        max_learnts = max(1000, len(self.clauses) // 3)
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
                    ci = self._attach(learnt)
                    self.learnts.add(ci)
                    self.cl_activity[ci] = self.cla_inc
                    self._enqueue(learnt[0], ci)
                self.var_inc /= 0.95
                self.cla_inc /= 0.999
                if len(self.learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
            else:
                if since_restart >= limit:
                    restart_round += 1
                    limit = 64 * _luby(restart_round)
                    since_restart = 0
                    self._backtrack(0)
                    continue
                if not self._decide():
                    return True

    def model(self) -> list:
        """Signed DIMACS literals for all variables after a satisfiable solve."""
        out = []
        for v in range(1, self.nvars + 1):
            out.append(v if self.assign[v] == 1 else -v)
        return out


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

    Returns (status, model): status is True, False, or None when the deadline
    passed; model holds signed literals for every variable when status is True,
    else None.
    """
    s = Solver()
    s.ensure_vars(nvars)
    for cl in clauses:
        s.add_clause(cl)
    status = s.solve(deadline=deadline)
    return status, (s.model() if status else None)
