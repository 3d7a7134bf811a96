"""Decidability classification of quantifier prefixes and architecture analysis."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .formula import (
    Formula,
    QuantKind,
    QuantifierPrefix,
    SpecError,
    extract_prefix,
)
from .machines import MooreSystem
from .reductions import build_dep, collapse
from .semantics import eval_formula, system_traces

NO_UNIVERSAL = "NoUniversalTrace"
SINGLE_UNIVERSAL = "SingleUniversalDecidable"
LINEAR_CANDIDATE = "LinearMultiUniversalCandidate"
UNDEC_FORALL_EXISTS = "Undecidable_TraceForallExists"
UNDEC_PROP_ALTERNATION = "Undecidable_PropAlternationBeforeUniversal"
UNDEC_NONLINEAR = "Undecidable_NonLinearMultiUniversal"
OUTSIDE = "OutsideCatalog"

ALL_VERDICTS = (
    NO_UNIVERSAL,
    SINGLE_UNIVERSAL,
    LINEAR_CANDIDATE,
    UNDEC_FORALL_EXISTS,
    UNDEC_PROP_ALTERNATION,
    UNDEC_NONLINEAR,
    OUTSIDE,
)


@dataclass(frozen=True)
class FragmentVerdict:
    kind: str
    justification: str

    def __post_init__(self):
        assert self.kind in ALL_VERDICTS

    @property
    def decidable(self) -> bool:
        return self.kind in (NO_UNIVERSAL, SINGLE_UNIVERSAL)


def _matches_single_universal(entries) -> bool:
    # (exists q | exists pi)*  (forall q)*  forall pi  (exists q | forall q)*
    phase = 0
    for e in entries:
        if phase == 0:
            if e.kind in (QuantKind.PROP_EXISTS, QuantKind.TRACE_EXISTS):
                continue
            if e.kind == QuantKind.PROP_FORALL:
                phase = 1
                continue
            if e.kind == QuantKind.TRACE_FORALL:
                phase = 2
                continue
            return False
        if phase == 1:
            if e.kind == QuantKind.PROP_FORALL:
                continue
            if e.kind == QuantKind.TRACE_FORALL:
                phase = 2
                continue
            return False
        if e.kind.is_trace:
            return False
    return phase == 2


def classify(prefix: QuantifierPrefix) -> FragmentVerdict:
    """Place a quantifier prefix in the realizability decidability landscape."""
    entries = list(prefix.entries)
    foralls = [i for i, e in enumerate(entries) if e.kind == QuantKind.TRACE_FORALL]

    if not foralls:
        return FragmentVerdict(
            NO_UNIVERSAL,
            "no universal trace quantifier: the (exists pi, any q)* region, decidable",
        )
    if len(foralls) == 1 and _matches_single_universal(entries):
        return FragmentVerdict(
            SINGLE_UNIVERSAL,
            "matches (exists q/pi)* (forall q)* forall pi (Q q)*: "
            "single universal trace region, decidable",
        )
    first_forall = foralls[0]
    if any(
        e.kind == QuantKind.TRACE_EXISTS for e in entries[first_forall + 1 :]
    ):
        return FragmentVerdict(
            UNDEC_FORALL_EXISTS,
            "a universal trace quantifier is later followed by an existential one: "
            "the forall-exists trace region, undecidable",
        )
    if len(foralls) == 1:
        before = entries[:first_forall]
        for i, e in enumerate(before):
            if e.kind == QuantKind.PROP_FORALL and any(
                x.kind == QuantKind.PROP_EXISTS for x in before[i + 1 :]
            ):
                return FragmentVerdict(
                    UNDEC_PROP_ALTERNATION,
                    "a forall q ... exists q alternation precedes the universal "
                    "trace quantifier: outside the swap-safe region, undecidable",
                )
    if len(foralls) >= 2:
        return FragmentVerdict(
            LINEAR_CANDIDATE,
            "several universal trace quantifiers and no trailing existential trace: "
            "decidable only under the linearity condition",
        )
    return FragmentVerdict(
        OUTSIDE,
        "prefix shape not covered by the catalog of known regions",
    )


def classify_formula(f: Formula) -> FragmentVerdict:
    prefix, _ = extract_prefix(f)
    return classify(prefix)


# ---------------------------------------------------------------------------
# distributed architectures


@dataclass
class Architecture:
    """Processes with disjoint output signals; the environment has no inputs."""

    processes: tuple
    env: str
    inputs: Mapping[str, frozenset]
    outputs: Mapping[str, frozenset]

    def __post_init__(self):
        if len(set(self.processes)) != len(self.processes):
            raise SpecError("duplicate process names")
        if self.env not in self.processes:
            raise SpecError(f"environment process {self.env!r} is not declared")
        for p in self.processes:
            if p not in self.inputs or p not in self.outputs:
                raise SpecError(f"process {p!r} lacks an input or output set")
        if self.inputs[self.env]:
            raise SpecError("the environment process cannot read inputs")
        seen: dict = {}
        for p in self.processes:
            for o in self.outputs[p]:
                if o in seen:
                    raise SpecError(
                        f"output {o!r} produced by both {seen[o]!r} and {p!r}"
                    )
                seen[o] = p

    def edge_label(self, x: str, y: str) -> frozenset:
        return frozenset(self.outputs[x] & self.inputs[y])

    def all_vars(self) -> frozenset:
        vs: set = set()
        for p in self.processes:
            vs |= self.outputs[p]
            vs |= self.inputs[p]
        return frozenset(vs)


def parse_architecture(text: str) -> Architecture:
    """One process per line: name : inputs {a, b} outputs {c}; the environment carries an env marker."""
    processes = []
    env_marks = []
    inputs = {}
    outputs = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError(f"line {ln}: expected 'name : inputs {{...}} outputs {{...}}'")
        name, rest = line.split(":", 1)
        name = name.strip()
        if not name:
            raise SpecError(f"line {ln}: missing process name")
        rest = rest.strip()
        if rest.startswith("env"):
            env_marks.append(name)
            rest = rest[3:].strip()
        m = re.fullmatch(
            r"inputs\s*\{([^}]*)\}\s*outputs\s*\{([^}]*)\}(\s+env)?", rest
        )
        if not m:
            raise SpecError(f"line {ln}: expected 'inputs {{...}} outputs {{...}}'")
        if m.group(3):
            env_marks.append(name)
        split = lambda s: frozenset(x.strip() for x in s.split(",") if x.strip())
        if name in inputs:
            raise SpecError(f"line {ln}: duplicate process {name!r}")
        processes.append(name)
        inputs[name] = split(m.group(1))
        outputs[name] = split(m.group(2))
    if not processes:
        raise SpecError("no processes declared")
    if len(env_marks) > 1:
        raise SpecError(f"multiple processes marked env: {env_marks}")
    if env_marks:
        env = env_marks[0]
    elif "env" in processes:
        env = "env"
    else:
        raise SpecError("no process marked env and none named env")
    return Architecture(tuple(processes), env, inputs, outputs)


def render_architecture(a: Architecture) -> str:
    lines = []
    for p in a.processes:
        mark = " env" if p == a.env and p != "env" else ""
        ins = ", ".join(sorted(a.inputs[p]))
        outs = ", ".join(sorted(a.outputs[p]))
        lines.append(f"{p} : inputs {{{ins}}} outputs {{{outs}}}{mark}")
    return "\n".join(lines)


def has_info_fork(a: Architecture):
    """Search for a fork witness (P', V', p, p'); returns (bool, witness or None).

    For each ordered process pair the largest admissible V' is complete:
    growing V' only adds edges to the environment-rooted subgraph, so the
    maximal choice dominates every smaller one.
    """
    allvars = a.all_vars()
    for p in a.processes:
        for p2 in a.processes:
            if p == p2:
                continue
            vprime = allvars - (a.inputs[p] | a.inputs[p2])
            # subgraph rooted in the environment, edges must carry a V' variable
            region = {a.env}
            todo = [a.env]
            while todo:
                x = todo.pop()
                for y in a.processes:
                    if y in region:
                        continue
                    if a.edge_label(x, y) & vprime:
                        region.add(y)
                        todo.append(y)
            q_hit = None
            q2_hit = None
            for q in sorted(region):
                inter = a.outputs[q] & a.inputs[p]
                if inter and not inter <= a.inputs[p2]:
                    q_hit = q
                    break
            for q2 in sorted(region):
                inter = a.outputs[q2] & a.inputs[p2]
                if inter and not inter <= a.inputs[p]:
                    q2_hit = q2
                    break
            if q_hit is not None and q2_hit is not None:
                return True, (frozenset(region), frozenset(vprime), p, p2)
    return False, None


# ---------------------------------------------------------------------------
# per-system linearity check


@dataclass
class LinearityVerdict:
    equivalent: bool
    left: bool
    right: bool
    exact: bool
    details: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent


def _prefix_shape(f: Formula):
    prefix, body = extract_prefix(f)
    entries = list(prefix.entries)
    k = 0
    while k < len(entries) and entries[k].kind == QuantKind.TRACE_FORALL:
        k += 1
    for e in entries[k:]:
        if e.kind.is_trace:
            raise SpecError("the formula must have a (forall pi)* (Q q)* prefix")
    return entries, k, body


def _holds_on(M: MooreSystem, f: Formula, bounds, prop_bound: int):
    from .mc import mc_universal

    entries, k, body = _prefix_shape(f)
    if k == len(entries):
        ok, _ = mc_universal(M, body, [e.var for e in entries])
        return ok, True
    T = system_traces(M, bounds[0], bounds[1])
    return eval_formula(f, T, prop_bound=prop_bound), False


def check_linear_on_system(
    f: Formula,
    J: Mapping[str, frozenset],
    M: MooreSystem,
    bounds=(2, 2),
    prop_bound: int = 3,
) -> LinearityVerdict:
    """Test the defining equivalence of linearity on one concrete system.

    Passing is necessary for M to witness linearity, never sufficient. J maps
    every output to the inputs it may depend on and must form a chain.
    """
    if set(J) != set(M.outputs):
        raise SpecError("J must map exactly the outputs of the system")
    chain = sorted(M.outputs, key=lambda o: (len(J[o]), sorted(J[o])))
    for a, b in zip(chain, chain[1:]):
        if not frozenset(J[a]) <= frozenset(J[b]):
            raise SpecError(f"J sets do not form a chain: J[{a}] and J[{b}] are incomparable")
    entries, k, _ = _prefix_shape(f)
    if k == 0:
        raise SpecError("the formula needs at least one universal trace quantifier")

    I = set(M.inputs)
    O = set(M.outputs)
    details = []
    left_parts = [f, build_dep(I, O)]
    right_parts = [collapse(f)] + [build_dep(set(J[o]), {o}) for o in chain]

    exact = True
    left = True
    for part in left_parts:
        ok, was_exact = _holds_on(M, part, bounds, prop_bound)
        exact = exact and was_exact
        details.append(("left", ok, was_exact))
        left = left and ok
    right = True
    for part in right_parts:
        ok, was_exact = _holds_on(M, part, bounds, prop_bound)
        exact = exact and was_exact
        details.append(("right", ok, was_exact))
        right = right and ok
    return LinearityVerdict(left == right, left, right, exact, details)
