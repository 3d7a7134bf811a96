"""Decidability classification of quantifier prefixes and architecture analysis."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .formula import (
    Formula,
    QuantKind,
    QuantifierPrefix,
    SpecError,
    extract_prefix,
)

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


# each prefix is read as a word: E/e an existential trace/proposition
# quantifier, A/a a universal one; the first pattern that matches decides
_LETTER = {
    QuantKind.TRACE_EXISTS: "E",
    QuantKind.PROP_EXISTS: "e",
    QuantKind.TRACE_FORALL: "A",
    QuantKind.PROP_FORALL: "a",
}
_CATALOG = (
    ("[^A]*", NO_UNIVERSAL,
     "no universal trace quantifier: the (exists pi, any q)* region, decidable"),
    ("[eE]*a*A[ea]*", SINGLE_UNIVERSAL,
     "matches (exists q/pi)* (forall q)* forall pi (Q q)*: single universal trace region, decidable"),
    (".*A.*E.*", UNDEC_FORALL_EXISTS,
     "a universal trace quantifier is later followed by an existential one: "
     "the forall-exists trace region, undecidable"),
    ("[^A]*a[^A]*e[^A]*A[^A]*", UNDEC_PROP_ALTERNATION,
     "a forall q ... exists q alternation precedes the universal "
     "trace quantifier: outside the swap-safe region, undecidable"),
    (".*A.*A.*", LINEAR_CANDIDATE,
     "several universal trace quantifiers and no trailing existential trace: "
     "decidable only under the linearity condition"),
    (".*", OUTSIDE, "prefix shape not covered by the catalog of known regions"),
)


def classify(prefix: QuantifierPrefix) -> FragmentVerdict:
    """Place a quantifier prefix in the realizability decidability landscape."""
    word = "".join(_LETTER[e.kind] for e in prefix)
    return next(FragmentVerdict(kind, why) for pattern, kind, why in _CATALOG if re.fullmatch(pattern, word))


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
