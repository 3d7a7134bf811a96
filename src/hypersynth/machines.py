"""Finite-state machines (Moore implementations and autonomous existential-witness
generators) and the ultimately periodic traces they produce."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class LassoTrace:
    """Ultimately periodic trace: finite prefix followed by a repeated nonempty loop."""

    signals: frozenset[str]
    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")
        for v in self.prefix + self.loop:
            if not v <= self.signals:
                raise ValueError(f"valuation {sorted(v)} uses signals outside {sorted(self.signals)}")

    def at(self, i: int) -> frozenset[str]:
        if i < 0:
            raise ValueError("position negative")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def key(self) -> tuple:
        """Canonical form: minimal prefix and primitive loop, for semantic deduplication."""
        prefix, loop = list(self.prefix), list(self.loop)
        # shrink loop to its primitive root
        n = len(loop)
        for d in range(1, n + 1):
            if n % d == 0 and loop == loop[:d] * (n // d):
                loop = loop[:d]
                break
        # fold prefix tail into the loop
        while prefix and prefix[-1] == loop[-1]:
            prefix.pop()
            loop = [loop[-1]] + loop[:-1]
        return (tuple(prefix), tuple(loop))


def all_valuations(signals: tuple[str, ...]) -> list[frozenset[str]]:
    """All subsets of the signal tuple, in bitmask order (bit i = signals[i])."""
    out = []
    for mask in range(1 << len(signals)):
        out.append(frozenset(s for i, s in enumerate(signals) if mask >> i & 1))
    return out


def _is_index(x, n: int) -> bool:
    """An int (not a bool) in range(n)."""
    return type(x) is int and 0 <= x < n


def _names(x, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; a string alone would load as its characters."""
    if type(x) is not list or not all(type(s) is str for s in x):
        raise ValueError(f"{what} {x!r} is not a list of names")
    return tuple(x)


def _label_list(x) -> tuple[frozenset[str], ...]:
    if type(x) is not list:
        raise ValueError(f"labels {x!r} is not a list")
    return tuple(frozenset(_names(l, "label")) for l in x)


def valuation_index(val: frozenset[str], signals: tuple[str, ...]) -> int:
    mask = 0
    for i, s in enumerate(signals):
        if s in val:
            mask |= 1 << i
    return mask


@dataclass(frozen=True)
class MooreSystem:
    """Deterministic complete Moore machine; state labels are the outputs.

    delta is indexed [state][input valuation bitmask]; the step-i trace valuation is
    label(state_i) joined with the step-i input, so outputs depend only on past inputs.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    delta: tuple[tuple[int, ...], ...]
    initial: int = 0

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise ValueError("a Moore system needs at least one state")
        if len(self.delta) != n:
            raise ValueError("transition table size does not match state count")
        width = 1 << len(self.inputs)
        for s, row in enumerate(self.delta):
            if len(row) != width:
                raise ValueError(f"state {s}: transition row incomplete")
            for t in row:
                if not _is_index(t, n):
                    raise ValueError(f"state {s}: successor {t!r} out of range")
            if not self.labels[s] <= set(self.outputs):
                raise ValueError(f"state {s}: label names undeclared outputs")
        if not _is_index(self.initial, n):
            raise ValueError("initial state out of range")

    @property
    def state_count(self) -> int:
        return len(self.labels)

    def step(self, state: int, inp: frozenset[str]) -> int:
        return self.delta[state][valuation_index(inp, self.inputs)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "moore",
                "inputs": list(self.inputs),
                "outputs": list(self.outputs),
                "states": self.state_count,
                "initial": self.initial,
                "labels": [sorted(l) for l in self.labels],
                "transitions": [
                    {"from": s, "input": sorted(v), "to": self.delta[s][i]}
                    for s in range(self.state_count)
                    for i, v in enumerate(all_valuations(self.inputs))
                ],
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "MooreSystem":
        d = json.loads(text)
        if d.get("kind") != "moore":
            raise ValueError("not a moore machine document")
        inputs = _names(d["inputs"], "inputs")
        labels = _label_list(d["labels"])
        n = d["states"]
        # checked before the transition table is allocated, which is n rows long
        if type(n) is not int or n != len(labels):
            raise ValueError(f"state count {n!r} does not match {len(labels)} labels")
        width = 1 << len(inputs)
        # each transition fills one slot, so a document too short to fill the
        # table is refused before the table is allocated
        if len(d["transitions"]) < n * width:
            raise ValueError("incomplete transition function")
        delta = [[None] * width for _ in range(n)]
        for tr in d["transitions"]:
            src, val = tr["from"], frozenset(_names(tr["input"], "transition input"))
            if not _is_index(src, n):
                raise ValueError(f"transition source {src!r} out of range")
            if not val <= set(inputs):
                raise ValueError(f"transition input {sorted(val)} names undeclared inputs")
            row, i = delta[src], valuation_index(val, inputs)
            if row[i] is not None:
                raise ValueError(f"state {src}: two transitions on input {sorted(val)}")
            row[i] = tr["to"]
        if any(t is None for row in delta for t in row):
            raise ValueError("incomplete transition function")
        return MooreSystem(
            inputs=inputs,
            outputs=_names(d["outputs"], "outputs"),
            labels=labels,
            delta=tuple(tuple(row) for row in delta),
            initial=d["initial"],
        )

    def to_dot(self) -> str:
        lines = ["digraph moore {", "  rankdir=LR;", '  hidden [shape=point, label=""];']
        for s in range(self.state_count):
            label = "{" + ",".join(sorted(self.labels[s])) + "}"
            lines.append(f'  s{s} [shape=circle, label="s{s}\\n{label}"];')
        lines.append(f"  hidden -> s{self.initial};")
        grouped: dict[tuple[int, int], list[str]] = {}
        for s in range(self.state_count):
            for i, v in enumerate(all_valuations(self.inputs)):
                key = (s, self.delta[s][i])
                grouped.setdefault(key, []).append("{" + ",".join(sorted(v)) + "}")
        for (s, t), vals in grouped.items():
            lines.append(f'  s{s} -> s{t} [label="{" ".join(vals)}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExistGenerator:
    """Autonomous lasso generator: no inputs, one deterministic successor per state.

    Labels are valuations over the flattened signals of all existential trace copies,
    so a single machine jointly fixes every existential witness.
    """

    signals: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    next_state: tuple[int, ...]
    initial: int = 0

    def __post_init__(self):
        m = len(self.labels)
        if m == 0:
            raise ValueError("a generator needs at least one state")
        if len(self.next_state) != m:
            raise ValueError("successor table size does not match state count")
        for t in self.next_state:
            if not _is_index(t, m):
                raise ValueError(f"successor {t!r} out of range")
        for label in self.labels:
            if not label <= set(self.signals):
                raise ValueError(f"label {sorted(label)} names undeclared signals")
        if not _is_index(self.initial, m):
            raise ValueError("initial state out of range")

    @property
    def state_count(self) -> int:
        return len(self.labels)

    def output_lasso(self) -> tuple[tuple[frozenset[str], ...], tuple[frozenset[str], ...]]:
        """The ultimately periodic output as (prefix valuations, loop valuations)."""
        seen: dict[int, int] = {}
        order: list[int] = []
        s = self.initial
        while s not in seen:
            seen[s] = len(order)
            order.append(s)
            s = self.next_state[s]
        start = seen[s]
        prefix = tuple(self.labels[t] for t in order[:start])
        loop = tuple(self.labels[t] for t in order[start:])
        return prefix, loop

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "generator",
                "signals": list(self.signals),
                "states": self.state_count,
                "initial": self.initial,
                "labels": [sorted(l) for l in self.labels],
                "next": list(self.next_state),
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "ExistGenerator":
        d = json.loads(text)
        if d.get("kind") != "generator":
            raise ValueError("not a generator document")
        labels = _label_list(d["labels"])
        n = d["states"]
        if type(n) is not int or n != len(labels):
            raise ValueError(f"state count {n!r} does not match {len(labels)} labels")
        return ExistGenerator(
            signals=_names(d["signals"], "signals"),
            labels=labels,
            next_state=tuple(d["next"]),
            initial=d["initial"],
        )
