"""Abstract syntax, concrete syntax, well-formedness and normal forms for HyperQPTL."""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from enum import Enum
from itertools import chain
from typing import Iterator, Optional


class QuantKind(Enum):
    TRACE_FORALL = "forall-trace"
    TRACE_EXISTS = "exists-trace"
    PROP_FORALL = "forall-prop"
    PROP_EXISTS = "exists-prop"

    @property
    def is_trace(self) -> bool:
        return self in (QuantKind.TRACE_FORALL, QuantKind.TRACE_EXISTS)

    @property
    def is_forall(self) -> bool:
        return self in (QuantKind.TRACE_FORALL, QuantKind.PROP_FORALL)


# a (line, column) source position, if the node or signal was read from text
Pos = Optional[tuple[int, int]]


def hash_once(cls):
    """Class decorator for a frozen dataclass: each instance computes the
    generated field hash on first use and keeps it, so hashing a deep tree
    again costs one lookup. The value is the generated one, so set and dict
    orders do not change. The cached hash stays out of the pickled state:
    string hashes are salted per process, so it would be stale in another.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = field_hash(self)
        return h

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    cls._hash = None  # until the instance's first hash
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


def _node(cls):
    return hash_once(dataclass(frozen=True)(cls))


@_node
class Formula:
    """Base class of all AST nodes. Source position never takes part in
    equality. Nodes are frozen, and each computes its hash once (`hash_once`).
    """

    pos: Pos = field(default=None, compare=False, repr=False, kw_only=True)

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __str__(self) -> str:
        return print_formula(self)


@_node
class BoolConst(Formula):
    value: bool = True


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@_node
class TraceAtom(Formula):
    """Atomic proposition indexed by a trace variable, written a[pi]."""

    prop: str = ""
    trace_var: str = ""


@_node
class PropAtom(Formula):
    """Bare quantified proposition, written q."""

    var: str = ""


@_node
class Unary(Formula):
    child: Formula = TRUE

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


@_node
class Not(Unary):
    pass


@_node
class Next(Unary):
    pass


@_node
class Eventually(Unary):
    pass


@_node
class Globally(Unary):
    pass


@_node
class Binary(Formula):
    left: Formula = TRUE
    right: Formula = TRUE

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


@_node
class And(Binary):
    pass


@_node
class Or(Binary):
    pass


@_node
class Implies(Binary):
    pass


@_node
class Iff(Binary):
    pass


@_node
class Until(Binary):
    pass


@_node
class WeakUntil(Binary):
    pass


@_node
class Release(Binary):
    pass


@_node
class Quantifier(Formula):
    var: str = ""
    child: Formula = TRUE

    kind: QuantKind = QuantKind.TRACE_FORALL

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


@_node
class TraceForall(Quantifier):
    kind: QuantKind = field(default=QuantKind.TRACE_FORALL, init=False)


@_node
class TraceExists(Quantifier):
    kind: QuantKind = field(default=QuantKind.TRACE_EXISTS, init=False)


@_node
class PropForall(Quantifier):
    kind: QuantKind = field(default=QuantKind.PROP_FORALL, init=False)


@_node
class PropExists(Quantifier):
    kind: QuantKind = field(default=QuantKind.PROP_EXISTS, init=False)


QUANT_CLASS = {
    QuantKind.TRACE_FORALL: TraceForall,
    QuantKind.TRACE_EXISTS: TraceExists,
    QuantKind.PROP_FORALL: PropForall,
    QuantKind.PROP_EXISTS: PropExists,
}


@_node
class Knowledge(Formula):
    """K{a,b}[pi] phi: phi holds on every trace that agrees with pi on the agent set so far."""

    agents: frozenset[str] = frozenset()
    trace_var: str = ""
    child: Formula = TRUE

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


@dataclass(frozen=True)
class PrefixEntry:
    kind: QuantKind
    var: str


@dataclass(frozen=True)
class QuantifierPrefix:
    entries: tuple[PrefixEntry, ...] = ()

    def __iter__(self) -> Iterator[PrefixEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def attach(self, body: Formula) -> Formula:
        """Rebuild the full formula by wrapping body in this prefix."""
        f = body
        for entry in reversed(self.entries):
            f = QUANT_CLASS[entry.kind](var=entry.var, child=f)
        return f


@dataclass(frozen=True)
class SpecDocument:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    formula: Formula

    @property
    def signals(self) -> tuple[str, ...]:
        return self.inputs + self.outputs


class SpecError(Exception):
    """Parse or well-formedness error carrying a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# helpers for building formulas


def conj(parts: list[Formula]) -> Formula:
    """Right-nested conjunction; empty list is true."""
    if not parts:
        return TRUE
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = And(p, f)
    return f


def disj(parts: list[Formula]) -> Formula:
    if not parts:
        return FALSE
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = Or(p, f)
    return f


def fresh_name(base: str, used: set[str]) -> str:
    """Deterministic fresh name: base plus a __k counter."""
    k = 0
    while f"{base}__{k}" in used:
        k += 1
    name = f"{base}__{k}"
    used.add(name)
    return name


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    for c in f.children():
        yield from walk(c)


def map_children(f: Formula, fn) -> Formula:
    """f with fn applied to each child; every other field, pos included, is kept."""
    if isinstance(f, Binary):
        return dc_replace(f, left=fn(f.left), right=fn(f.right))
    if f.children():
        return dc_replace(f, child=fn(f.child))
    return f


def substitute_trace_var(f: Formula, old: str, new: str) -> Formula:
    """Rename a free trace variable in atoms and knowledge nodes."""
    if isinstance(f, TraceAtom):
        return dc_replace(f, trace_var=new) if f.trace_var == old else f
    if isinstance(f, Quantifier) and f.kind.is_trace and f.var == old:
        return f  # shadowed
    g = map_children(f, lambda c: substitute_trace_var(c, old, new))
    if isinstance(g, Knowledge) and g.trace_var == old:
        return dc_replace(g, trace_var=new)
    return g


# ---------------------------------------------------------------------------
# concrete syntax: tokenizer


_KEYWORDS = {"forall", "exists", "trace", "prop", "true", "false", "X", "F", "G", "U", "W", "R", "K"}
_PUNCT = ("<->", "->", "!", "&", "|", "(", ")", "[", "]", "{", "}", ",", ":", ".")


@dataclass
class Token:
    kind: str  # "name", "kw", "punct", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for p in _PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "name"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise SpecError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# operator table: the parser, the printer and to_nnf read each operator's
# token, precedence, grouping and dual from here


_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Globally}
# token: (class, precedence, right-associative); a higher precedence binds tighter
_BINARY = {
    "<->": (Iff, 1, False),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "&": (And, 4, False),
    "U": (Until, 5, True),
    "W": (WeakUntil, 5, True),
    "R": (Release, 5, True),
}
# unary operators and K bind tighter than every binary operator
_UNARY_PREC = 1 + max(prec for _, prec, _ in _BINARY.values())
_DUAL = {a: b for x, y in ((And, Or), (Eventually, Globally), (Until, Release), (Next, Next),
                           (TraceForall, TraceExists), (PropForall, PropExists))
         for a, b in ((x, y), (y, x))}


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Reads syntax only: _binding_errors checks the names and scopes of its tree."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, tok: Optional[Token] = None) -> SpecError:
        t = tok or self.peek()
        return SpecError(msg, t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise self.error(f"expected {text!r}, found {t.text!r}")
        return self.next()

    def parse_formula(self, min_prec: int = 0) -> Formula:
        """Precedence climbing: read the binary operators that bind at least min_prec."""
        f = self.parse_unary()
        while self.peek().text in _BINARY and _BINARY[self.peek().text][1] >= min_prec:
            tok = self.next()
            cls, prec, right_assoc = _BINARY[tok.text]
            f = cls(f, self.parse_formula(prec if right_assoc else prec + 1), pos=(tok.line, tok.col))
        return f

    def parse_unary(self) -> Formula:
        t = self.peek()
        if t.text in _UNARY:
            self.next()
            return _UNARY[t.text](self.parse_unary(), pos=(t.line, t.col))
        if t.text == "K":
            return self.parse_knowledge()
        if t.text in ("forall", "exists"):
            return self.parse_quantifier()
        return self.parse_atom()

    def parse_knowledge(self) -> Formula:
        tok = self.expect("K")
        self.expect("{")
        agents: list[str] = []
        if self.peek().text != "}":
            while True:
                nt = self.next()
                if nt.kind not in ("name", "kw"):
                    raise self.error("expected a signal name in agent set", nt)
                agents.append(nt.text)
                if self.peek().text != ",":
                    break
                self.next()
        self.expect("}")
        self.expect("[")
        tv = self.next()
        if tv.kind != "name":
            raise self.error("expected a trace variable", tv)
        self.expect("]")
        child = self.parse_unary()
        return Knowledge(frozenset(agents), tv.text, child, pos=(tok.line, tok.col))

    def parse_quantifier(self) -> Formula:
        tok = self.next()  # forall | exists
        name_tok = self.next()
        if name_tok.kind != "name":
            raise self.error("expected a variable name", name_tok)
        self.expect(":")
        sort_tok = self.next()
        if sort_tok.text not in ("trace", "prop"):
            raise self.error("expected 'trace' or 'prop'", sort_tok)
        self.expect(".")
        is_trace = sort_tok.text == "trace"
        child = self.parse_formula()
        kind = {
            ("forall", True): TraceForall,
            ("exists", True): TraceExists,
            ("forall", False): PropForall,
            ("exists", False): PropExists,
        }[(tok.text, is_trace)]
        return kind(var=name_tok.text, child=child, pos=(tok.line, tok.col))

    def parse_atom(self) -> Formula:
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.parse_formula()
            self.expect(")")
            return f
        if t.text == "true":
            self.next()
            return BoolConst(True, pos=(t.line, t.col))
        if t.text == "false":
            self.next()
            return BoolConst(False, pos=(t.line, t.col))
        if t.kind != "name":
            raise self.error(f"expected a formula, found {t.text!r}")
        self.next()
        if self.peek().text == "[":
            self.next()
            tv = self.next()
            if tv.kind != "name":
                raise self.error("expected a trace variable", tv)
            self.expect("]")
            return TraceAtom(t.text, tv.text, pos=(t.line, t.col))
        return PropAtom(t.text, pos=(t.line, t.col))


def _parse_header_line(line: str) -> Optional[tuple[str, list[str]]]:
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    for key in ("inputs", "outputs"):
        if stripped.startswith(key + ":"):
            rest = stripped[len(key) + 1 :].strip()
            return key, [s.strip() for s in rest.split(",")] if rest else []
    return None


def parse(text: str) -> SpecDocument:
    """Parse a specification document: header lines followed by one formula."""
    lines = text.split("\n")
    headers: dict[str, list[str]] = {}
    signals: list[tuple[str, Pos]] = []  # with their header line, in source order
    body_start = 0
    for idx, line in enumerate(lines):
        hdr = _parse_header_line(line)
        if hdr is None:
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                body_start = idx
                break
            body_start = idx + 1
            continue
        key, names = hdr
        if key in headers:
            raise SpecError(f"duplicate {key} header", idx + 1, 1)
        headers[key] = names
        signals += [(s, (idx + 1, 1)) for s in names]
        body_start = idx + 1
    body_text = "\n".join([""] * body_start + lines[body_start:])
    tokens = _tokenize(body_text)
    if tokens[0].kind == "eof":
        raise SpecError("missing formula", len(lines), 1)
    parser = _Parser(tokens)
    f = parser.parse_formula()
    t = parser.peek()
    if t.kind != "eof":
        raise parser.error(f"unexpected trailing input {t.text!r}")
    _raise_first(_binding_errors(signals, f))
    return SpecDocument(tuple(headers.get("inputs", ())), tuple(headers.get("outputs", ())), f)


def parse_formula(text: str, signals: set[str], trace_vars: set[str] = frozenset(),
                  prop_vars: set[str] = frozenset()) -> Formula:
    """Parse a bare formula with the given signals and pre-bound variables in scope."""
    parser = _Parser(_tokenize(text))
    f = parser.parse_formula()
    if parser.peek().kind != "eof":
        raise parser.error("unexpected trailing input")
    _raise_first(_binding_errors([(s, None) for s in sorted(signals)], f, trace_vars, prop_vars))
    return f


# ---------------------------------------------------------------------------
# printer

_UNARY_TOKEN = {cls: tok for tok, cls in _UNARY.items()}
_BINARY_TOKEN = {cls: (tok, prec, right_assoc) for tok, (cls, prec, right_assoc) in _BINARY.items()}
_ATOMIC = (TraceAtom, PropAtom, BoolConst)
_TEMPORAL = (Until, WeakUntil, Release)


def _print(f: Formula, ctx: int) -> str:
    """f as text, parenthesized unless it binds at least ctx (0: no enclosing operator)."""
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, TraceAtom):
        return f"{f.prop}[{f.trace_var}]"
    if isinstance(f, PropAtom):
        return f.var
    if isinstance(f, Knowledge):
        head = f"K{{{','.join(sorted(f.agents))}}}[{f.trace_var}] "
        return _wrap(head + _print(f.child, _UNARY_PREC), _UNARY_PREC, ctx)
    if isinstance(f, Unary):
        tok = _UNARY_TOKEN[type(f)]
        head = tok if tok == "!" else tok + " "
        return _wrap(head + _print(f.child, _UNARY_PREC), _UNARY_PREC, ctx)
    if isinstance(f, Binary):
        tok, prec, right_assoc = _BINARY_TOKEN[type(f)]
        if isinstance(f, _TEMPORAL):
            # operands of binary temporal operators are parenthesized unless atomic
            left = _print(f.left, prec) if isinstance(f.left, _ATOMIC) else f"({_print(f.left, 0)})"
            bare = isinstance(f.right, _ATOMIC + _TEMPORAL)
            right = _print(f.right, prec) if bare else f"({_print(f.right, 0)})"
        else:
            # the operand on the grouping side may have the same precedence
            left = _print(f.left, prec + right_assoc)
            right = _print(f.right, prec + (not right_assoc))
        return _wrap(f"{left} {tok} {right}", prec, ctx)
    if isinstance(f, Quantifier):
        word = "forall" if f.kind.is_forall else "exists"
        sort = "trace" if f.kind.is_trace else "prop"
        # the body reaches as far right as it can, so any enclosing operator wraps it
        return _wrap(f"{word} {f.var}:{sort}. {_print(f.child, 0)}", 0, ctx)
    raise TypeError(f"cannot print node {type(f).__name__}")


def _wrap(s: str, prec: int, ctx: int) -> str:
    return f"({s})" if prec < ctx else s


def print_formula(f: Formula) -> str:
    """Render a formula in the concrete grammar; parse(print(f)) is structurally f."""
    return _print(f, 0)


def print_document(doc: SpecDocument) -> str:
    return (
        f"inputs: {', '.join(doc.inputs)}\n"
        f"outputs: {', '.join(doc.outputs)}\n"
        f"{print_formula(doc.formula)}\n"
    )


# ---------------------------------------------------------------------------
# well-formedness


def _is_name(s: str) -> bool:
    """s reads back as one name token: an identifier that is not a keyword."""
    return (s[:1].isalpha() or s[:1] == "_") and all(c.isalnum() or c == "_" for c in s) and s not in _KEYWORDS


def _binding_errors(signals: list[tuple[str, Pos]], f: Formula, trace_vars: set[str] = frozenset(),
                    prop_vars: set[str] = frozenset()) -> Iterator[tuple[str, Pos]]:
    """Every naming, declaration and binding error as (message, position), in source order.

    signals pairs each declared signal with the position of its header line,
    if any. trace_vars and prop_vars are bound around f; no two quantifiers
    of f may bind the same name.
    """
    declared: set[str] = set()
    for s, pos in signals:
        if not _is_name(s):
            yield f"bad signal name {s!r}", pos
        elif s in declared:
            yield f"signal {s!r} declared more than once", pos
        declared.add(s)
    seen_vars: set[str] = set()
    stack = [(f, frozenset(trace_vars), frozenset(prop_vars))]
    while stack:
        g, traces, props = stack.pop()
        if isinstance(g, Quantifier):
            if not _is_name(g.var):
                yield f"bad variable name {g.var!r}", g.pos
            if g.var in seen_vars:
                yield f"duplicate variable {g.var!r}", g.pos
            seen_vars.add(g.var)
            if g.kind.is_trace:
                traces = traces | {g.var}
            else:
                if g.var in declared:
                    yield f"quantified proposition {g.var!r} collides with a declared signal", g.pos
                props = props | {g.var}
        elif isinstance(g, PropAtom):
            if g.var not in props:
                yield f"unbound propositional variable {g.var!r}", g.pos
        elif isinstance(g, (TraceAtom, Knowledge)):
            for p in (g.prop,) if isinstance(g, TraceAtom) else sorted(g.agents):
                if p not in declared:
                    yield f"unknown proposition {p!r}", g.pos
            if g.trace_var not in traces:
                yield f"unbound trace variable {g.trace_var!r}", g.pos
        for c in reversed(g.children()):
            stack.append((c, traces, props))


def _prenex_errors(f: Formula) -> Iterator[tuple[str, Pos]]:
    """Every quantifier below an operator, as (message, position)."""
    while isinstance(f, Quantifier):
        f = f.child
    for g in walk(f):
        if isinstance(g, Quantifier):
            yield f"quantifier for {g.var!r} below an operator: the prefix must be prenex", g.pos


def _raise_first(errors: Iterator[tuple[str, Pos]]) -> None:
    for message, pos in errors:
        raise SpecError(message, *(pos or (0, 0)))


def check_well_formed(doc: SpecDocument) -> list[str]:
    """Collect diagnostics; an empty list means the document is well-formed.

    Beyond the parser's rules, the formula must be prenex.
    """
    errors = chain(_binding_errors([(s, None) for s in doc.signals], doc.formula),
                   _prenex_errors(doc.formula))
    return [message for message, _ in errors]


# ---------------------------------------------------------------------------
# negation normal form


def to_nnf(f: Formula) -> Formula:
    """Push negations to atoms and knowledge nodes; expand -> and <->."""
    return _nnf(f, False)


def _nnf(f: Formula, neg: bool) -> Formula:
    if isinstance(f, BoolConst):
        return BoolConst(f.value != neg)
    if isinstance(f, (TraceAtom, PropAtom)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.child, not neg)
    if isinstance(f, Implies):
        return _nnf(Or(Not(f.left), f.right), neg)
    if isinstance(f, Iff):
        # expanded rather than kept: subformulas occur in both polarities
        expanded = Or(And(f.left, f.right), And(Not(f.left), Not(f.right)))
        return _nnf(expanded, neg)
    if isinstance(f, WeakUntil):
        # a W b = b R (a | b); negation: (!b) U (!a & !b)
        if neg:
            return Until(_nnf(f.right, True), And(_nnf(f.left, True), _nnf(f.right, True)))
        return WeakUntil(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Knowledge):
        k = Knowledge(f.agents, f.trace_var, _nnf(f.child, False))
        return Not(k) if neg else k
    cls = _DUAL[type(f)] if neg else type(f)
    if isinstance(f, Binary):
        return cls(_nnf(f.left, neg), _nnf(f.right, neg))
    if isinstance(f, Unary):
        return cls(_nnf(f.child, neg))
    if isinstance(f, Quantifier):
        return cls(var=f.var, child=_nnf(f.child, neg))
    raise TypeError(f"cannot normalize node {type(f).__name__}")


# ---------------------------------------------------------------------------
# prefix extraction


def extract_prefix(f: Formula) -> tuple[QuantifierPrefix, Formula]:
    """Split a prenex formula into its quantifier prefix and quantifier-free body."""
    entries: list[PrefixEntry] = []
    while isinstance(f, Quantifier):
        entries.append(PrefixEntry(f.kind, f.var))
        f = f.child
    _raise_first(_prenex_errors(f))
    return QuantifierPrefix(tuple(entries)), f
