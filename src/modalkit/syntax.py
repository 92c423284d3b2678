"""Formula syntax: signatures, dialects, the AST, parsing and printing.

The surface grammar (ASCII) is:

    formula  := iff
    iff      := impl ('<->' iff)?                  # right-associative
    impl     := or ('->' impl)?                    # right-associative
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '~' unary | '<'IDENT'>' unary | '['IDENT']' unary
              | '<<'IDENT'>>' unary | '[['IDENT']]' unary
              | '@'IDENT unary | 'rem' unary | 'forg' unary | 'erase' unary
              | atom
    atom     := 'true' | 'false' | 'known' | IDENT | "'"IDENT | '(' formula ')'

IDENT is [a-zA-Z][a-zA-Z0-9_]*; a bare IDENT is a proposition, 'IDENT is a
nominal.  '#' starts a comment that runs to end of line.  Unary operators bind
tightest, then '&', '|', '->', '<->'.

On any path from the whole formula down to an atom, every operator and every
pair of parentheses is one level ('p & p & p' has two); deeper nesting than
MAX_FORMULA_DEPTH is a ParseError.  The cap guards only the recursive-descent
parser: every formula walker runs on ``_walk``'s explicit stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from .errors import (
    InvariantViolationError,
    OperatorNotInDialectError,
    ParseError,
    UnknownNameError,
)

# Operators a dialect may enable.  The propositional connectives are always
# available (negation gated by LogicSpec.has_negation).
OPERATORS = frozenset(
    {
        "diamond",
        "box",
        "ddiamond",
        "dbox",
        "known",
        "remember",
        "forget",
        "erase",
        "nominal",
        "at",
    }
)

# Operators whose presence makes a dialect a memory logic; every memory logic
# must provide at least remember and known.
MEMORY_OPERATORS = frozenset({"known", "remember", "forget", "erase", "ddiamond", "dbox"})

RESERVED_WORDS = frozenset({"true", "false", "rem", "forg", "erase", "known"})

MAX_FORMULA_DEPTH = 100

_IDENT_HEAD = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_TAIL = _IDENT_HEAD | set("0123456789_")


def _check_names(names, kind: str) -> None:
    seen = set()
    for name in names:
        if not name or name[0] not in _IDENT_HEAD or any(c not in _IDENT_TAIL for c in name[1:]):
            raise InvariantViolationError(f"{kind} name {name!r} is not a valid identifier")
        if name in RESERVED_WORDS:
            raise InvariantViolationError(f"{kind} name {name!r} is a reserved word")
        if name in seen:
            raise InvariantViolationError(f"duplicate {kind} name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class Signature:
    """The vocabulary a formula may draw from: propositions, relations, nominals.

    The three name lists must be pairwise disjoint and free of duplicates.
    """

    props: tuple[str, ...] = ()
    rels: tuple[str, ...] = ()
    noms: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "props", tuple(self.props))
        object.__setattr__(self, "rels", tuple(self.rels))
        object.__setattr__(self, "noms", tuple(self.noms))
        _check_names(self.props, "proposition")
        _check_names(self.rels, "relation")
        _check_names(self.noms, "nominal")
        overlap = (set(self.props) & set(self.rels)) | (set(self.props) & set(self.noms)) | (
            set(self.rels) & set(self.noms)
        )
        if overlap:
            raise InvariantViolationError(
                f"signature name(s) used in more than one role: {sorted(overlap)}"
            )


@dataclass(frozen=True)
class LogicSpec:
    """A dialect: which operators are enabled, and whether negation is available.

    Invariants: enabling any memory operator requires both 'remember' and
    'known'; enabling 'at' requires 'nominal'.
    """

    name: str
    operators: frozenset[str] = frozenset()
    has_negation: bool = True

    def __post_init__(self):
        object.__setattr__(self, "operators", frozenset(self.operators))
        unknown = self.operators - OPERATORS
        if unknown:
            raise InvariantViolationError(f"unknown operator(s) {sorted(unknown)}")
        if self.operators & MEMORY_OPERATORS and not (
            {"remember", "known"} <= self.operators
        ):
            raise InvariantViolationError(
                f"dialect {self.name!r} enables memory operators but not both "
                "'remember' and 'known'"
            )
        if "at" in self.operators and "nominal" not in self.operators:
            raise InvariantViolationError(
                f"dialect {self.name!r} enables 'at' without 'nominal'"
            )

    def allows(self, operator: str) -> bool:
        return operator in self.operators


# The named dialects the CLI and tests speak about.
DIALECTS: dict[str, LogicSpec] = {
    "bml": LogicSpec("bml", frozenset({"diamond", "box"}), True),
    "bml-minus": LogicSpec("bml-minus", frozenset({"diamond"}), False),
    "hl": LogicSpec("hl", frozenset({"diamond", "box", "nominal"}), True),
    "hl-at": LogicSpec("hl-at", frozenset({"diamond", "box", "nominal", "at"}), True),
    "ml-diamond": LogicSpec("ml-diamond", frozenset({"remember", "known", "diamond"}), True),
    "ml-ddiamond": LogicSpec("ml-ddiamond", frozenset({"remember", "known", "ddiamond"}), True),
    "ml-forget": LogicSpec(
        "ml-forget", frozenset({"remember", "known", "forget", "diamond"}), True
    ),
    "ml-erase": LogicSpec(
        "ml-erase", frozenset({"remember", "known", "erase", "diamond"}), True
    ),
    "ml-full": LogicSpec(
        "ml-full",
        frozenset(
            {"remember", "known", "forget", "erase", "diamond", "box", "ddiamond", "dbox"}
        ),
        True,
    ),
}


def get_dialect(name: str) -> LogicSpec:
    try:
        return DIALECTS[name]
    except KeyError:
        raise UnknownNameError(name, "dialect") from None


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes."""

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Nom(Formula):
    name: str


@dataclass(frozen=True)
class Known(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    rel: str
    sub: Formula


@dataclass(frozen=True)
class Box(Formula):
    rel: str
    sub: Formula


@dataclass(frozen=True)
class DDiamond(Formula):
    """Double diamond: move to a successor after memorizing the current world."""

    rel: str
    sub: Formula


@dataclass(frozen=True)
class DBox(Formula):
    rel: str
    sub: Formula


@dataclass(frozen=True)
class Remember(Formula):
    sub: Formula


@dataclass(frozen=True)
class Forget(Formula):
    sub: Formula


@dataclass(frozen=True)
class Erase(Formula):
    sub: Formula


@dataclass(frozen=True)
class At(Formula):
    nom: str
    sub: Formula


MODALITIES = {"diamond": Diamond, "box": Box, "ddiamond": DDiamond, "dbox": DBox}
_DUALS = {"diamond": "box", "box": "diamond", "ddiamond": "dbox", "dbox": "ddiamond"}


def modality(spec: LogicSpec, operator: str, rel: str, sub: Formula) -> Formula:
    """The modal operator applied to sub, written as its dual ~op~sub when
    the dialect lacks the operator itself."""
    if spec.allows(operator):
        return MODALITIES[operator](rel, sub)
    return Not(MODALITIES[_DUALS[operator]](rel, Not(sub)))


# ---------------------------------------------------------------------------
# The walk


def _walk(node, root, memo=None, key=None):
    """node(root)'s result.  node(item) is a generator that yields each item
    whose result it needs, is sent that result, and returns its own; all run
    on one explicit stack.  A memo keeps each result, never None, under
    key(item) (the item if key is None); an item it holds is not walked again."""
    stack: list = []  # (memo key, generator) awaiting a result
    need = root
    while True:
        k = need if key is None else key(need)
        sent = None if memo is None else memo.get(k)
        if sent is None:
            stack.append((k, node(need)))
        while stack:
            k, gen = stack[-1]
            try:
                need = gen.send(sent)
                break
            except StopIteration as done:
                sent = done.value
                stack.pop()
                if memo is not None:
                    memo[k] = sent
        else:
            return sent


def _walker(node):
    """node's walk as a function of a formula."""
    return wraps(node)(lambda phi: _walk(node, phi))


# ---------------------------------------------------------------------------
# Depth and validation


@_walker
def modal_depth(phi: Formula) -> int:
    """Maximum nesting of relation-traversing modalities.

    Remember/Forget/Erase/At and the boolean connectives contribute 0;
    Diamond/Box/DDiamond/DBox contribute 1.
    """
    match phi:
        case Top() | Bottom() | Prop() | Nom() | Known():
            return 0
        case Not(sub) | Remember(sub) | Forget(sub) | Erase(sub) | At(_, sub):
            return (yield sub)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return max((yield a), (yield b))
        case Diamond(_, sub) | Box(_, sub) | DDiamond(_, sub) | DBox(_, sub):
            return 1 + (yield sub)
    raise TypeError(f"not a formula: {phi!r}")


def validate_formula(phi: Formula, sig: Signature, spec: LogicSpec) -> None:
    """Raise UnknownNameError/OperatorNotInDialectError if phi is not a
    well-formed formula of the dialect over the signature."""

    def need(op: str) -> None:
        if not spec.allows(op):
            raise OperatorNotInDialectError(op, spec.name)

    def node(phi: Formula):
        match phi:
            case Top() | Bottom():
                pass
            case Prop(name):
                if name not in sig.props:
                    raise UnknownNameError(name, "proposition")
            case Nom(name):
                need("nominal")
                if name not in sig.noms:
                    raise UnknownNameError(name, "nominal")
            case Known():
                need("known")
            case Not() | Implies() | Iff() if not spec.has_negation:
                # material implication smuggles in negation
                raise OperatorNotInDialectError("negation", spec.name)
            case Not(sub):
                yield sub
            case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
                yield a
                yield b
            case Diamond(rel, sub) | Box(rel, sub) | DDiamond(rel, sub) | DBox(rel, sub):
                need(type(phi).__name__.lower())
                if rel not in sig.rels:
                    raise UnknownNameError(rel, "relation")
                yield sub
            case Remember(sub) | Forget(sub) | Erase(sub):
                need(type(phi).__name__.lower())
                yield sub
            case At(nom, sub):
                need("at")
                if nom not in sig.noms:
                    raise UnknownNameError(nom, "nominal")
                yield sub
            case _:
                raise TypeError(f"not a formula: {phi!r}")

    _walk(node, phi)


# ---------------------------------------------------------------------------
# Lexer

_SYMBOLS = ("<->", "<<", ">>", "[[", "]]", "->", "<", ">", "[", "]", "(", ")", "&", "|", "~", "@", "'")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'sym', 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _IDENT_HEAD:
            j = i + 1
            while j < n and text[j] in _IDENT_TAIL:
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, i))
                i += len(sym)
                break
        else:
            raise ParseError(i, f"a token (got {c!r})")
    tokens.append(_Token("eof", "", n))
    return tokens


# opening modal bracket -> (closing bracket, node)
_BRACKETS = {"<": (">", Diamond), "[": ("]", Box), "<<": (">>", DDiamond), "[[": ("]]", DBox)}
_MEMORY_PREFIXES = {"rem": Remember, "forg": Forget, "erase": Erase}
_CONSTANTS = {"true": Top, "false": Bottom, "known": Known}


class _Parser:
    """Recursive descent; every rule returns (formula, nesting levels)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.level = 0  # levels open above the rule being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, sym: str) -> _Token | None:
        tok = self.peek()
        return self.take() if tok.kind == "sym" and tok.text == sym else None

    def expect_sym(self, sym: str) -> _Token:
        tok = self.accept(sym)
        if tok is None:
            raise ParseError(self.peek().pos, repr(sym))
        return tok

    def expect_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(tok.pos, what)
        return self.take().text

    def levels(self, tok: _Token, height: int) -> int:
        if height > MAX_FORMULA_DEPTH:
            raise ParseError(tok.pos, f"at most {MAX_FORMULA_DEPTH} levels of nesting")
        return height

    def below(self, tok: _Token, rule) -> tuple[Formula, int]:
        """Parse rule one level below the operator or parenthesis at tok."""
        self.level = self.levels(tok, self.level + 1)
        phi, height = rule()
        self.level -= 1
        return phi, self.levels(tok, height + 1)

    def binary(self, tok: _Token, cls, left, rule) -> tuple[Formula, int]:
        (a, ha), (b, hb) = left, self.below(tok, rule)
        return cls(a, b), self.levels(tok, max(ha + 1, hb))

    def prefix(self, tok: _Token, cls, *args) -> tuple[Formula, int]:
        sub, height = self.below(tok, self.unary)
        return cls(*args, sub), height

    def parse(self) -> Formula:
        phi, _ = self.iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(tok.pos, "end of input")
        return phi

    def iff(self) -> tuple[Formula, int]:
        left = self.impl()
        tok = self.accept("<->")
        return self.binary(tok, Iff, left, self.iff) if tok else left

    def impl(self) -> tuple[Formula, int]:
        left = self.or_()
        tok = self.accept("->")
        return self.binary(tok, Implies, left, self.impl) if tok else left

    def or_(self) -> tuple[Formula, int]:
        out = self.and_()
        while tok := self.accept("|"):
            out = self.binary(tok, Or, out, self.and_)
        return out

    def and_(self) -> tuple[Formula, int]:
        out = self.unary()
        while tok := self.accept("&"):
            out = self.binary(tok, And, out, self.unary)
        return out

    def unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.kind == "sym" and tok.text in _BRACKETS:
            self.take()
            rel = self.expect_ident("a relation name")
            close, cls = _BRACKETS[tok.text]
            self.expect_sym(close)
            return self.prefix(tok, cls, rel)
        if self.accept("~"):
            return self.prefix(tok, Not)
        if self.accept("@"):
            return self.prefix(tok, At, self.expect_ident("a nominal name"))
        if tok.kind == "ident" and tok.text in _MEMORY_PREFIXES:
            self.take()
            return self.prefix(tok, _MEMORY_PREFIXES[tok.text])
        return self.atom()

    def atom(self) -> tuple[Formula, int]:
        tok = self.peek()
        if self.accept("("):
            out = self.below(tok, self.iff)
            self.expect_sym(")")
            return out
        if self.accept("'"):
            return Nom(self.expect_ident("a nominal name")), 0
        if tok.kind == "ident":
            self.take()
            return _CONSTANTS[tok.text]() if tok.text in _CONSTANTS else Prop(tok.text), 0
        raise ParseError(tok.pos, "a formula")


def parse_formula(text: str, sig: Signature, spec: LogicSpec) -> Formula:
    """Parse and validate a formula against the signature and dialect."""
    phi = _Parser(_tokenize(text)).parse()
    validate_formula(phi, sig, spec)
    return phi


# ---------------------------------------------------------------------------
# Printer

# precedence: <-> 0, -> 1, | 2, & 3, unary/atoms 4
_PREC = {Iff: 0, Implies: 1, Or: 2, And: 3}


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula round-trips the result."""
    return _kept(phi, 0) or _walk(_render, (phi, 0))


def _kept(phi: Formula, ctx: int) -> str | None:
    """phi's text in a context of precedence ctx once printed: a node keeps it
    in its ``__dict__``, not a field, so ``==``, hash and repr ignore it."""
    text = phi.__dict__.get("_text")
    return f"({text})" if text and ctx > _PREC.get(type(phi), 4) else text


def _render(need: tuple[Formula, int]):
    """Print phi for a context of precedence ctx, walking unprinted parts."""
    phi, ctx = need
    match phi:
        case Top():
            text = "true"
        case Bottom():
            text = "false"
        case Known():
            text = "known"
        case Prop(name):
            text = name
        case Nom(name):
            text = f"'{name}"
        case Not(sub):
            text = f"~{_kept(sub, 4) or (yield sub, 4)}"
        case Diamond(rel, sub):
            text = f"<{rel}>{_kept(sub, 4) or (yield sub, 4)}"
        case Box(rel, sub):
            text = f"[{rel}]{_kept(sub, 4) or (yield sub, 4)}"
        case DDiamond(rel, sub):
            text = f"<<{rel}>>{_kept(sub, 4) or (yield sub, 4)}"
        case DBox(rel, sub):
            text = f"[[{rel}]]{_kept(sub, 4) or (yield sub, 4)}"
        case At(nom, sub):
            text = f"@{nom} {_kept(sub, 4) or (yield sub, 4)}"
        case Remember(sub):
            text = f"rem {_kept(sub, 4) or (yield sub, 4)}"
        case Forget(sub):
            text = f"forg {_kept(sub, 4) or (yield sub, 4)}"
        case Erase(sub):
            text = f"erase {_kept(sub, 4) or (yield sub, 4)}"
        case And(a, b):
            text = f"{_kept(a, 3) or (yield a, 3)} & {_kept(b, 4) or (yield b, 4)}"
        case Or(a, b):
            text = f"{_kept(a, 2) or (yield a, 2)} | {_kept(b, 3) or (yield b, 3)}"
        case Implies(a, b):
            text = f"{_kept(a, 2) or (yield a, 2)} -> {_kept(b, 1) or (yield b, 1)}"
        case Iff(a, b):
            text = f"{_kept(a, 1) or (yield a, 1)} <-> {_kept(b, 0) or (yield b, 0)}"
        case _:
            raise TypeError(f"not a formula: {phi!r}")
    phi.__dict__["_text"] = text
    return _kept(phi, ctx)


@_walker
def formula_size(phi: Formula) -> int:
    """Node count of the syntax tree."""
    match phi:
        case Top() | Bottom() | Prop(_) | Nom(_) | Known():
            return 1
        case Not(sub) | Diamond(_, sub) | Box(_, sub) | DDiamond(_, sub) | DBox(_, sub):
            return 1 + (yield sub)
        case Remember(sub) | Forget(sub) | Erase(sub) | At(_, sub):
            return 1 + (yield sub)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return 1 + (yield a) + (yield b)
    raise TypeError(f"not a formula: {phi!r}")


def conjoin(parts) -> Formula:
    """Left fold of And over the parts, deduplicated and sorted by rendered
    text; the empty conjunction is true."""
    return _fold(parts, And, Top())


def disjoin(parts) -> Formula:
    """Left fold of Or, deduplicated and sorted by rendered text; the empty
    disjunction is false."""
    return _fold(parts, Or, Bottom())


def _fold(parts, cls, empty: Formula) -> Formula:
    """Left fold of the binary connective cls over the parts, one per
    rendered text (the last of equal texts), in text order."""
    uniq = sorted({print_formula(p): p for p in parts}.items())
    if not uniq:
        return empty
    out = uniq[0][1]
    for _, p in uniq[1:]:
        out = cls(out, p)
    return out
