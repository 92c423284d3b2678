"""Formula syntax: signatures, dialects, the AST, parsing and printing.

The surface grammar (ASCII) is:

    formula  := unary (INFIX unary)*                # by precedence, see below
    unary    := '~' unary | '<'IDENT'>' unary | '['IDENT']' unary
              | '<<'IDENT'>>' unary | '[['IDENT']]' unary
              | '@'IDENT unary | 'rem' unary | 'forg' unary | 'erase' unary
              | atom
    atom     := 'true' | 'false' | 'known' | IDENT | "'"IDENT | '(' formula ')'

IDENT is [a-zA-Z][a-zA-Z0-9_]*; a bare IDENT is a proposition, 'IDENT is a
nominal.  '#' starts a comment that runs to end of line.  Unary operators bind
tightest, then '&', '|', '->', '<->'; '&' and '|' group to the left, '->' and
'<->' to the right.

The tables ``_BRACKETS``, ``_MEMORY_PREFIXES``, ``_CONSTANTS`` and ``_INFIX``
state the concrete syntax: the lexer, the parser, the printer, RESERVED_WORDS
and the command line's signature inference all read it from them.

On any path from the whole formula down to an atom, every operator and every
pair of parentheses is one level ('p & p & p' has two); deeper nesting than
MAX_FORMULA_DEPTH is a ParseError.  The cap guards only the recursive-descent
parser: every formula walker runs on ``_walk``'s explicit stack.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cache, wraps

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


class _Node:
    """Base of the modal and first-order formula nodes.  ``==``, ``hash`` and
    ``repr`` give what the dataclass-generated methods give, on an explicit
    stack, so a formula of any depth compares, hashes and prints; a node is
    frozen.  It keeps its hash in its ``__dict__``, beside its printed text,
    and pickles without them: a string's hash differs between processes."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            for x, y in zip(_values(a), _values(b)):
                if isinstance(x, _Node):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        h = self.__dict__.get("_hash")
        return _walk(_hashed, self) if h is None else h

    def __repr__(self):
        return _join(_repr_pieces, self)

    def __reduce__(self):
        return type(self), _values(self)


def _hashed(phi):
    """phi's dataclass hash, kept on phi once its parts keep theirs."""
    values = _values(phi)
    for v in values:
        if isinstance(v, _Node) and "_hash" not in v.__dict__:
            yield v
    return phi.__dict__.setdefault("_hash", hash(values))


def _repr_pieces(phi):
    """phi's dataclass repr: strings, and the parts whose reprs go between."""
    pieces = []
    for name, v in zip(phi.__match_args__, _values(phi)):
        pieces += [", ", f"{name}=", v if isinstance(v, _Node) else repr(v)]
    return [f"{type(phi).__qualname__}(", *pieces[1:], ")"]


def _frozen(cls):
    """A formula node class: a dataclass with _Node's methods and the shared
    ``__init__`` of its field names and types."""
    cls.__init__ = _init(tuple(cls.__dict__.get("__annotations__", {}).items()))
    return dataclass(init=False, eq=False, repr=False)(cls)


@cache
def _init(typed: tuple[tuple[str, str], ...]):
    """The ``__init__`` of the node classes with these typed fields, made once."""
    params = "".join(f", {name}: {kind}" for name, kind in typed)
    body = "".join(f"\n _set(self, {name!r}, {name})" for name, _ in typed)
    exec(f"def __init__(self{params}):{body}\n pass", scope := {"_set": object.__setattr__})
    return scope["__init__"]


@_frozen
class Formula(_Node):
    """Base class for formula nodes."""

    def __str__(self) -> str:
        return print_formula(self)


@_frozen
class Top(Formula):
    pass


@_frozen
class Bottom(Formula):
    pass


@_frozen
class Prop(Formula):
    name: str


@_frozen
class Nom(Formula):
    name: str


@_frozen
class Known(Formula):
    pass


@_frozen
class Not(Formula):
    sub: Formula


@_frozen
class And(Formula):
    left: Formula
    right: Formula


@_frozen
class Or(Formula):
    left: Formula
    right: Formula


@_frozen
class Implies(Formula):
    left: Formula
    right: Formula


@_frozen
class Iff(Formula):
    left: Formula
    right: Formula


@_frozen
class Diamond(Formula):
    rel: str
    sub: Formula


@_frozen
class Box(Formula):
    rel: str
    sub: Formula


@_frozen
class DDiamond(Formula):
    """Double diamond: move to a successor after memorizing the current world."""

    rel: str
    sub: Formula


@_frozen
class DBox(Formula):
    rel: str
    sub: Formula


@_frozen
class Remember(Formula):
    sub: Formula


@_frozen
class Forget(Formula):
    sub: Formula


@_frozen
class Erase(Formula):
    sub: Formula


@_frozen
class At(Formula):
    nom: str
    sub: Formula


MODALITIES = {"diamond": Diamond, "box": Box, "ddiamond": DDiamond, "dbox": DBox}
_DUALS = {"diamond": "box", "box": "diamond", "ddiamond": "dbox", "dbox": "ddiamond"}
# node class -> (its name field, the name's role); every other field of a
# node holds a subformula
_NAMED = {
    Prop: ("name", "proposition"),
    Nom: ("name", "nominal"),
    At: ("nom", "nominal"),
    **{cls: ("rel", "relation") for cls in MODALITIES.values()},
}


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


def _values(phi) -> tuple:
    """phi's field values, in field order."""
    return tuple(map(phi.__getattribute__, phi.__match_args__))


def _parts(phi) -> list:
    """phi's subformulas: the values of the fields its class declares as
    formulas, in field order."""
    if not isinstance(phi, _Node):
        raise TypeError(f"not a formula: {phi!r}")
    return [getattr(phi, name) for name in _part_fields(type(phi))]


@cache
def _part_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.type in ("Formula", "FOFormula"))


def _join(pieces, root) -> str:
    """root's text in one join: pieces(item) lists strings and further
    items, each of whose own pieces take its place, on one explicit stack."""
    out, todo = [], [root]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        else:
            todo += reversed(pieces(item))
    return "".join(out)


# ---------------------------------------------------------------------------
# Depth and validation


@_walker
def modal_depth(phi: Formula) -> int:
    """Maximum nesting of relation-traversing modalities.

    Remember/Forget/Erase/At and the boolean connectives contribute 0;
    Diamond/Box/DDiamond/DBox contribute 1.
    """
    depth = 0
    for part in _parts(phi):
        depth = max(depth, (yield part))
    return depth + (type(phi) in MODALITIES.values())


def validate_formula(phi: Formula, sig: Signature, spec: LogicSpec) -> None:
    """Raise UnknownNameError/OperatorNotInDialectError if phi is not a
    well-formed formula of the dialect over the signature."""

    names = {"proposition": sig.props, "relation": sig.rels, "nominal": sig.noms}

    def node(phi: Formula):
        cls = type(phi)
        if cls in (Not, Implies, Iff) and not spec.has_negation:
            # material implication smuggles in negation
            raise OperatorNotInDialectError("negation", spec.name)
        op = "nominal" if cls is Nom else cls.__name__.lower()
        if op in OPERATORS and not spec.allows(op):
            raise OperatorNotInDialectError(op, spec.name)
        if cls in _NAMED:
            field, role = _NAMED[cls]
            if (name := getattr(phi, field)) not in names[role]:
                raise UnknownNameError(name, role)
        for part in _parts(phi):
            yield part

    _walk(node, phi)


# ---------------------------------------------------------------------------
# Lexer


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


# The concrete syntax.  opening modal bracket -> (closing bracket, node)
_BRACKETS = {"<": (">", Diamond), "[": ("]", Box), "<<": (">>", DDiamond), "[[": ("]]", DBox)}
_MEMORY_PREFIXES = {"rem": Remember, "forg": Forget, "erase": Erase}
_CONSTANTS = {"true": Top, "false": Bottom, "known": Known}
# binary connective -> (token, precedence, groups to the right)
_INFIX = {Iff: ("<->", 0, True), Implies: ("->", 1, True), Or: ("|", 2, False), And: ("&", 3, False)}

# Built from the tables above.  Prefix operators and atoms bind tightest.
_TIGHTEST = len(_INFIX)
_INFIX_OF = {token: cls for cls, (token, _, _) in _INFIX.items()}
# prefix operator -> the text before its operand, a format of the node's fields
_PREFIX = {
    Not: "~",
    At: "@{nom} ",
    **{cls: f"{opening}{{rel}}{close}" for opening, (close, cls) in _BRACKETS.items()},
    **{cls: f"{word} " for word, cls in _MEMORY_PREFIXES.items()},
}
# atom -> its text, a format of the node's fields
_ATOMS = {**{cls: word for word, cls in _CONSTANTS.items()}, Prop: "{name}", Nom: "'{name}"}
RESERVED_WORDS = frozenset(_CONSTANTS) | frozenset(_MEMORY_PREFIXES)
# every symbol, longest first: the lexer takes the longest one that matches
_CLOSING = [close for close, _ in _BRACKETS.values()]
_SYMBOLS = tuple(sorted([*_INFIX_OF, *_BRACKETS, *_CLOSING, "(", ")", "~", "@", "'"], key=len, reverse=True))


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
        phi, _ = self.infix()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(tok.pos, "end of input")
        return phi

    def infix(self, floor: int = 0) -> tuple[Formula, int]:
        """Precedence climbing: a formula whose top connectives bind at least
        as tightly as floor; a left-grouping one's right operand, tighter."""
        out = self.unary()
        while (cls := _INFIX_OF.get(self.peek().text)) and _INFIX[cls][1] >= floor:
            _, prec, right = _INFIX[cls]
            out = self.binary(self.take(), cls, out, lambda: self.infix(prec + (not right)))
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
            out = self.below(tok, self.infix)
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


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula round-trips the result.
    phi keeps the text in its ``__dict__`` (its parts keep none), which ``==``,
    hash and repr ignore: printing phi again, or a formula over it, reads it."""
    text = phi.__dict__.get("_text")
    if text is None:
        text = phi.__dict__["_text"] = _join(_render, (phi, 0))
    return text


def _piece(phi: Formula, ctx: int):
    """phi's kept text for a context of precedence ctx, or, if phi was never
    printed, the item (phi, ctx) that renders it."""
    text = phi.__dict__.get("_text")
    if text is None:
        return phi, ctx
    infix = _INFIX.get(type(phi))
    return f"({text})" if infix and ctx > infix[1] else text


def _render(need: tuple[Formula, int]) -> list:
    """The pieces of phi's text for a context of precedence ctx: strings, and
    an item for each part not printed yet."""
    phi, ctx = need
    cls = type(phi)
    if cls in _INFIX:
        token, prec, right = _INFIX[cls]
        pieces = [_piece(phi.left, prec + right), f" {token} ", _piece(phi.right, prec + (not right))]
        return ["(", *pieces, ")"] if ctx > prec else pieces
    if cls in _PREFIX:
        return [_PREFIX[cls].format_map(phi.__dict__), _piece(phi.sub, _TIGHTEST)]
    if cls in _ATOMS:
        return [_ATOMS[cls].format_map(phi.__dict__)]
    raise TypeError(f"not a formula: {phi!r}")


@_walker
def formula_size(phi: Formula) -> int:
    """Node count of the syntax tree."""
    size = 1
    for part in _parts(phi):
        size += yield part
    return size


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
