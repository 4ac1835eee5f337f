"""Parser for the model description language.

Grammar (informal EBNF):

    document   = (system | refinement | property | proof)+
    system     = "system" NAME (var | invariant | event)+ "end"
    var        = "var" NAME ":" INT ".." INT
    invariant  = "invariant" predicate
    event      = "event" NAME "when" predicate "then" updates "end"
    refinement = "refinement" NAME "refines" NAME (var | gluing | cevent)+ "end"
    gluing     = "gluing" predicate
    cevent     = "event" NAME "refines" (NAME | "skip")
                 "when" predicate "then" updates "end"
    property   = "property" NAME
                 ("ensures" "helpful" "{" NAME ("," NAME)* "}" | "leadsto" | "unless")
                 "from" predicate "to" predicate
    proof      = "proof" NAME "goal" NAME step+ "end"
    step       = "step" NAME rule
    rule       = "brl" (NAME | conclusion)
               | ("tra" | "psp" | "can") NAME NAME [conclusion]
               | "dsj" NAME+ [conclusion]
               | "thlto" NAME conclusion
    conclusion = "from" predicate "to" predicate

    updates    = update (";" update)*
    update     = NAME ":=" expr
               | NAME "::" "{" expr ("," expr)* "}"
               | "any" NAME ":" INT ".." INT "where" predicate
                 "then" updates "end"

    predicate  = implication over "or" / "and" / "not" / comparisons
    comparison = expr ("=" | "/=" | "!=" | "<" | "<=" | ">" | ">=") expr
    expr       = integer arithmetic with + - * and unary minus

Integer literals are ASCII digits. Line comments start with //. Updates
within one event act simultaneously (all right-hand sides read the
pre-state); an "any" block must be the only update of its event. A chain of
"and", "or", "+"/"-" or "*" is one flat node (PAnd, POr, EBin), so only
parentheses, "not", "=>", unary minus and "any" blocks nest, each one level,
at most MAX_NESTING deep; deeper input is a parse error. The elaborator
checks which names a construct reads and assigns.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

KEYWORDS = {
    "system", "refinement", "property", "proof", "var", "invariant", "event",
    "when", "then", "end", "refines", "gluing", "ensures", "helpful",
    "leadsto", "unless", "from", "to", "goal", "step", "any", "where",
    "and", "or", "not", "true", "false", "skip",
    "brl", "tra", "dsj", "psp", "can", "thlto",
}

SYMBOLS = (
    "..", ":=", "::", "=>", "<=", ">=", "/=", "!=",
    "(", ")", "{", "}", ",", ":", ";", "=", "<", ">", "+", "-", "*",
)


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | symbol text | keyword text | EOF
    text: str
    span: Span


class ParseError(Exception):
    """A positioned error of the text: the lexer's, the parser's, or "no
    system declared"."""

    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: error: {message}")
        self.span = span
        self.message = message


class NestingError(ParseError):
    """Input nested deeper than MAX_NESTING; never retried as another reading."""


# Nesting bound of predicates and expressions. The parser and the evaluators
# recurse once (the parser a few frames) per level, so this keeps them well
# inside Python's default recursion limit.
MAX_NESTING = 100


def _lex(text: str) -> tuple[list[Token], list[ParseError]]:
    tokens: list[Token] = []
    problems: list[ParseError] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = Span(line, col)
        matched = None
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            tokens.append(Token(matched, matched, span))
            i += len(matched)
            col += len(matched)
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("INT", text[i:j], span))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "NAME"
            tokens.append(Token(kind, word, span))
            col += j - i
            i = j
            continue
        problems.append(ParseError(span, f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", Span(line, col)))
    return tokens, problems


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class EInt(Expr):
    value: int


@dataclass(frozen=True)
class EVar(Expr):
    name: str


@dataclass(frozen=True)
class ENeg(Expr):
    inner: Expr


@dataclass(frozen=True)
class EBin(Expr):
    """A chain first op1 e1 op2 e2 ... of one precedence level ("+"/"-" or
    "*"), folded left to right; rest holds the (op, operand) pairs."""

    first: Expr
    rest: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class Pred:
    pass


@dataclass(frozen=True)
class PBool(Pred):
    value: bool


@dataclass(frozen=True)
class PCmp(Pred):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PNot(Pred):
    inner: Pred


@dataclass(frozen=True)
class PAnd(Pred):
    operands: tuple[Pred, ...]  # two or more


@dataclass(frozen=True)
class POr(Pred):
    operands: tuple[Pred, ...]  # two or more


@dataclass(frozen=True)
class PImp(Pred):
    left: Pred
    right: Pred


@dataclass(frozen=True)
class Update:
    pass


@dataclass(frozen=True)
class UAssign(Update):
    var: str
    value: Expr


@dataclass(frozen=True)
class UChoose(Update):
    var: str
    options: tuple[Expr, ...]


@dataclass(frozen=True)
class UAny(Update):
    var: str
    lo: int
    hi: int
    where: Pred
    updates: tuple[Update, ...]


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    span: Span


@dataclass(frozen=True)
class EventDecl:
    name: str
    guard: Pred
    updates: tuple[Update, ...]
    span: Span
    refines: str | None = None  # concrete events: abstract name or "skip"


@dataclass(frozen=True)
class BlockDecl:
    """A system (refined is None), whose conditions are its invariants, or a
    refinement of the system named refined, whose conditions are its
    gluings."""

    name: str
    refined: str | None
    variables: tuple[VarDecl, ...]
    conditions: tuple[Pred, ...]
    events: tuple[EventDecl, ...]
    span: Span


@dataclass(frozen=True)
class PropertyDecl:
    name: str
    kind: str  # ensures | leadsto | unless
    helpful: tuple[str, ...]
    source: str  # owning system or refinement, filled at parse time
    frm: Pred
    to: Pred
    span: Span


@dataclass(frozen=True)
class StepDecl:
    name: str
    rule: str
    refs: tuple[str, ...]
    frm: Pred | None
    to: Pred | None
    span: Span


@dataclass(frozen=True)
class ProofDecl:
    name: str
    goal: str
    steps: tuple[StepDecl, ...]
    span: Span


@dataclass(frozen=True)
class ModelDocument:
    systems: tuple[BlockDecl, ...]
    refinements: tuple[BlockDecl, ...]
    properties: tuple[PropertyDecl, ...]
    proofs: tuple[ProofDecl, ...]


@dataclass
class ParseResult:
    document: ModelDocument | None
    diagnostics: list[ParseError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.document is not None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_COMPARISONS = ("=", "/=", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        # the name of the last block whose header was read: the owner of
        # the properties after it, even when its body fails to parse
        self.owner = ""

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def accept(self, *kinds: str) -> Token | None:
        """The next token, consumed, when it is one of kinds; else None."""
        return self.advance() if self.at(*kinds) else None

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span, f"expected {kind!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def name(self) -> str:
        return self.expect("NAME").text

    @contextlib.contextmanager
    def nested(self) -> Iterator[None]:
        """One nesting level around the body, opened at the next token; a
        level beyond MAX_NESTING is a NestingError there."""
        if self.depth >= MAX_NESTING:
            raise NestingError(self.peek().span, f"nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    def listed(self, item: Callable[[], object]) -> tuple:
        """"{" item ("," item)* "}"."""
        self.expect("{")
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect("}")
        return tuple(items)

    def literal(self) -> int:
        tok = self.expect("INT")
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python converts to an int
            message = f"integer literal of {len(tok.text)} digits is too long"
            raise ParseError(tok.span, message) from None

    def integer(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * self.literal()

    def bounded_name(self) -> tuple[str, int, int]:
        """NAME ":" INT ".." INT, the declaration of a var or an any binder."""
        name = self.name()
        self.expect(":")
        lo = self.integer()
        self.expect("..")
        return name, lo, self.integer()

    def conclusion(self) -> tuple[Pred, Pred]:
        """predicate "to" predicate, after "from"."""
        frm = self.predicate()
        self.expect("to")
        return frm, self.predicate()

    # -- predicates and expressions --

    def predicate(self) -> Pred:
        left = self.disjunction()
        if not self.at("=>"):
            return left
        with self.nested():
            self.advance()
            return PImp(left, self.predicate())

    def disjunction(self) -> Pred:
        return self.connective(self.conjunction, "or", POr)

    def conjunction(self) -> Pred:
        return self.connective(self.negation, "and", PAnd)

    def connective(self, operand: Callable[[], Pred], word: str, node: type) -> Pred:
        operands = [operand()]
        while self.accept(word):
            operands.append(operand())
        return operands[0] if len(operands) == 1 else node(tuple(operands))

    def negation(self) -> Pred:
        if not self.at("not"):
            return self.atom_pred()
        with self.nested():
            self.advance()
            return PNot(self.negation())

    def atom_pred(self) -> Pred:
        if self.accept("true"):
            return PBool(True)
        if self.accept("false"):
            return PBool(False)
        if self.at("("):
            # could be a parenthesized predicate or the start of an
            # arithmetic comparison; try the predicate reading first
            saved = self.pos
            try:
                with self.nested():
                    self.advance()
                    inner = self.predicate()
                    self.expect(")")
                    if self.at(*_COMPARISONS, "+", "-", "*"):
                        raise ParseError(self.peek().span, "arithmetic context")
                    return inner
            except NestingError:
                raise
            except ParseError:
                self.pos = saved
        return self.comparison()

    def comparison(self) -> Pred:
        left = self.expr()
        tok = self.accept(*_COMPARISONS)
        if tok is None:
            raise ParseError(self.peek().span, "expected a comparison operator")
        return PCmp("/=" if tok.kind == "!=" else tok.kind, left, self.expr())

    def expr(self) -> Expr:
        return self.chain(self.term, ("+", "-"))

    def term(self) -> Expr:
        return self.chain(self.factor, ("*",))

    def chain(self, operand: Callable[[], Expr], ops: tuple[str, ...]) -> Expr:
        first = operand()
        rest = []
        while tok := self.accept(*ops):
            rest.append((tok.kind, operand()))
        return EBin(first, tuple(rest)) if rest else first

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            return EInt(self.literal())
        if self.accept("NAME"):
            return EVar(tok.text)
        if tok.kind in ("-", "("):
            with self.nested():
                self.advance()
                if tok.kind == "-":
                    return ENeg(self.factor())
                inner = self.expr()
                self.expect(")")
                return inner
        raise ParseError(tok.span, f"expected an expression, found {tok.text or 'end of file'!r}")

    # -- updates --

    def updates(self) -> tuple[Update, ...]:
        out = [self.update()]
        while self.accept(";") and not self.at("end"):
            out.append(self.update())
        return tuple(out)

    def update(self) -> Update:
        if self.at("any"):
            with self.nested():
                self.advance()
                var, lo, hi = self.bounded_name()
                self.expect("where")
                where = self.predicate()
                self.expect("then")
                inner = self.updates()
                self.expect("end")
                return UAny(var, lo, hi, where, inner)
        var = self.name()
        if self.accept("::"):
            return UChoose(var, self.listed(self.expr))
        self.expect(":=")
        return UAssign(var, self.expr())

    # -- declarations --

    def var_decl(self) -> VarDecl:
        span = self.expect("var").span
        return VarDecl(*self.bounded_name(), span)

    def event_decl(self, concrete: bool) -> EventDecl:
        span = self.expect("event").span
        name = self.name()
        refines = None
        if concrete:
            self.expect("refines")
            refines = "skip" if self.accept("skip") else self.name()
        self.expect("when")
        guard = self.predicate()
        self.expect("then")
        updates = self.updates()
        self.expect("end")
        return EventDecl(name, guard, updates, span, refines)

    def block_decl(self) -> BlockDecl:
        """A system, or a refinement of a named system: var, invariant (gluing
        in a refinement) and event declarations in any order, then "end"."""
        head = self.advance()
        name = self.owner = self.name()
        refined = None
        if head.kind == "refinement":
            self.expect("refines")
            refined = self.name()
        condition = "invariant" if refined is None else "gluing"
        variables: list[VarDecl] = []
        conditions: list[Pred] = []
        events: list[EventDecl] = []
        while not self.at("end"):
            if self.at("var"):
                variables.append(self.var_decl())
            elif self.accept(condition):
                conditions.append(self.predicate())
            elif self.at("event"):
                events.append(self.event_decl(concrete=refined is not None))
            else:
                tok = self.peek()
                raise ParseError(
                    tok.span, f"expected var, {condition}, event or end, found {tok.text!r}"
                )
        self.expect("end")
        return BlockDecl(
            name, refined, tuple(variables), tuple(conditions), tuple(events), head.span
        )

    def property_decl(self, source: str) -> PropertyDecl:
        span = self.expect("property").span
        name = self.name()
        tok = self.accept("ensures", "leadsto", "unless")
        if tok is None:
            raise ParseError(self.peek().span, "expected ensures, leadsto or unless")
        helpful: tuple[str, ...] = ()
        if tok.kind == "ensures":
            self.expect("helpful")
            helpful = self.listed(self.name)
        self.expect("from")
        return PropertyDecl(name, tok.kind, helpful, source, *self.conclusion(), span)

    def step_decl(self) -> StepDecl:
        span = self.expect("step").span
        name = self.name()
        rule = self.accept("brl", "tra", "dsj", "psp", "can", "thlto")
        if rule is None:
            tok = self.peek()
            raise ParseError(tok.span, f"expected a rule name, found {tok.text!r}")
        refs: list[str] = []
        while self.at("NAME"):
            refs.append(self.name())
        frm, to = self.conclusion() if self.accept("from") else (None, None)
        return StepDecl(name, rule.kind, tuple(refs), frm, to, span)

    def proof_decl(self) -> ProofDecl:
        span = self.expect("proof").span
        name = self.name()
        self.expect("goal")
        goal = self.name()
        steps: list[StepDecl] = []
        while self.at("step"):
            steps.append(self.step_decl())
        self.expect("end")
        if not steps:
            raise ParseError(span, f"proof {name!r} has no steps")
        return ProofDecl(name, goal, tuple(steps), span)


_TOP_LEVEL = ("system", "refinement", "property", "proof")


def parse_document(text: str) -> ParseResult:
    """Parse a model document; collects diagnostics and recovers at the next
    top-level keyword after an error. That keyword may be the one the error
    is reported at, unless it begins the declaration that failed."""
    tokens, diagnostics = _lex(text)
    parser = _Parser(tokens)
    systems: list[BlockDecl] = []
    refinements: list[BlockDecl] = []
    properties: list[PropertyDecl] = []
    proofs: list[ProofDecl] = []
    while not parser.at("EOF"):
        start = parser.pos
        try:
            if parser.at("system", "refinement"):
                decl = parser.block_decl()
                (systems if decl.refined is None else refinements).append(decl)
            elif parser.at("property"):
                if not parser.owner:
                    raise ParseError(parser.peek().span, "property appears before any system")
                properties.append(parser.property_decl(parser.owner))
            elif parser.at("proof"):
                proofs.append(parser.proof_decl())
            else:
                tok = parser.peek()
                raise ParseError(
                    tok.span,
                    f"expected system, refinement, property or proof, found {tok.text!r}",
                )
        except ParseError as err:
            diagnostics.append(err.with_traceback(None))  # holds no parser frames
            if parser.pos == start:
                parser.advance()  # so that recovery cannot stop where it began
            while not parser.at("EOF", *_TOP_LEVEL):
                parser.advance()
    if not systems and not diagnostics:
        diagnostics.append(ParseError(Span(1, 1), "no system declared"))
    if diagnostics:
        return ParseResult(None, diagnostics)
    document = ModelDocument(
        tuple(systems), tuple(refinements), tuple(properties), tuple(proofs)
    )
    return ParseResult(document, diagnostics)
