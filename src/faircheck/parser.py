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

from dataclasses import dataclass, field
from typing import Callable

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
class Diagnostic:
    span: Span
    message: str

    def __str__(self) -> str:
        return f"{self.span}: error: {self.message}"


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | symbol text | keyword text | EOF
    text: str
    span: Span


class ParseError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class NestingError(ParseError):
    """Input nested deeper than MAX_NESTING; never retried as another reading."""


# Nesting bound of predicates and expressions. The parser and the evaluators
# recurse once (the parser a few frames) per level, so this keeps them well
# inside Python's default recursion limit.
MAX_NESTING = 100


def _lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    problems: list[Diagnostic] = []
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
        problems.append(Diagnostic(span, f"unexpected character {ch!r}"))
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
class SystemDecl:
    name: str
    variables: tuple[VarDecl, ...]
    invariants: tuple[Pred, ...]
    events: tuple[EventDecl, ...]
    span: Span


@dataclass(frozen=True)
class RefinementDecl:
    name: str
    refined: str
    variables: tuple[VarDecl, ...]
    gluings: tuple[Pred, ...]
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
    systems: tuple[SystemDecl, ...]
    refinements: tuple[RefinementDecl, ...]
    properties: tuple[PropertyDecl, ...]
    proofs: tuple[ProofDecl, ...]


@dataclass
class ParseResult:
    document: ModelDocument | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.document is not None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span, f"expected {kind!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def name(self) -> str:
        return self.expect("NAME").text

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with leave()."""
        if self.depth >= MAX_NESTING:
            raise NestingError(self.peek().span, f"nested deeper than {MAX_NESTING} levels")
        self.depth += 1

    def leave(self) -> None:
        self.depth -= 1

    def literal(self) -> int:
        tok = self.expect("INT")
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python converts to an int
            message = f"integer literal of {len(tok.text)} digits is too long"
            raise ParseError(tok.span, message) from None

    def integer(self) -> int:
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        return sign * self.literal()

    def bounded_name(self) -> tuple[str, int, int]:
        """NAME ":" INT ".." INT, the declaration of a var or an any binder."""
        name = self.name()
        self.expect(":")
        lo = self.integer()
        self.expect("..")
        return name, lo, self.integer()

    # -- predicates and expressions --

    def predicate(self) -> Pred:
        left = self.disjunction()
        if self.at("=>"):
            self.enter()
            self.advance()
            try:
                return PImp(left, self.predicate())
            finally:
                self.leave()
        return left

    def disjunction(self) -> Pred:
        return self.connective(self.conjunction, "or", POr)

    def conjunction(self) -> Pred:
        return self.connective(self.negation, "and", PAnd)

    def connective(self, operand: Callable[[], Pred], word: str, node: type) -> Pred:
        operands = [operand()]
        while self.at(word):
            self.advance()
            operands.append(operand())
        return operands[0] if len(operands) == 1 else node(tuple(operands))

    def negation(self) -> Pred:
        if self.at("not"):
            self.enter()
            self.advance()
            try:
                return PNot(self.negation())
            finally:
                self.leave()
        return self.atom_pred()

    def atom_pred(self) -> Pred:
        if self.at("true"):
            self.advance()
            return PBool(True)
        if self.at("false"):
            self.advance()
            return PBool(False)
        if self.at("("):
            # could be a parenthesized predicate or the start of an
            # arithmetic comparison; try the predicate reading first
            saved = self.pos
            self.enter()
            try:
                self.advance()
                inner = self.predicate()
                self.expect(")")
                if self.at("=", "/=", "!=", "<", "<=", ">", ">=", "+", "-", "*"):
                    raise ParseError(self.peek().span, "arithmetic context")
                return inner
            except NestingError:
                raise
            except ParseError:
                self.pos = saved
            finally:
                self.leave()
        return self.comparison()

    def comparison(self) -> Pred:
        left = self.expr()
        tok = self.peek()
        if tok.kind in ("=", "/=", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self.expr()
            op = "/=" if tok.kind == "!=" else tok.kind
            return PCmp(op, left, right)
        raise ParseError(tok.span, "expected a comparison operator")

    def expr(self) -> Expr:
        return self.chain(self.term, ("+", "-"))

    def term(self) -> Expr:
        return self.chain(self.factor, ("*",))

    def chain(self, operand: Callable[[], Expr], ops: tuple[str, ...]) -> Expr:
        first = operand()
        rest = []
        while self.at(*ops):
            rest.append((self.advance().kind, operand()))
        return EBin(first, tuple(rest)) if rest else first

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            return EInt(self.literal())
        if tok.kind == "NAME":
            self.advance()
            return EVar(tok.text)
        if tok.kind in ("-", "("):
            self.enter()
            try:
                self.advance()
                if tok.kind == "-":
                    return ENeg(self.factor())
                inner = self.expr()
                self.expect(")")
                return inner
            finally:
                self.leave()
        raise ParseError(tok.span, f"expected an expression, found {tok.text or 'end of file'!r}")

    # -- updates --

    def updates(self) -> tuple[Update, ...]:
        out = [self.update()]
        while self.at(";"):
            self.advance()
            if self.at("end"):
                break
            out.append(self.update())
        return tuple(out)

    def update(self) -> Update:
        if self.at("any"):
            self.enter()
            try:
                self.advance()
                var, lo, hi = self.bounded_name()
                self.expect("where")
                where = self.predicate()
                self.expect("then")
                inner = self.updates()
                self.expect("end")
                return UAny(var, lo, hi, where, inner)
            finally:
                self.leave()
        var = self.name()
        if self.at("::"):
            self.advance()
            self.expect("{")
            options = [self.expr()]
            while self.at(","):
                self.advance()
                options.append(self.expr())
            self.expect("}")
            return UChoose(var, tuple(options))
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
            if self.at("skip"):
                self.advance()
                refines = "skip"
            else:
                refines = self.name()
        self.expect("when")
        guard = self.predicate()
        self.expect("then")
        updates = self.updates()
        self.expect("end")
        return EventDecl(name, guard, updates, span, refines)

    def block_decl(self) -> SystemDecl | RefinementDecl:
        """A system, or a refinement of a named system: var, invariant (gluing
        in a refinement) and event declarations in any order, then "end"."""
        head = self.advance()
        name = self.name()
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
            elif self.at(condition):
                self.advance()
                conditions.append(self.predicate())
            elif self.at("event"):
                events.append(self.event_decl(concrete=refined is not None))
            else:
                tok = self.peek()
                raise ParseError(
                    tok.span, f"expected var, {condition}, event or end, found {tok.text!r}"
                )
        self.expect("end")
        body = (tuple(variables), tuple(conditions), tuple(events), head.span)
        if refined is None:
            return SystemDecl(name, *body)
        return RefinementDecl(name, refined, *body)

    def property_decl(self, source: str) -> PropertyDecl:
        span = self.expect("property").span
        name = self.name()
        helpful: tuple[str, ...] = ()
        if self.at("ensures"):
            self.advance()
            self.expect("helpful")
            self.expect("{")
            names = [self.name()]
            while self.at(","):
                self.advance()
                names.append(self.name())
            self.expect("}")
            helpful = tuple(names)
            kind = "ensures"
        elif self.at("leadsto"):
            self.advance()
            kind = "leadsto"
        elif self.at("unless"):
            self.advance()
            kind = "unless"
        else:
            raise ParseError(self.peek().span, "expected ensures, leadsto or unless")
        self.expect("from")
        frm = self.predicate()
        self.expect("to")
        to = self.predicate()
        return PropertyDecl(name, kind, helpful, source, frm, to, span)

    def step_decl(self) -> StepDecl:
        span = self.expect("step").span
        name = self.name()
        tok = self.peek()
        if tok.kind not in ("brl", "tra", "dsj", "psp", "can", "thlto"):
            raise ParseError(tok.span, f"expected a rule name, found {tok.text!r}")
        rule = self.advance().kind
        refs: list[str] = []
        while self.at("NAME"):
            refs.append(self.name())
        frm = to = None
        if self.at("from"):
            self.advance()
            frm = self.predicate()
            self.expect("to")
            to = self.predicate()
        return StepDecl(name, rule, tuple(refs), frm, to, span)

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
    top-level declaration after an error."""
    tokens, diagnostics = _lex(text)
    parser = _Parser(tokens)
    systems: list[SystemDecl] = []
    refinements: list[RefinementDecl] = []
    properties: list[PropertyDecl] = []
    proofs: list[ProofDecl] = []
    current_source = ""
    while not parser.at("EOF"):
        try:
            if parser.at("system", "refinement"):
                decl = parser.block_decl()
                (systems if isinstance(decl, SystemDecl) else refinements).append(decl)
                current_source = decl.name
            elif parser.at("property"):
                if not current_source:
                    raise ParseError(parser.peek().span, "property appears before any system")
                properties.append(parser.property_decl(current_source))
            elif parser.at("proof"):
                proofs.append(parser.proof_decl())
            else:
                tok = parser.peek()
                raise ParseError(
                    tok.span,
                    f"expected system, refinement, property or proof, found {tok.text!r}",
                )
        except ParseError as err:
            diagnostics.append(Diagnostic(err.span, err.message))
            parser.advance()
            while not parser.at("EOF", *_TOP_LEVEL):
                parser.advance()
    if not systems and not diagnostics:
        diagnostics.append(Diagnostic(Span(1, 1), "no system declared"))
    if diagnostics:
        return ParseResult(None, diagnostics)
    document = ModelDocument(
        tuple(systems), tuple(refinements), tuple(properties), tuple(proofs)
    )
    return ParseResult(document, diagnostics)
