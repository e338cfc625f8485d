"""The mini imperative language under analysis.

C-flavored surface syntax:

    program  := "{" decl* stmt* "}" | decl* stmt*
    decl     := ("int" | "double") ident ("," ident)* ";"
    stmt     := ident ("=" | "+=" | "-=") expr ";"
              | ident ("++" | "--") ";"
              | "know" "(" bexpr ")" ";"
              | "if" "(" bexpr ")" block ["else" block]
              | "while" "(" bexpr ")" block
              | block
    block    := "{" stmt* "}"
    expr     := expr ("+" | "-" | "*") expr       # one factor of * must be a literal
              | number | ident | "coin_flip" "(" ")" | "uniform" "(" ")"
              | "-" number | "(" expr ")"
    bexpr    := bexpr ("&&" | "||") bexpr | expr relop expr | "(" bexpr ")"
    relop    := "<" | "<=" | ">" | ">=" | "==" | "!="

Binary operators bind as `_PRECEDENCE` states, loosest first: ``||``,
``&&``, the relational operators, ``+`` and ``-``, then ``*``.  All group
to the left, and comparisons do not chain.  Integer and real arithmetic
never mix inside one expression; the parser checks kinds as it goes and
reports a mix at the offending operator.  ``coin_flip()`` is an integer
generator over {0, 1} and ``uniform()`` a real generator over [0, 1].

Source text is ASCII outside ``/* ... */`` comments.  A program nests at
most `MAX_DEPTH` (150) levels deep: each leaf of an expression or
condition counts one level, plus one for each block, pair of parentheses
and operator around it.

The expression AST has four nodes: the leaves `Var`, `Lit` and `Draw`,
the last two keyed by their `Kind`, and one `Binary` node for every
binary operator, keyed by the operator's text as `_PRECEDENCE` is and
carrying the kind the parser checked.  A product keeps its literal
coefficient on the left, whichever side the source wrote it on.  A
generator's name, draw and range are read off its kind: `GENERATOR_NAME`,
`draw_value` and ``intervals.GENERATOR_RANGE``.
Draws are counter-based (Salmon et al., SC'11): a trial with seed s
draws at key (site, iteration word) the bits ``mix(s ^ fold((site,
*word)))``, a pure function of the key whichever engine, order or batch
draws it, and `draw_value` turns them into the generator's value: both
engines call `draw`, for one seed or a uint64 array of lanes' seeds.

``x += e`` and ``x -= e`` are sugar for ``x = x + e`` and ``x = x - e``,
and ``x++``/``x--`` for ``x += 1``/``x -= 1`` with a literal 1 of x's
kind: the AST has one assignment node, so ``--trace`` labels every
assignment ``Assign``, and ``to_source`` prints ``x = x + e`` and
``x = x - e`` back in compound form.

The last top-level ``know`` of a source file states the outcome event
whose probability is being bounded; every other ``know`` is an assumption
constraining otherwise unspecified variables.  An explicit query can
replace the outcome, in which case the source's outcome ``know`` is
dropped.

Every statement and generator occurrence carries an integer site
identifier assigned in source order, so re-parsing identical text
reproduces identical sites.  Programs are immutable after construction
and safe to share between threads and processes.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple


class Kind(enum.Enum):
    """Scalar kind of a variable or expression."""

    INT = "int"
    REAL = "double"


class LangError(Exception):
    """Syntax or validation error, with a source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST
#
# Sites are excluded from equality, so structurally identical programs
# compare equal whatever their sites.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Expr:
    """An expression or a condition."""


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    value: int | float
    kind: Kind


@dataclass(frozen=True, slots=True)
class Draw(Expr):
    """A generator call: ``coin_flip()`` of kind INT, ``uniform()`` of REAL."""

    site: int = field(compare=False)
    kind: Kind


# The source name of the generator of each kind
GENERATOR_NAME = {Kind.INT: "coin_flip", Kind.REAL: "uniform"}
M64 = 2**64 - 1  # draws are 64-bit words


def mix(z):
    """splitmix64's step and output, on an int mod 2**64 or a uint64 array
    alike; an array wraps by itself, so only an int is masked."""

    if isinstance(z, int):
        z = (z + 0x9E3779B97F4A7C15) & M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        return z ^ (z >> 31)
    z = z + 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=4096)
def fold(words: tuple[int, ...]) -> int:
    """`mix` folded over ints from 0, ``key = mix(key ^ (w mod 2**64))``; a
    draw key's salt is the fold of its site, then each word entry."""

    key = 0
    for w in words:
        key = mix(key ^ (w & M64))
    return key


def draw_value(bits, kind: Kind, span: tuple[float, float] | None = None):
    """A generator's draw from 64 bits (an int, or a uint64 array of lanes)
    inside the inclusive ``span``: a coin is the top bit, or the one value
    the span allows, a `uniform` lo + (hi - lo) * (the top 53 bits / 2**53)."""

    if kind is Kind.INT:
        if span is not None:
            allowed = [v for v in (0, 1) if span[0] <= v <= span[1]]
            if len(allowed) == 1:
                return 0 * bits + allowed[0]  # an int, or an array like bits
        return bits >> 63
    u = (bits >> 11) * 2.0**-53
    return u if span is None else span[0] + (span[1] - span[0]) * u


def draw(seed, salt, kind: Kind, span: tuple[float, float] | None = None):
    """The draw of a trial ``seed`` at the key whose salt is ``salt``,
    ``fold((site, *word))``, ints or broadcasting uint64 arrays (lanes'
    seeds, a column of salts): the one draw rule of both engines."""

    return draw_value(mix(seed ^ salt), kind, span)


RELOPS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    """``left op right`` for every binary operator of the language, with
    the kind of an arithmetic result (None for a condition; not compared).
    A product keeps its literal coefficient on the left: general products
    are not part of the language, which keeps interval arithmetic exact."""

    left: Expr
    op: str
    right: Expr
    kind: Kind | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Stmt:
    pass


@dataclass(frozen=True, slots=True)
class Assign(Stmt):
    site: int = field(compare=False)
    name: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class Know(Stmt):
    site: int = field(compare=False)
    cond: Expr


@dataclass(frozen=True, slots=True)
class If(Stmt):
    site: int = field(compare=False)
    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


@dataclass(frozen=True, slots=True)
class While(Stmt):
    site: int = field(compare=False)
    cond: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True, slots=True)
class Program:
    declarations: tuple[tuple[str, Kind], ...]
    body: tuple[Stmt, ...]
    outcome: Expr | None
    name: str = field(default="<program>", compare=False)

    def kinds(self) -> dict[str, Kind]:
        return dict(self.declarations)


@dataclass(frozen=True, slots=True)
class GeneratorSite:
    """One textual occurrence of a random generator."""

    ordinal: int  # 1-based, source order
    site: int
    coin: bool
    inside_loop: bool


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = ("int", "double", "know", "if", "else", "while", *GENERATOR_NAME.values())
_GENERATOR_KIND = {name: kind for kind, name in GENERATOR_NAME.items()}

# one alternative per token class; "error" takes any character no token
# starts with, so scanning never skips input
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|/\*.*?\*/)"
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<PUNCT>[<>=!]=|&&|\|\||\+[+=]|-[-=]|[-+*<>=(){};,])"
    r"|(?P<error>.)",
    re.S,
)


class _Token(NamedTuple):
    kind: str  # IDENT | INT | REAL | PUNCT | EOF
    text: str
    value: object
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rfind("\n") + 1
            continue
        value: object = text
        if kind == "number" and text.isdigit():
            kind = "INT"
            try:
                value = int(text)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                message = f"integer literal of {len(text)} digits is too long"
                raise LangError(message, line, col) from None
        elif kind == "number":
            kind, value = "REAL", float(text)
            if not math.isfinite(value):
                raise LangError(f"real literal {text} is out of range", line, col)
        elif kind == "error":
            if src.startswith("/*", m.start()):
                raise LangError("unterminated comment", line, col)
            raise LangError(f"unexpected character {text!r}", line, col)
        toks.append(_Token(kind, text, value, line, col))
    toks.append(_Token("EOF", "", None, line, len(src) - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# How tightly each binary operator binds; all group to the left.  The
# parser climbs this table and the printer parenthesises by it.
_PRECEDENCE = {"||": 1, "&&": 2, **dict.fromkeys(RELOPS, 3), "+": 4, "-": 4, "*": 5}

# The deepest a leaf of an expression or condition may sit, counting one
# level for the leaf and for each block, pair of parentheses and operator
# around it (and for each block, in a program without leaves).  This keeps
# every recursive walk of the AST inside Python's default recursion limit.
MAX_DEPTH = 150


class _Parser:
    def __init__(self, tokens: list[_Token], kinds: dict[str, Kind] | None = None):
        self._toks = tokens
        self._i = 0
        self._kinds: dict[str, Kind] = dict(kinds or {})
        self._order: list[tuple[str, Kind]] = []
        self._next_site = 1
        self._depth = 0  # open blocks and parentheses

    # token plumbing: punctuation and keywords are matched by their text alone

    def _peek(self) -> _Token:
        return self._toks[self._i]

    def _advance(self) -> _Token:
        t = self._toks[self._i]
        self._i += 1
        return t

    def _accept(self, text: str) -> _Token | None:
        return self._advance() if self._peek().text == text else None

    def _expect(self, text: str) -> _Token:
        t = self._peek()
        if t.text == text:
            return self._advance()
        raise LangError(f"expected '{text}', found {t.text!r}", t.line, t.col)

    def _site(self) -> int:
        s = self._next_site
        self._next_site += 1
        return s

    def _bound(self, height: int) -> None:
        """Reject a leaf ``height`` levels below the open blocks and
        parentheses when it lies deeper than MAX_DEPTH."""

        if self._depth + height > MAX_DEPTH:
            t = self._peek()
            raise LangError(f"program nests deeper than {MAX_DEPTH} levels", t.line, t.col)

    # grammar

    def program(self) -> tuple[list[tuple[str, Kind]], list[Stmt]]:
        wrapped = self._accept("{") is not None
        while self._peek().text in ("int", "double"):
            self._declaration()
        body: list[Stmt] = []
        while (t := self._peek()).kind != "EOF" and not (wrapped and t.text == "}"):
            body.extend(self.statement())
        if wrapped:
            self._expect("}")
        t = self._peek()
        if t.kind != "EOF":
            raise LangError(f"unexpected trailing input {t.text!r}", t.line, t.col)
        return self._order, body

    def _declaration(self) -> None:
        kw = self._advance()
        kind = Kind.INT if kw.text == "int" else Kind.REAL
        while True:
            t = self._peek()
            if t.kind != "IDENT":
                raise LangError("expected variable name", t.line, t.col)
            self._advance()
            if t.text in _KEYWORDS:
                raise LangError(f"'{t.text}' is a reserved word", t.line, t.col)
            if t.text in self._kinds:
                raise LangError(f"duplicate declaration of '{t.text}'", t.line, t.col)
            self._kinds[t.text] = kind
            self._order.append((t.text, kind))
            if self._accept(","):
                continue
            self._expect(";")
            return

    def statement(self) -> list[Stmt]:
        t = self._peek()
        if t.text == "{":
            return list(self._block())
        if t.text in ("know", "if", "while"):
            self._advance()
            self._expect("(")
            cond = self.condition()
            self._expect(")")
            if t.text == "know":
                self._expect(";")
                return [Know(self._site(), cond)]
            body = self._block()
            if t.text == "while":
                return [While(self._site(), cond, body)]
            orelse: tuple[Stmt, ...] = ()
            if self._accept("else"):
                orelse = self._block()
            return [If(self._site(), cond, body, orelse)]
        if t.kind == "IDENT":
            return [self._assignment()]
        raise LangError(f"expected statement, found {t.text!r}", t.line, t.col)

    def _block(self) -> tuple[Stmt, ...]:
        self._expect("{")
        self._depth += 1
        self._bound(0)
        stmts: list[Stmt] = []
        while (t := self._peek()).text != "}":
            if t.kind == "EOF":
                raise LangError("unterminated block", t.line, t.col)
            stmts.extend(self.statement())
        self._advance()
        self._depth -= 1
        return tuple(stmts)

    def _assignment(self) -> Assign:
        name_tok = self._advance()
        name = name_tok.text
        kind = self._kinds.get(name)
        if kind is None:
            raise LangError(f"undeclared variable '{name}'", name_tok.line, name_tok.col)
        op = self._advance()
        if op.text not in ("=", "+=", "-=", "++", "--"):
            raise LangError(f"expected assignment operator, found {op.text!r}", op.line, op.col)
        if op.text in ("++", "--"):
            expr, ek, height = Lit(1 if kind is Kind.INT else 1.0, kind), kind, 1
        else:
            expr, ek, height = self._climb(1)
        self._bound(height + (op.text != "="))
        self._expect(";")
        if ek is not kind:
            got = f"{ek.value} expression" if ek else "a condition"
            raise LangError(f"cannot assign {got} to {kind.value} '{name}'", op.line, op.col)
        if op.text != "=":  # x += e is x = x + e; x++ is x += 1
            expr = Binary(Var(name), op.text[0], expr, kind)
        return Assign(self._site(), name, expr)

    def condition(self) -> Expr:
        cond, kind, height = self._climb(1)
        self._require_condition(kind, self._peek())
        self._bound(height)
        return cond

    @staticmethod
    def _require_condition(kind: Kind | None, at: _Token) -> None:
        if kind is not None:
            raise LangError(f"expected comparison operator, found {at.text!r}", at.line, at.col)

    # Expressions and conditions are parsed together by precedence
    # climbing, each operand with its kind (None for a condition), so a
    # parenthesis may hold either and kind errors are raised at the operator

    def _climb(self, floor: int) -> tuple[Expr, Kind | None, int]:
        """An operand and every operator after it that binds at least as
        tightly as ``floor``, grouped to the left: the node, its kind and
        its height in levels."""

        node, kind, height = self._operand()
        while (prec := _PRECEDENCE.get(self._peek().text, 0)) >= floor:
            op = self._advance()
            if op.text in ("&&", "||"):
                self._require_condition(kind, op)
            right, rkind, rheight = self._climb(prec + 1)
            node, kind = self._combine(op, node, kind, right, rkind)
            height = max(height, rheight) + 1
        return node, kind, height

    def _combine(
        self, op: _Token, left, lkind, right, rkind
    ) -> tuple[Expr, Kind | None]:
        if op.text in ("&&", "||"):
            self._require_condition(rkind, self._peek())
            return Binary(left, op.text, right), None
        if lkind is None or rkind is None:
            raise LangError(f"a condition cannot be an operand of '{op.text}'", op.line, op.col)
        if op.text == "*" and not isinstance(left, Lit):
            if not isinstance(right, Lit):
                raise LangError("multiplication requires a literal factor", op.line, op.col)
            left, right = right, left  # the coefficient comes first
        relational = op.text in RELOPS
        if lkind is not rkind:
            what = "comparison mixes integer and real" if relational else "mixed integer and real"
            raise LangError(f"{what} operands", op.line, op.col)
        kind = None if relational else lkind
        return Binary(left, op.text, right, kind), kind

    def _operand(self) -> tuple[Expr, Kind | None, int]:
        t = self._advance()
        sign = 1
        if t.text == "-":
            if self._peek().kind not in ("INT", "REAL"):
                raise LangError("'-' must precede a numeric literal", t.line, t.col)
            sign, t = -1, self._advance()
        if t.kind in ("INT", "REAL"):
            kind = Kind[t.kind]
            return Lit(sign * t.value, kind), kind, 1
        if t.text in _GENERATOR_KIND:
            self._expect("(")
            self._expect(")")
            kind = _GENERATOR_KIND[t.text]
            return Draw(self._site(), kind), kind, 1
        if t.kind == "IDENT":
            kind = self._kinds.get(t.text)
            if kind is None:
                raise LangError(f"undeclared variable '{t.text}'", t.line, t.col)
            return Var(t.text), kind, 1
        if t.text == "(":
            self._depth += 1
            self._bound(0)
            node, kind, height = self._climb(1)
            self._expect(")")
            self._depth -= 1
            return node, kind, height + 1
        raise LangError(f"expected expression, found {t.text!r}", t.line, t.col)


def parse(source: str, *, name: str = "<program>", query: str | None = None) -> Program:
    """Parse a program; the parser enforces declarations, kinds and the
    presence of an outcome, raising LangError on the first violation.

    The last top-level ``know`` becomes the outcome; with ``query`` given,
    the query expression becomes the outcome instead and the source's last
    top-level ``know`` (if any) is dropped.
    """

    parser = _Parser(_tokenize(source))
    order, body = parser.program()
    last_know = None
    for idx, stmt in enumerate(body):
        if isinstance(stmt, Know):
            last_know = idx
    if query is not None:
        outcome = parse_condition(query, dict(order))
        if last_know is not None:
            del body[last_know]
    else:
        if last_know is None:
            raise LangError("missing outcome: no top-level know(...) and no query")
        outcome = body[last_know].cond
        del body[last_know]
    return Program(tuple(order), tuple(body), outcome, name=name)


def parse_condition(text: str, kinds: dict[str, Kind]) -> Expr:
    """Parse a standalone boolean expression over already-declared variables."""

    parser = _Parser(_tokenize(text), kinds)
    cond = parser.condition()
    t = parser._peek()
    if t.kind != "EOF":
        raise LangError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return cond


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def iter_stmts(stmts):
    """All statements, outer before inner."""

    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from iter_stmts(s.then)
            yield from iter_stmts(s.orelse)
        elif isinstance(s, While):
            yield from iter_stmts(s.body)


def reads(node: Expr | Stmt):
    """Variable and generator leaves read by an expression, a condition or
    one statement's own expression or guard (not its nested blocks), left
    to right."""

    if isinstance(node, (Var, Draw)):
        yield node
    elif isinstance(node, Binary):
        yield from reads(node.left)
        yield from reads(node.right)
    elif isinstance(node, Assign):
        yield from reads(node.expr)
    elif isinstance(node, (Know, If, While)):
        yield from reads(node.cond)


def writes(stmts) -> set[str]:
    """Variables assigned anywhere in the statements, nested blocks included."""

    return {s.name for s in iter_stmts(stmts) if isinstance(s, Assign)}


def generator_sites(program: Program) -> list[GeneratorSite]:
    """Generator occurrences in the executable body, in source order.

    Occurrences in the outcome expression are excluded: the outcome is a
    predicate on final states, never sampled.
    """

    found: list[GeneratorSite] = []

    def walk_stmts(stmts, in_loop: bool) -> None:
        for s in stmts:
            for e in reads(s):
                if isinstance(e, Draw):
                    found.append(GeneratorSite(len(found) + 1, e.site, e.kind is Kind.INT, in_loop))
            if isinstance(s, If):
                walk_stmts(s.then, in_loop)
                walk_stmts(s.orelse, in_loop)
            elif isinstance(s, While):
                walk_stmts(s.body, True)

    walk_stmts(program.body, False)
    return found


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def _text(node: Expr, floor: int = 0) -> str:
    """Source text of an expression or condition, in parentheses when its
    operator binds less tightly than ``floor``.  A left operand takes its
    parent's precedence as the floor and a right operand one more, the
    reverse of how the parser groups them."""

    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Draw):
        return f"{GENERATOR_NAME[node.kind]}()"
    prec = _PRECEDENCE[node.op]
    text = f"{_text(node.left, prec)} {node.op} {_text(node.right, prec + 1)}"
    return f"({text})" if prec < floor else text


def _stmt_lines(stmt: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(stmt, Assign):
        e = stmt.expr
        if isinstance(e, Binary) and e.op in ("+", "-") and e.left == Var(stmt.name):
            return [f"{pad}{stmt.name} {e.op}= {_text(e.right)};"]  # x = x + e prints x += e
        return [f"{pad}{stmt.name} = {_text(e)};"]
    if isinstance(stmt, Know):
        return [f"{pad}know ({_text(stmt.cond)});"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({_text(stmt.cond)}) {{"]
        for s in stmt.then:
            lines.extend(_stmt_lines(s, indent + 1))
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for s in stmt.orelse:
                lines.extend(_stmt_lines(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({_text(stmt.cond)}) {{"]
        for s in stmt.body:
            lines.extend(_stmt_lines(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise LangError(f"unknown statement node {type(stmt).__name__}")


def to_source(program: Program) -> str:
    """Canonical text rendering; parsing it back yields an equal Program."""

    lines: list[str] = []
    for kind, group in itertools.groupby(program.declarations, key=lambda d: d[1]):
        lines.append(f"{kind.value} {', '.join(name for name, _ in group)};")
    for stmt in program.body:
        lines.extend(_stmt_lines(stmt, 0))
    if program.outcome is not None:
        lines.append(f"know ({_text(program.outcome)});")
    return "\n".join(lines) + "\n"
