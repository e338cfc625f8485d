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
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*          # one factor must be a literal
    factor   := number | ident | "coin_flip" "(" ")" | "uniform" "(" ")"
              | "-" number | "(" expr ")"
    bexpr    := band ("||" band)*
    band     := batom ("&&" batom)*
    batom    := expr relop expr | "(" bexpr ")"
    relop    := "<" | "<=" | ">" | ">=" | "==" | "!="

Comments are ``/* ... */``.  Integer and real arithmetic never mix inside
one expression; the parser checks kinds as it goes and reports a mix at
the offending operator.  ``coin_flip()`` is an integer generator over
{0, 1} and ``uniform()`` a real generator over [0, 1].

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
import itertools
import math
from dataclasses import dataclass, field


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
    pass


@dataclass(frozen=True, slots=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True, slots=True)
class RealLit(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class MulConst(Expr):
    """Multiplication by a literal coefficient; general products are not
    part of the language, which keeps interval arithmetic exact."""

    coeff: IntLit | RealLit
    expr: Expr


@dataclass(frozen=True, slots=True)
class CoinFlip(Expr):
    """Random draw, uniform on {0, 1}.  Integer kind."""

    site: int = field(compare=False)


@dataclass(frozen=True, slots=True)
class Uniform(Expr):
    """Random draw, uniform on [0, 1].  Real kind."""

    site: int = field(compare=False)


@dataclass(frozen=True, slots=True)
class BoolExpr:
    pass


RELOPS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass(frozen=True, slots=True)
class Cmp(BoolExpr):
    left: Expr
    op: str
    right: Expr


@dataclass(frozen=True, slots=True)
class And(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True, slots=True)
class Or(BoolExpr):
    left: BoolExpr
    right: BoolExpr


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
    cond: BoolExpr


@dataclass(frozen=True, slots=True)
class If(Stmt):
    site: int = field(compare=False)
    cond: BoolExpr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


@dataclass(frozen=True, slots=True)
class While(Stmt):
    site: int = field(compare=False)
    cond: BoolExpr
    body: tuple[Stmt, ...]


@dataclass(frozen=True, slots=True)
class Program:
    declarations: tuple[tuple[str, Kind], ...]
    body: tuple[Stmt, ...]
    outcome: BoolExpr | None
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

_TWO_CHAR = ("<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "++", "--")
_ONE_CHAR = set("+-*<>=(){};,")
_KEYWORDS = ("int", "double", "know", "if", "else", "while", "coin_flip", "uniform")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # IDENT | INT | REAL | PUNCT | EOF
    text: str
    value: object
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if src.startswith("/*", i):
            end = src.find("*/", i + 2)
            if end < 0:
                raise LangError("unterminated comment", line, col)
            skipped = src[i : end + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            toks.append(_Token("IDENT", text, text, line, col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            is_real = False
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                is_real = True
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            if is_real:
                if not math.isfinite(float(text)):
                    raise LangError(f"real literal {text} is out of range", line, col)
                toks.append(_Token("REAL", text, float(text), line, col))
            else:
                toks.append(_Token("INT", text, int(text), line, col))
            col += j - i
            i = j
            continue
        two = src[i : i + 2]
        if two in _TWO_CHAR:
            toks.append(_Token("PUNCT", two, two, line, col))
            i, col = i + 2, col + 2
            continue
        if c in _ONE_CHAR:
            toks.append(_Token("PUNCT", c, c, line, col))
            i, col = i + 1, col + 1
            continue
        raise LangError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("EOF", "", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], kinds: dict[str, Kind] | None = None):
        self._toks = tokens
        self._i = 0
        self._kinds: dict[str, Kind] = dict(kinds or {})
        self._order: list[tuple[str, Kind]] = []
        self._next_site = 1

    # token plumbing

    def _peek(self) -> _Token:
        return self._toks[self._i]

    def _advance(self) -> _Token:
        t = self._toks[self._i]
        self._i += 1
        return t

    def _accept(self, text: str) -> _Token | None:
        t = self._peek()
        if t.kind == "PUNCT" and t.text == text:
            return self._advance()
        return None

    def _expect(self, text: str) -> _Token:
        t = self._peek()
        if t.kind == "PUNCT" and t.text == text:
            return self._advance()
        raise LangError(f"expected '{text}', found {t.text!r}", t.line, t.col)

    def _site(self) -> int:
        s = self._next_site
        self._next_site += 1
        return s

    # grammar

    def program(self) -> tuple[list[tuple[str, Kind]], list[Stmt]]:
        wrapped = self._accept("{") is not None
        while self._peek().kind == "IDENT" and self._peek().text in ("int", "double"):
            self._declaration()
        body: list[Stmt] = []
        while True:
            t = self._peek()
            if t.kind == "EOF":
                break
            if wrapped and t.kind == "PUNCT" and t.text == "}":
                break
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
        if t.kind == "PUNCT" and t.text == "{":
            return list(self._block())
        if t.kind == "IDENT" and t.text in ("know", "if", "while"):
            self._advance()
            self._expect("(")
            cond = self.bool_expr()
            self._expect(")")
            if t.text == "know":
                self._expect(";")
                return [Know(self._site(), cond)]
            body = self._block()
            if t.text == "while":
                return [While(self._site(), cond, body)]
            orelse: tuple[Stmt, ...] = ()
            if self._peek().kind == "IDENT" and self._peek().text == "else":
                self._advance()
                orelse = self._block()
            return [If(self._site(), cond, body, orelse)]
        if t.kind == "IDENT":
            return [self._assignment()]
        raise LangError(f"expected statement, found {t.text!r}", t.line, t.col)

    def _block(self) -> tuple[Stmt, ...]:
        self._expect("{")
        stmts: list[Stmt] = []
        while not (self._peek().kind == "PUNCT" and self._peek().text == "}"):
            if self._peek().kind == "EOF":
                t = self._peek()
                raise LangError("unterminated block", t.line, t.col)
            stmts.extend(self.statement())
        self._expect("}")
        return tuple(stmts)

    def _assignment(self) -> Assign:
        name_tok = self._advance()
        name = name_tok.text
        kind = self._kinds.get(name)
        if kind is None:
            raise LangError(f"undeclared variable '{name}'", name_tok.line, name_tok.col)
        op = self._advance()
        if not (op.kind == "PUNCT" and op.text in ("=", "+=", "-=", "++", "--")):
            raise LangError(f"expected assignment operator, found {op.text!r}", op.line, op.col)
        if op.text in ("++", "--"):
            expr, ek = (IntLit(1) if kind is Kind.INT else RealLit(1.0)), kind
        else:
            expr, ek = self.expr()
        self._expect(";")
        if ek is not kind:
            raise LangError(
                f"cannot assign {ek.value} expression to {kind.value} '{name}'",
                op.line,
                op.col,
            )
        if op.text != "=":  # x += e is x = x + e; x++ is x += 1
            expr = (Add if op.text[0] == "+" else Sub)(Var(name), expr)
        return Assign(self._site(), name, expr)

    def bool_expr(self) -> BoolExpr:
        node = self._bool_and()
        while self._accept("||"):
            node = Or(node, self._bool_and())
        return node

    def _bool_and(self) -> BoolExpr:
        node = self._bool_atom()
        while self._accept("&&"):
            node = And(node, self._bool_atom())
        return node

    def _bool_atom(self) -> BoolExpr:
        # "(" may open either a boolean group or the arithmetic left-hand
        # side of a comparison; try the boolean reading first and back off.
        t = self._peek()
        if t.kind == "PUNCT" and t.text == "(":
            save = self._i
            sites = self._next_site
            try:
                self._advance()
                inner = self.bool_expr()
                self._expect(")")
                return inner
            except LangError:
                self._i = save
                self._next_site = sites
        return self._comparison()

    def _comparison(self) -> BoolExpr:
        left, lk = self.expr()
        t = self._peek()
        if not (t.kind == "PUNCT" and t.text in RELOPS):
            raise LangError(f"expected comparison operator, found {t.text!r}", t.line, t.col)
        self._advance()
        right, rk = self.expr()
        if lk is not rk:
            raise LangError("comparison mixes integer and real operands", t.line, t.col)
        return Cmp(left, t.text, right)

    # expr, term and factor return each sub-expression with its kind, so a
    # kind error is reported at the operator that mixes integer and real

    @staticmethod
    def _same_kind(left: Kind, right: Kind, op: _Token) -> Kind:
        if left is not right:
            raise LangError("mixed integer and real operands", op.line, op.col)
        return left

    def expr(self) -> tuple[Expr, Kind]:
        node, kind = self.term()
        while True:
            t = self._peek()
            if not (t.kind == "PUNCT" and t.text in ("+", "-")):
                return node, kind
            self._advance()
            right, rk = self.term()
            kind = self._same_kind(kind, rk, t)
            node = (Add if t.text == "+" else Sub)(node, right)

    def term(self) -> tuple[Expr, Kind]:
        node, kind = self.factor()
        while t := self._accept("*"):
            rhs, rk = self.factor()
            if isinstance(node, (IntLit, RealLit)):
                node = MulConst(node, rhs)
            elif isinstance(rhs, (IntLit, RealLit)):
                node = MulConst(rhs, node)
            else:
                raise LangError("multiplication requires a literal factor", t.line, t.col)
            kind = self._same_kind(kind, rk, t)
        return node, kind

    def factor(self) -> tuple[Expr, Kind]:
        t = self._peek()
        if t.kind == "PUNCT" and t.text == "-":
            self._advance()
            lit = self._peek()
            if lit.kind == "INT":
                self._advance()
                return IntLit(-lit.value), Kind.INT
            if lit.kind == "REAL":
                self._advance()
                return RealLit(-lit.value), Kind.REAL
            raise LangError("'-' must precede a numeric literal", t.line, t.col)
        if t.kind == "INT":
            self._advance()
            return IntLit(t.value), Kind.INT
        if t.kind == "REAL":
            self._advance()
            return RealLit(t.value), Kind.REAL
        if t.kind == "IDENT" and t.text in ("coin_flip", "uniform"):
            self._advance()
            self._expect("(")
            self._expect(")")
            if t.text == "coin_flip":
                return CoinFlip(self._site()), Kind.INT
            return Uniform(self._site()), Kind.REAL
        if t.kind == "IDENT":
            kind = self._kinds.get(t.text)
            if kind is None:
                raise LangError(f"undeclared variable '{t.text}'", t.line, t.col)
            self._advance()
            return Var(t.text), kind
        if t.kind == "PUNCT" and t.text == "(":
            self._advance()
            node, kind = self.expr()
            self._expect(")")
            return node, kind
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


def parse_condition(text: str, kinds: dict[str, Kind]) -> BoolExpr:
    """Parse a standalone boolean expression over already-declared variables."""

    parser = _Parser(_tokenize(text), kinds)
    cond = parser.bool_expr()
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


def reads(node: Expr | BoolExpr | Stmt):
    """Variable and generator leaves read by an expression, a condition or
    one statement's own expression or guard (not its nested blocks), left
    to right."""

    if isinstance(node, (Var, CoinFlip, Uniform)):
        yield node
    elif isinstance(node, (Add, Sub, Cmp, And, Or)):
        yield from reads(node.left)
        yield from reads(node.right)
    elif isinstance(node, (MulConst, Assign)):
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
                if isinstance(e, (CoinFlip, Uniform)):
                    found.append(
                        GeneratorSite(len(found) + 1, e.site, isinstance(e, CoinFlip), in_loop)
                    )
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


def _expr_str(expr: Expr) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, RealLit):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, CoinFlip):
        return "coin_flip()"
    if isinstance(expr, Uniform):
        return "uniform()"
    if isinstance(expr, (Add, Sub)):
        op = "+" if isinstance(expr, Add) else "-"
        right = _expr_str(expr.right)
        if isinstance(expr.right, (Add, Sub)):
            right = f"({right})"
        return f"{_expr_str(expr.left)} {op} {right}"
    if isinstance(expr, MulConst):
        inner = _expr_str(expr.expr)
        if isinstance(expr.expr, (Add, Sub, MulConst)):
            inner = f"({inner})"
        return f"{_expr_str(expr.coeff)} * {inner}"
    raise LangError(f"unknown expression node {type(expr).__name__}")


def _bool_str(cond: BoolExpr) -> str:
    # && and || group to the left and && binds tighter, so a right operand
    # of the same operator, or an || under &&, needs parentheses
    if isinstance(cond, Cmp):
        return f"{_expr_str(cond.left)} {cond.op} {_expr_str(cond.right)}"
    if isinstance(cond, And):
        return f"{_bool_group(cond.left, Or)} && {_bool_group(cond.right, (And, Or))}"
    if isinstance(cond, Or):
        return f"{_bool_str(cond.left)} || {_bool_group(cond.right, Or)}"
    raise LangError(f"unknown condition node {type(cond).__name__}")


def _bool_group(cond: BoolExpr, grouped) -> str:
    text = _bool_str(cond)
    return f"({text})" if isinstance(cond, grouped) else text


def _stmt_lines(stmt: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(stmt, Assign):
        e = stmt.expr
        if isinstance(e, (Add, Sub)) and e.left == Var(stmt.name):  # x = x + e prints x += e
            op = "+" if isinstance(e, Add) else "-"
            return [f"{pad}{stmt.name} {op}= {_expr_str(e.right)};"]
        return [f"{pad}{stmt.name} = {_expr_str(e)};"]
    if isinstance(stmt, Know):
        return [f"{pad}know ({_bool_str(stmt.cond)});"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({_bool_str(stmt.cond)}) {{"]
        for s in stmt.then:
            lines.extend(_stmt_lines(s, indent + 1))
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for s in stmt.orelse:
                lines.extend(_stmt_lines(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({_bool_str(stmt.cond)}) {{"]
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
        lines.append(f"know ({_bool_str(program.outcome)});")
    return "\n".join(lines) + "\n"
