"""Formula language: propositional core plus the norm-level wrappers.

The propositional layer has atoms, truth constants, negation, disjunction
and conjunction.  Implication (``->``) and biconditional (``<->``) are
parse-time sugar rewritten into negation/disjunction, so two texts that
differ only in sugar parse to structurally equal formulas.

On top of the propositional layer sit three wrapper shapes that may occur
inside argument constituent sets but never nest:

* ``Box(A)``      -- "A is settled/unalterable"
* ``Ob(A)``       -- "A is obligatory, all things considered"
* ``Doubt(A)``    -- "detaching A is doubtful" (attack-only conclusions)
* ``Cond(A, B)``  -- a conditional norm "if A then prima facie B",
  optionally carrying a positive integer priority

Formulas are interned: structurally equal constructions return the same
object, so equality is pointer equality and formulas are cheap dictionary
keys.  Rendering is injective and ``parse_formula(render(f))`` returns
``f`` itself.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

__all__ = [
    "Formula",
    "Atom",
    "Top",
    "Bottom",
    "Not",
    "Or",
    "And",
    "Box",
    "Ob",
    "Doubt",
    "Cond",
    "TOP",
    "BOTTOM",
    "atom",
    "neg",
    "disj",
    "conj2",
    "box",
    "ob",
    "doubt",
    "cond",
    "complement",
    "conflicting",
    "conjoin",
    "is_conjunction_over",
    "atoms_of",
    "render",
    "parse_formula",
    "ParseError",
]


class ParseError(ValueError):
    """Raised on malformed formula or knowledge-base text."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


_INTERN: dict = {}


class Formula:
    """Base class for all interned formula nodes."""

    __slots__ = ("_render", "_atoms")

    # Subclasses set these at class level.
    is_prop = False

    def __repr__(self):
        return f"<{type(self).__name__} {render(self)}>"

    def __str__(self):
        return render(self)

    def __lt__(self, other):
        return render(self) < render(other)


def _interned(key, build):
    node = _INTERN.get(key)
    if node is None:
        node = build()
        node._render = None
        node._atoms = None
        _INTERN[key] = node
    return node


class Atom(Formula):
    __slots__ = ("name",)
    is_prop = True


class Top(Formula):
    __slots__ = ()
    is_prop = True


class Bottom(Formula):
    __slots__ = ()
    is_prop = True


class Not(Formula):
    __slots__ = ("body",)
    is_prop = True


class Or(Formula):
    __slots__ = ("left", "right")
    is_prop = True


class And(Formula):
    __slots__ = ("left", "right")
    is_prop = True


class Box(Formula):
    """A settled constraint over a propositional body."""

    __slots__ = ("body",)


class Ob(Formula):
    """An all-things-considered obligation over a propositional body."""

    __slots__ = ("body",)


class Doubt(Formula):
    """A doubt conclusion over a propositional body (attack-only)."""

    __slots__ = ("body",)


class Cond(Formula):
    """A conditional norm, optionally prioritized (higher = stronger)."""

    __slots__ = ("antecedent", "consequent", "priority")


_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_KEYWORDS = {"true", "false"}


def atom(name: str) -> Atom:
    if name in _KEYWORDS or not _ATOM_RE.match(name):
        raise ValueError(f"invalid atom name {name!r}")

    def build():
        node = Atom.__new__(Atom)
        node.name = name
        return node

    return _interned(("a", name), build)


def _const(cls, tag):
    def build():
        return cls.__new__(cls)

    return _interned((tag,), build)


TOP: Top = _const(Top, "T")
BOTTOM: Bottom = _const(Bottom, "F")


def neg(body: Formula) -> Not:
    _require_prop(body)

    def build():
        node = Not.__new__(Not)
        node.body = body
        return node

    return _interned(("~", body), build)


def disj(left: Formula, right: Formula) -> Or:
    _require_prop(left)
    _require_prop(right)

    def build():
        node = Or.__new__(Or)
        node.left = left
        node.right = right
        return node

    return _interned(("|", left, right), build)


def conj2(left: Formula, right: Formula) -> And:
    _require_prop(left)
    _require_prop(right)

    def build():
        node = And.__new__(And)
        node.left = left
        node.right = right
        return node

    return _interned(("&", left, right), build)


def box(body: Formula) -> Box:
    _require_prop(body)

    def build():
        node = Box.__new__(Box)
        node.body = body
        return node

    return _interned(("[]", body), build)


def ob(body: Formula) -> Ob:
    _require_prop(body)

    def build():
        node = Ob.__new__(Ob)
        node.body = body
        return node

    return _interned(("O", body), build)


def doubt(body: Formula) -> Doubt:
    _require_prop(body)

    def build():
        node = Doubt.__new__(Doubt)
        node.body = body
        return node

    return _interned(("(.)", body), build)


def cond(antecedent: Formula, consequent: Formula,
         priority: Optional[int] = None) -> Cond:
    _require_prop(antecedent)
    _require_prop(consequent)
    if priority is not None and priority < 1:
        raise ValueError("priority must be a positive integer")

    def build():
        node = Cond.__new__(Cond)
        node.antecedent = antecedent
        node.consequent = consequent
        node.priority = priority
        return node

    return _interned(("=>", antecedent, consequent, priority), build)


def _require_prop(f: Formula):
    if not f.is_prop:
        raise ValueError(f"propositional formula required, got {f!r}")


def implies(a: Formula, b: Formula) -> Formula:
    """Material implication, rewritten to ~a | b."""
    return disj(neg(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    """Biconditional, rewritten to (~a | b) & (~b | a)."""
    return conj2(implies(a, b), implies(b, a))


# ---------------------------------------------------------------------------
# complement and conflict matching


def complement(f: Formula) -> Formula:
    """Syntactic complement: strip one outer negation from an odd stack,
    otherwise add one.

    The parity rule makes the operation an involution on every formula
    (strip-only would send both ``~~p`` and ``p`` to sides of the same
    pair and lose involutivity).
    """
    _require_prop(f)
    depth = 0
    g = f
    while isinstance(g, Not):
        depth += 1
        g = g.body
    if depth % 2 == 1:
        return f.body  # type: ignore[attr-defined]
    return neg(f)


def conflicting(a: Formula, b: Formula) -> bool:
    """Whether two propositional formulas are syntactic complements
    (a = ~b or b = ~a).  Symmetric; wider than ``complement`` matching."""
    return (isinstance(a, Not) and a.body is b) or (
        isinstance(b, Not) and b.body is a
    )


# ---------------------------------------------------------------------------
# canonical conjunctions over formula sets


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Canonical conjunction of a nonempty set: conjuncts sorted by their
    rendering, combined left-associatively.  Deterministic, so equal sets
    always produce the same formula."""
    ordered = sorted(set(formulas), key=render)
    if not ordered:
        raise ValueError("conjoin requires a nonempty set")
    acc = ordered[0]
    for f in ordered[1:]:
        acc = conj2(acc, f)
    return acc


def is_conjunction_over(target: Formula, pool: frozenset) -> bool:
    """Whether ``target`` equals ``conjoin(S)`` for some nonempty S ⊆ pool.

    Walks the left spine of the canonical shape; at each step the right
    conjunct must be a pool member rendering strictly above everything to
    its left.  Both readings of an ambiguous spine (element vs. split) are
    explored.
    """

    def match(t: Formula, upper: Optional[str]) -> bool:
        if t in pool and (upper is None or render(t) < upper):
            return True
        if isinstance(t, And):
            r = t.right
            if r in pool and (upper is None or render(r) < upper):
                if match(t.left, render(r)):
                    return True
        return False

    return match(target, None)


# ---------------------------------------------------------------------------
# rendering


_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3


def render(f: Formula) -> str:
    """ASCII rendering; injective and re-parseable."""
    cached = f._render
    if cached is None:
        cached = _render(f)
        f._render = cached
    return cached


def _wrap(f: Formula, min_prec: int) -> str:
    text = render(f)
    if _prec(f) < min_prec:
        return f"({text})"
    return text


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    return _PREC_UNARY


def _render(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "~" + _wrap(f.body, _PREC_UNARY)
    if isinstance(f, Or):
        return f"{_wrap(f.left, _PREC_OR)} | {_wrap(f.right, _PREC_OR + 1)}"
    if isinstance(f, And):
        return f"{_wrap(f.left, _PREC_AND)} & {_wrap(f.right, _PREC_AND + 1)}"
    if isinstance(f, Box):
        return "[]" + _wrap(f.body, _PREC_UNARY)
    if isinstance(f, Ob):
        return "O " + render(f.body)
    if isinstance(f, Doubt):
        return "(.)" + _wrap(f.body, _PREC_UNARY)
    if isinstance(f, Cond):
        arrow = "=>" if f.priority is None else f"=>[{f.priority}]"
        return f"{render(f.antecedent)} {arrow} {render(f.consequent)}"
    raise TypeError(f"unknown formula node {f!r}")


def atoms_of(f: Formula) -> frozenset:
    """Names of the atoms occurring in a formula (any layer)."""
    cached = f._atoms
    if cached is not None:
        return cached
    if isinstance(f, Atom):
        result = frozenset((f.name,))
    elif isinstance(f, (Top, Bottom)):
        result = frozenset()
    elif isinstance(f, Not):
        result = atoms_of(f.body)
    elif isinstance(f, (Or, And)):
        result = atoms_of(f.left) | atoms_of(f.right)
    elif isinstance(f, (Box, Ob, Doubt)):
        result = atoms_of(f.body)
    elif isinstance(f, Cond):
        result = atoms_of(f.antecedent) | atoms_of(f.consequent)
    else:
        raise TypeError(f"unknown formula node {f!r}")
    f._atoms = result
    return result


# ---------------------------------------------------------------------------
# parsing


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str, line: int = 1, column: int = 1):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        start_col = column
        if ch == "(":
            tokens.append(_Token("lparen", "(", line, start_col))
            i += 1
            column += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ")", line, start_col))
            i += 1
            column += 1
        elif ch == "~":
            tokens.append(_Token("not", "~", line, start_col))
            i += 1
            column += 1
        elif ch == "&":
            tokens.append(_Token("and", "&", line, start_col))
            i += 1
            column += 1
        elif ch == "|":
            tokens.append(_Token("or", "|", line, start_col))
            i += 1
            column += 1
        elif text.startswith("<->", i):
            tokens.append(_Token("iff", "<->", line, start_col))
            i += 3
            column += 3
        elif text.startswith("->", i):
            tokens.append(_Token("imp", "->", line, start_col))
            i += 2
            column += 2
        elif ch.islower() and ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, start_col))
            column += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("eof", "", line, column))
    return tokens


class _Parser:
    """Recursive-descent parser; precedence ~ > & > | > -> > <->, all
    binary operators left-associative."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind):
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def parse_formula(self) -> Formula:
        node = self.parse_imp()
        while self.peek().kind == "iff":
            self.advance()
            node = iff(node, self.parse_imp())
        return node

    def parse_imp(self) -> Formula:
        node = self.parse_or()
        while self.peek().kind == "imp":
            self.advance()
            node = implies(node, self.parse_or())
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek().kind == "or":
            self.advance()
            node = disj(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek().kind == "and":
            self.advance()
            node = conj2(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        token = self.peek()
        if token.kind == "not":
            self.advance()
            return neg(self.parse_unary())
        if token.kind == "lparen":
            self.advance()
            node = self.parse_formula()
            self.expect("rparen")
            return node
        if token.kind == "ident":
            self.advance()
            return atom(token.text)
        if token.kind == "true":
            self.advance()
            return TOP
        if token.kind == "false":
            self.advance()
            return BOTTOM
        raise ParseError(
            f"expected a formula, found {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )


def parse_formula(text: str, line: int = 1, column: int = 1) -> Formula:
    """Parse a propositional formula from its ASCII surface syntax."""
    if not text.strip():
        raise ParseError("empty formula", line, column)
    parser = _Parser(_tokenize(text, line, column))
    node = parser.parse_formula()
    parser.expect("eof")
    return node
