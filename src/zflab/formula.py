"""Bounded first-order formulas over hereditarily finite sets.

The language has set-membership and equality atoms, the usual connectives,
and quantifiers bounded by a set-denoting term.  Evaluation is classical over
the finite domain named by each quantifier bound: a universal over the empty
set is true, an existential false.  The unique-existence quantifier is a
primitive, not sugar.

Concrete syntax::

    formula := quant | iff
    quant   := ('forall' | 'exists' | 'exists!') IDENT 'in' term '.' formula
    iff     := imp ('<->' imp)*
    imp     := or ('->' or)*
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | atom
    atom    := term 'in' term | term '=' term | '(' formula ')'
             | 'true' | 'false'
    term    := IDENT | setlit | '(' term ',' term ')'
    setlit  := '{' (term (',' term)*)? '}'

'&' , '|' and '<->' chains associate left, '->' associates right, and a
quantifier body extends as far right as possible.  Pair terms denote the
pair-set encoding {{x},{x,y}}.  A set literal whose elements are all ground
parses to a Literal; one containing variables stays symbolic (SetTerm).

One table defines the connectives: ``_BINARY`` gives each binary
connective's token, precedence level and truth function, and
``_QUANTIFIERS`` each quantifier's keyword and aggregate.  The parser, the
evaluator, :func:`free_vars` and the printer all read them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import ParseError, UnboundVariable
from .hfs import EMPTY, HfSet, is_member, make_set, ordered_pair

__all__ = [
    "And", "BoolConst", "Equals", "ExistsIn", "ExistsUniqueIn", "ForallIn",
    "Formula", "Iff", "Implies", "Literal", "MemberOf", "Not", "Or",
    "PairTerm", "SetTerm", "Term", "Var", "eval_formula", "eval_term",
    "format_formula", "format_term", "free_vars", "parse_formula",
    "separation",
]

Env = Mapping[str, HfSet]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Literal:
    value: HfSet


@dataclass(frozen=True)
class PairTerm:
    first: "Term"
    second: "Term"


@dataclass(frozen=True)
class SetTerm:
    elems: tuple


Term = Union[Var, Literal, PairTerm, SetTerm]


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class MemberOf:
    item: Term
    container: Term


@dataclass(frozen=True)
class Equals:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ForallIn:
    var: str
    domain: Term
    body: "Formula"


@dataclass(frozen=True)
class ExistsIn:
    var: str
    domain: Term
    body: "Formula"


@dataclass(frozen=True)
class ExistsUniqueIn:
    var: str
    domain: Term
    body: "Formula"


Formula = Union[
    BoolConst, MemberOf, Equals, Not, And, Or, Implies, Iff,
    ForallIn, ExistsIn, ExistsUniqueIn,
]

_MISSING = object()


def _exactly_one(values) -> bool:
    """Is exactly one of ``values`` true?  Stops reading at the second hit."""
    values = iter(values)
    return any(values) and not any(values)


# Precedence levels, loosest first: a quantifier body, the binary
# connectives at the levels _BINARY gives them, then negation.  The printer
# parenthesizes a subformula that binds more loosely than its position needs.
_QUANT = 0

# Each binary connective: its token, its precedence level, and its truth
# function.  The truth function takes the left value and a thunk for the
# right one, so '&', '|' and '->' evaluate their right side only when it
# decides the result.  '->' associates right, the others left.
_BINARY = {
    Iff: ("<->", 1, lambda left, right: left == right()),
    Implies: ("->", 2, lambda left, right: not left or right()),
    Or: ("|", 3, lambda left, right: left or right()),
    And: ("&", 4, lambda left, right: left and right()),
}
_UNARY = len(_BINARY) + 1

# Each quantifier: its keyword, and its aggregate over the body's truth
# values at the domain's elements, read lazily so it stops once decided.
_QUANTIFIERS = {
    ForallIn: ("forall", all),
    ExistsIn: ("exists", any),
    ExistsUniqueIn: ("exists!", _exactly_one),
}


def eval_term(t: Term, env: Env) -> HfSet:
    """Denotation of a term under the environment."""
    return _eval_term(t, dict(env))


def _eval_term(t, env) -> HfSet:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariable(f"variable {t.name!r} is not bound") from None
    if isinstance(t, Literal):
        return t.value
    if isinstance(t, PairTerm):
        return ordered_pair(_eval_term(t.first, env), _eval_term(t.second, env))
    if isinstance(t, SetTerm):
        return make_set(_eval_term(e, env) for e in t.elems)
    raise TypeError(f"not a term: {t!r}")


def eval_formula(f: Formula, env: Env) -> bool:
    """Truth value of ``f`` under ``env``; every free variable must be bound."""
    return _eval(f, dict(env))


def _eval(f, env) -> bool:
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, MemberOf):
        return is_member(_eval_term(f.item, env), _eval_term(f.container, env))
    if isinstance(f, Equals):
        return _eval_term(f.left, env) == _eval_term(f.right, env)
    if isinstance(f, Not):
        return not _eval(f.body, env)
    if type(f) in _BINARY:
        truth = _BINARY[type(f)][2]
        return truth(_eval(f.left, env), lambda: _eval(f.right, env))
    if type(f) not in _QUANTIFIERS:
        raise TypeError(f"not a formula: {f!r}")
    domain = _eval_term(f.domain, env)
    old = env.get(f.var, _MISSING)
    try:
        return _QUANTIFIERS[type(f)][1](_body_truths(f, domain, env))
    finally:
        if old is _MISSING:
            env.pop(f.var, None)
        else:
            env[f.var] = old


def _body_truths(f, domain: HfSet, env) -> Iterator[bool]:
    """The quantifier body's truth value with its variable bound to each
    element of ``domain`` in turn."""
    for x in domain.children:
        env[f.var] = x
        yield _eval(f.body, env)


def free_vars(f) -> frozenset:
    """Free variable names of a formula or term."""
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (Literal, BoolConst)):
        return frozenset()
    if isinstance(f, PairTerm):
        return free_vars(f.first) | free_vars(f.second)
    if isinstance(f, SetTerm):
        out = frozenset()
        for e in f.elems:
            out |= free_vars(e)
        return out
    if isinstance(f, MemberOf):
        return free_vars(f.item) | free_vars(f.container)
    if isinstance(f, Equals) or type(f) in _BINARY:
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.body)
    if type(f) in _QUANTIFIERS:
        return free_vars(f.domain) | (free_vars(f.body) - {f.var})
    raise TypeError(f"not a formula or term: {f!r}")


def separation(a: HfSet, var: str, f: Formula, env: Env = ()) -> HfSet:
    """The subset of ``a`` whose elements satisfy ``f`` with ``var`` bound."""
    scope = dict(env)
    kept = []
    for x in a.children:
        scope[var] = x
        if _eval(f, scope):
            kept.append(x)
    return make_set(kept)


# --- concrete syntax ---------------------------------------------------------

_TOKEN_RE = re.compile(r"<->|->|[(){},.=&|!]|[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"forall", "exists", "in", "true", "false"}


def _is_ident(tok: str) -> bool:
    return (tok[:1].isalpha() or tok[:1] == "_") and tok not in _KEYWORDS


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    tokens.append(("", n))  # end marker
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def ident(self) -> str:
        if not _is_ident(self.peek()):
            raise ParseError("expected identifier", self.pos())
        return self.take()

    # formula := quant | iff
    def formula(self):
        if self.peek() not in ("forall", "exists"):
            return self.binary(_QUANT + 1)
        kw = self.take()
        if kw == "exists" and self.peek() == "!":
            kw += self.take()
        quantifier = next(cls for cls, (word, _) in _QUANTIFIERS.items() if word == kw)
        var = self.ident()
        self.expect("in")
        domain = self.term()
        self.expect(".")
        return quantifier(var, domain, self.formula())

    # The chain of the connective at ``level``, over operands one level tighter.
    def binary(self, level: int):
        if level == _UNARY:
            return self.unary()
        connective, tok = next((cls, t) for cls, (t, lv, _) in _BINARY.items() if lv == level)
        operands = [self.binary(level + 1)]
        while self.peek() == tok:
            self.take()
            operands.append(self.binary(level + 1))
        if connective is Implies:
            return functools.reduce(lambda right, left: Implies(left, right), reversed(operands))
        return functools.reduce(connective, operands)

    def unary(self):
        if self.peek() == "!":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok == "true":
            self.take()
            return BoolConst(True)
        if tok == "false":
            self.take()
            return BoolConst(False)
        if tok == "(":
            # Ambiguous: pair term or parenthesized formula.  Try the term
            # reading first and fall back on failure.
            saved = self.i
            try:
                return self.term_atom()
            except ParseError:
                self.i = saved
            self.take()
            node = self.formula()
            self.expect(")")
            return node
        if tok == "{" or _is_ident(tok):
            return self.term_atom()
        raise ParseError("expected a formula atom", self.pos())

    def term_atom(self):
        left = self.term()
        tok = self.peek()
        if tok == "in":
            self.take()
            return MemberOf(left, self.term())
        if tok == "=":
            self.take()
            return Equals(left, self.term())
        raise ParseError("expected 'in' or '='", self.pos())

    # term := IDENT | setlit | '(' term ',' term ')'
    def term(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            first = self.term()
            self.expect(",")
            second = self.term()
            self.expect(")")
            return PairTerm(first, second)
        if tok == "{":
            return self.setlit()
        if _is_ident(tok):
            return Var(self.take())
        raise ParseError("expected a term", self.pos())

    def setlit(self):
        self.expect("{")
        elems = []
        if self.peek() == "}":
            self.take()
            return Literal(EMPTY)
        while True:
            elems.append(self.term())
            tok = self.peek()
            if tok == ",":
                self.take()
                continue
            if tok == "}":
                self.take()
                break
            raise ParseError("expected ',' or '}'", self.pos())
        if all(isinstance(e, Literal) for e in elems):
            return Literal(make_set(e.value for e in elems))
        return SetTerm(tuple(elems))


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises ParseError with an offset on bad input."""
    p = _Parser(text)
    try:
        node = p.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.pos()) from None
    if p.peek() != "":
        raise ParseError("trailing input after formula", p.pos())
    return node


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Literal):
        return repr(t.value)
    if isinstance(t, PairTerm):
        return f"({format_term(t.first)},{format_term(t.second)})"
    if isinstance(t, SetTerm):
        return "{" + ",".join(format_term(e) for e in t.elems) + "}"
    raise TypeError(f"not a term: {t!r}")


def format_formula(f: Formula) -> str:
    """Text whose parse is structurally equal to ``f``."""
    return _fmt(f, _QUANT)


def _fmt(f, min_level: int) -> str:
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, MemberOf):
        return f"{format_term(f.item)} in {format_term(f.container)}"
    if isinstance(f, Equals):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if type(f) in _QUANTIFIERS:
        level, kw = _QUANT, _QUANTIFIERS[type(f)][0]
        text = f"{kw} {f.var} in {format_term(f.domain)} . {_fmt(f.body, _QUANT)}"
    elif type(f) in _BINARY:
        tok, level, _ = _BINARY[type(f)]
        # Only the operand on the side the connective associates toward may
        # sit at its own level unparenthesized.
        left, right = (level + 1, level) if type(f) is Implies else (level, level + 1)
        text = f"{_fmt(f.left, left)} {tok} {_fmt(f.right, right)}"
    elif isinstance(f, Not):
        level, text = _UNARY, f"!{_fmt(f.body, _UNARY)}"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({text})" if level < min_level else text
