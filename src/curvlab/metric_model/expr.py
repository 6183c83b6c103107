"""A small expression language for metric entries in chart coordinates.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | variable | 'conj' '(' expr ')' | 'abs2' '(' expr ')'
            | '(' expr ')' | '-' base

Numbers are decimal literals with optional exponent; a trailing ``i`` makes
the literal imaginary (``2i``, ``0.5i``).  Variables are ``z1`` through
``zN``.  ``conj`` is complex conjugation and ``abs2(w)`` is ``w * conj(w)``;
each operation has one node kind, so ``conj(z2)`` parses to ``Conj(Var(1))``.
``^`` takes a literal, optionally negated, integer exponent and binds tighter
than ``*``; unary minus binds tighter still, so ``-z1^2`` is ``(-z1)^2``.

The printer emits text that parses back to the same tree for any tree the
parser itself can produce.  Constants with both real and imaginary part, or
negative constants, print as evaluation-equivalent expressions instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence, Union

import numpy as np

from ..errors import ConfigError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Conj",
    "Abs2",
    "Neg",
    "parse_expr",
    "to_text",
    "eval_expr",
    "substitute",
    "is_holomorphic",
    "max_var_index",
    "holomorphic_derivative",
]


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Conj:
    arg: "Expr"


@dataclass(frozen=True)
class Abs2:
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


Expr = Union[Const, Var, Add, Sub, Mul, Div, Pow, Conj, Abs2, Neg]


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    value: complex
    line: int
    col: int


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"z([0-9]+)$")
_SYMBOLS = set("+-*/^()")


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    line = 1
    line_start = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        col = pos - line_start + 1
        if ch in _SYMBOLS:
            yield _Token(ch, ch, 0j, line, col)
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            literal = m.group(0)
            pos = m.end()
            value = complex(float(literal))
            if pos < size and text[pos] == "i" and not (
                pos + 1 < size and (text[pos + 1].isalnum() or text[pos + 1] == "_")
            ):
                value = value * 1j
                pos += 1
            yield _Token("number", literal, value, line, col)
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            word = m.group(0)
            pos = m.end()
            var = _VAR_RE.match(word)
            if var:
                index = int(var.group(1))
                if index < 1:
                    raise ConfigError(
                        f"line {line}, col {col}: variable index must be >= 1, got {word}"
                    )
                yield _Token("var", word, complex(index - 1), line, col)
            elif word in ("conj", "abs2"):
                yield _Token(word, word, 0j, line, col)
            else:
                raise ConfigError(f"line {line}, col {col}: unknown identifier '{word}'")
            continue
        raise ConfigError(f"line {line}, col {col}: unexpected character '{ch}'")
    yield _Token("end", "", 0j, line, size - line_start + 1)


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ConfigError(
                f"line {token.line}, col {token.col}: expected '{kind}', "
                f"got '{token.text or 'end of input'}'"
            )
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ConfigError(
                f"line {tail.line}, col {tail.col}: unexpected trailing '{tail.text}'"
            )
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            right = self.factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            token = self.expect("number")
            value = token.value
            if value.imag != 0 or value.real != int(value.real):
                raise ConfigError(
                    f"line {token.line}, col {token.col}: exponent must be an integer"
                )
            node = Pow(node, sign * int(value.real))
        return node

    def base(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Const(token.value)
        if token.kind == "var":
            self.advance()
            return Var(int(token.value.real))
        if token.kind == "-":
            self.advance()
            return Neg(self.base())
        if token.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if token.kind in ("conj", "abs2"):
            self.advance()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Abs2(inner) if token.kind == "abs2" else Conj(inner)
        raise ConfigError(
            f"line {token.line}, col {token.col}: expected a value, "
            f"got '{token.text or 'end of input'}'"
        )


def parse_expr(text: str) -> Expr:
    """Parse expression text; raises :class:`ConfigError` with line and column."""
    return _Parser(text).parse()


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _const_text(value: complex) -> str:
    re_part, im_part = value.real, value.imag
    if im_part == 0:
        return _fmt_real(re_part)
    if re_part == 0:
        return _fmt_real(im_part) + "i"
    sign = "+" if im_part >= 0 else "-"
    return f"({_fmt_real(re_part)} {sign} {_fmt_real(abs(im_part))}i)"


_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_POW = 3
_LEVEL_NEG = 4
_LEVEL_ATOM = 5


def _level(node: Expr) -> int:
    if isinstance(node, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(node, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(node, Pow):
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _render(node: Expr, required: int) -> str:
    text: str
    if isinstance(node, Const):
        text = _const_text(node.value)
    elif isinstance(node, Var):
        text = f"z{node.index + 1}"
    elif isinstance(node, Conj):
        text = f"conj({_render(node.arg, _LEVEL_ADD)})"
    elif isinstance(node, Abs2):
        text = f"abs2({_render(node.arg, _LEVEL_ADD)})"
    elif isinstance(node, Neg):
        text = "-" + _render(node.arg, _LEVEL_NEG)
    elif isinstance(node, Pow):
        text = f"{_render(node.base, _LEVEL_NEG)}^{node.exponent}"
    elif isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        text = (
            f"{_render(node.left, _LEVEL_ADD)} {op} {_render(node.right, _LEVEL_ADD + 1)}"
        )
    elif isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        text = (
            f"{_render(node.left, _LEVEL_MUL)} {op} {_render(node.right, _LEVEL_MUL + 1)}"
        )
    else:
        raise ConfigError(f"unknown expression node {node!r}")
    if _level(node) < required:
        return f"({text})"
    return text


def to_text(node: Expr) -> str:
    """Render a tree to DSL text; inverse of :func:`parse_expr` on parser output."""
    return _render(node, _LEVEL_ADD)


class _Jet:
    """Second-order Wirtinger jet of a scalar field at ``P`` points in ``m`` variables.

    ``v`` has shape ``(P,)``, ``d[p, i] = d_i f`` and ``dbar[p, i] = dbar_i f``
    have ``(P, m)``, and ``dd[p, i, j] = d_i dbar_j f`` has ``(P, m, m)``.
    Python scalars act as constants.  Sums, products, quotients, integer
    powers and conjugation close on these parts, so no pure second
    derivatives are carried; each value is computed as the plain fold does.
    """

    __slots__ = ("v", "d", "dbar", "dd")

    def __init__(self, v, d, dbar, dd) -> None:
        self.v, self.d, self.dbar, self.dd = v, d, dbar, dd

    @classmethod
    def coordinates(cls, z: np.ndarray) -> "_Jet":
        """Jets of the coordinates at points ``z`` of shape ``(P, m)``; ``[..., k]`` is ``z_k``."""
        zero = np.zeros(z.shape + z.shape[-1:])
        return cls(z, zero + np.eye(z.shape[-1]), zero, np.zeros(zero.shape + z.shape[-1:]))

    def __getitem__(self, key: tuple) -> "_Jet":
        s = (slice(None),)
        return _Jet(self.v[key], self.d[key + s], self.dbar[key + s], self.dd[key + s + s])

    def _each(self, f) -> "_Jet":
        return _Jet(f(self.v), f(self.d), f(self.dbar), f(self.dd))

    def __add__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return _Jet(self.v + other, self.d, self.dbar, self.dd)
        return _Jet(self.v + other.v, self.d + other.d, self.dbar + other.dbar, self.dd + other.dd)

    __radd__ = __add__

    def __neg__(self) -> "_Jet":
        return self._each(np.negative)

    def __sub__(self, other) -> "_Jet":
        return self + -other

    def __rsub__(self, other) -> "_Jet":
        return -self + other

    def __mul__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return self._each(lambda part: part * other)
        a, b = self.v[:, None], other.v[:, None]
        return _Jet(self.v * other.v, self.d * b + a * other.d, self.dbar * b + a * other.dbar,
                    self.dd * b[:, None] + a[:, None] * other.dd
                    + _outer(self.d, other.dbar) + _outer(other.d, self.dbar))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return self._each(lambda part: part / other)
        # q = a / b: d q = d a / b - a d b / b^2 and d dbar q = d dbar a / b
        # - (d a dbar b + d b dbar a + a d dbar b) / b^2 + 2 a d b dbar b / b^3
        a, b = np.asarray(self.v)[..., None], other.v[:, None]
        b2 = b * b
        return _Jet(self.v / other.v, self.d / b - a * other.d / b2,
                    self.dbar / b - a * other.dbar / b2,
                    self.dd / b[:, None] - (_outer(self.d, other.dbar) + _outer(other.d, self.dbar)
                                            + a[..., None] * other.dd) / b2[:, None]
                    + 2 * a[..., None] * _outer(other.d, other.dbar) / (b2 * b)[:, None])

    def __rtruediv__(self, other) -> "_Jet":
        zero = np.zeros_like(self.d)
        return _Jet(other, zero, zero, np.zeros_like(self.dd)) / self

    def __pow__(self, k: int):
        if k in (0, 1):  # never form v^(k-2), which is infinite at v = 0
            return self if k else 1 + 0j
        p1 = (k * self.v ** (k - 1))[:, None]
        p2 = (k * (k - 1) * self.v ** (k - 2))[:, None, None]
        return _Jet(self.v**k, p1 * self.d, p1 * self.dbar,
                    p1[:, None] * self.dd + p2 * _outer(self.d, self.dbar))

    def conjugate(self) -> "_Jet":
        return _Jet(self.v.conjugate(), self.dbar.conjugate(), self.d.conjugate(),
                    self.dd.conjugate().swapaxes(-1, -2))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _abs2(w):
    """``w * conj(w)`` with an exactly real value ``re^2 + im^2``."""
    if not isinstance(w, _Jet):
        return w.real * w.real + w.imag * w.imag
    out = w * w.conjugate()
    out.v = _abs2(w.v)
    return out


def eval_expr(node: Expr, z):
    """Evaluate at points ``z`` of shape ``(..., n)``, one value per point.

    The tree is folded with Python operators over the leaves ``z[..., k]``,
    so for the coordinate jets of a stack of points the fold gives the
    entry's Wirtinger jet.  Constant subtrees stay Python numbers; a
    division by zero among them raises :class:`ConfigError`.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return z[..., node.index]
    if isinstance(node, Add):
        return eval_expr(node.left, z) + eval_expr(node.right, z)
    if isinstance(node, Sub):
        return eval_expr(node.left, z) - eval_expr(node.right, z)
    if isinstance(node, Mul):
        return eval_expr(node.left, z) * eval_expr(node.right, z)
    if isinstance(node, (Div, Pow)):
        try:
            if isinstance(node, Pow):
                return eval_expr(node.base, z) ** node.exponent
            return eval_expr(node.left, z) / eval_expr(node.right, z)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"constant '{to_text(node)}' cannot be evaluated: {exc}") from exc
    if isinstance(node, Conj):
        return eval_expr(node.arg, z).conjugate()
    if isinstance(node, Abs2):
        return _abs2(eval_expr(node.arg, z))
    if isinstance(node, Neg):
        return -eval_expr(node.arg, z)
    raise ConfigError(f"unknown expression node {node!r}")


_OPERANDS = {
    Const: lambda node: (),
    Var: lambda node: (),
    **dict.fromkeys((Add, Sub, Mul, Div), attrgetter("left", "right")),
    Pow: lambda node: (node.base,),
    **dict.fromkeys((Conj, Abs2, Neg), lambda node: (node.arg,)),
}


def _operands(node: Expr) -> tuple:
    """The subtrees of ``node`` in field order; the one place that lists each kind's.

    ``Pow``'s exponent is an integer, not a subtree.
    """
    try:
        operands = _OPERANDS[type(node)]
    except KeyError:
        raise ConfigError(f"unknown expression node {node!r}") from None
    return operands(node)


def substitute(node: Expr, subs: Sequence[Expr]) -> Expr:
    """Replace ``z_k`` by ``subs[k]``, so ``conj(z_k)`` becomes ``conj(subs[k])``."""
    if isinstance(node, Var):
        return subs[node.index]
    operands = [substitute(operand, subs) for operand in _operands(node)]
    if isinstance(node, Pow):
        return Pow(*operands, node.exponent)
    return type(node)(*operands) if operands else node


def is_holomorphic(node: Expr) -> bool:
    """True when the tree contains no conjugation and no squared modulus."""
    if isinstance(node, (Conj, Abs2)):
        return False
    return all(map(is_holomorphic, _operands(node)))


def max_var_index(node: Expr) -> int:
    """Largest zero-based variable index in the tree, or -1 when constant."""
    if isinstance(node, Var):
        return node.index
    top = -1
    for operand in _operands(node):
        index = max_var_index(operand)
        if index > top:
            top = index
    return top


def _is_zero(node: Expr) -> bool:
    return isinstance(node, Const) and node.value == 0


def _is_one(node: Expr) -> bool:
    return isinstance(node, Const) and node.value == 1


def _add(left: Expr, right: Expr) -> Expr:
    if _is_zero(left):
        return right
    if _is_zero(right):
        return left
    return Add(left, right)


def _sub(left: Expr, right: Expr) -> Expr:
    if _is_zero(right):
        return left
    if _is_zero(left):
        return Neg(right)
    return Sub(left, right)


def _mul(left: Expr, right: Expr) -> Expr:
    if _is_zero(left) or _is_zero(right):
        return Const(0)
    if _is_one(left):
        return right
    if _is_one(right):
        return left
    return Mul(left, right)


def holomorphic_derivative(node: Expr, index: int) -> Expr:
    """Derivative with respect to ``z_index`` of a conjugation-free tree.

    The result is lightly folded (dropped zero summands, absorbed unit
    factors) so repeated differentiation stays small.  Trees containing
    ``conj`` or ``abs2`` have no holomorphic derivative and are rejected.
    """
    if isinstance(node, (Conj, Abs2)):
        raise ConfigError("cannot differentiate a non-holomorphic expression")
    if isinstance(node, Const):
        return Const(0)
    if isinstance(node, Var):
        return Const(1 if node.index == index else 0)
    if isinstance(node, Add):
        return _add(
            holomorphic_derivative(node.left, index),
            holomorphic_derivative(node.right, index),
        )
    if isinstance(node, Sub):
        return _sub(
            holomorphic_derivative(node.left, index),
            holomorphic_derivative(node.right, index),
        )
    if isinstance(node, Mul):
        return _add(
            _mul(holomorphic_derivative(node.left, index), node.right),
            _mul(node.left, holomorphic_derivative(node.right, index)),
        )
    if isinstance(node, Div):
        numerator = _sub(
            _mul(holomorphic_derivative(node.left, index), node.right),
            _mul(node.left, holomorphic_derivative(node.right, index)),
        )
        if _is_zero(numerator):
            return Const(0)
        return Div(numerator, Pow(node.right, 2))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return Const(0)
        inner = holomorphic_derivative(node.base, index)
        if node.exponent == 1:
            return inner
        chain = _mul(Const(node.exponent), _mul(Pow(node.base, node.exponent - 1), inner))
        return chain
    if isinstance(node, Neg):
        inner = holomorphic_derivative(node.arg, index)
        return Const(0) if _is_zero(inner) else Neg(inner)
    raise ConfigError(f"unknown expression node {node!r}")
