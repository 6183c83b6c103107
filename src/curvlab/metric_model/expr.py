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

Trees are evaluated by compiling a set of them, such as a metric's entries,
into a :class:`TreeProgram` (:func:`compile_trees`): one postorder list of
unique steps, equal subtrees merged across the set and constant subtrees
folded to Python numbers.  A run applies each step's Python operator to its
operand slots, so one program serves arrays of points, numpy scalars and
packed complex Wirtinger jets (``_Jet``), the one derivative engine: seeded
holomorphically, they differentiate holomorphic maps too.  A jet's width
sets its order, so a caller that reads only values and first derivatives
folds first-order jets, ``1 + 2m`` columns per point where the second order
takes ``(m + 1)^2``.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence, Union

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
    "TreeProgram",
    "compile_trees",
    "substitute",
    "is_holomorphic",
    "max_var_index",
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


class _Token(NamedTuple):
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


# ---------------------------------------------------------------------------
# compiled tree programs


class _Jet:
    """Wirtinger jets of order 1 or 2 of a scalar field at ``P`` points in ``m`` variables.

    One packed complex array ``a`` holds per point the value, ``d_i f``,
    ``dbar_i f`` and, at second order, ``d_i dbar_j f`` row by row:
    ``[v | d | dbar | dd]``.  Its width sets the order: ``1 + 2m`` columns
    for the first, ``(m + 1)^2`` for the second, with ``m`` kept beside it,
    since a width alone may read both ways (9 is order 1 at ``m = 4`` and
    order 2 at ``m = 2``).  Python scalars act as constants.  Sums, products,
    quotients, integer powers and conjugation close on these parts, so no
    pure second derivatives are carried; a first-order jet skips every ``dd``
    term and puts ``v``, ``d`` and ``dbar`` through the operations a
    second-order one does.  Every operation is plain complex numpy
    arithmetic, and none writes into an operand's array.

    In the ring ``R[eps, delta] / (eps_i eps_k, delta_j delta_l)`` a jet is
    ``v + d.eps + dbar.delta + eps^T dd delta``; the coordinates' seeds fix
    what the parts mean.  Seeded holomorphically, ``dbar z_k = e_k`` like
    ``d z_k``, a conjugation-free tree's jet is the hyper-dual number
    ``f(z + eps + delta)`` (Fike and Alonso, AIAA 2011-886): ``d`` is its
    Jacobian row and ``dd`` its holomorphic Hessian ``d_i d_j f``.  The
    first-order jet is its dual-number truncation, in which ``d`` is already
    the Jacobian row under the plain seed.
    """

    __slots__ = ("a", "m")

    def __init__(self, a: np.ndarray, m: int) -> None:
        self.a = a
        self.m = m

    @classmethod
    def coordinates(cls, z: np.ndarray, holomorphic: bool = False, order: int = 2) -> list:
        """The jets of ``z_k`` at points ``z`` ``(P, m)``: ``d z_k = e_k``, ``dbar z_k`` too if
        ``holomorphic``, else 0; of ``order`` 1 or 2."""
        p, m = z.shape
        a = np.zeros((m, p, 1 + 2 * m if order == 1 else (m + 1) ** 2), dtype=complex)
        a[:, :, 0] = z.T
        a[np.arange(m), :, 1 + np.arange(m)] = 1.0
        if holomorphic:
            a[np.arange(m), :, 1 + m + np.arange(m)] = 1.0
        return [cls(part, m) for part in a]

    def parts(self) -> tuple:
        """Views ``v``, ``[d | dbar]`` ``(P, 2m)`` and ``dd`` ``(P, m, m)``, None at order 1."""
        m = self.m
        return self.a[:, 0], self.a[:, 1:1 + 2 * m], _dd(self.a, m)

    def __add__(self, other) -> "_Jet":
        if isinstance(other, _Jet):
            return _Jet(self.a + other.a, self.m)
        a = self.a.copy()
        a[:, 0] += other
        return _Jet(a, self.m)

    __radd__ = __add__

    def __neg__(self) -> "_Jet":
        return _Jet(-self.a, self.m)

    def __sub__(self, other) -> "_Jet":
        return self + -other

    def __rsub__(self, other) -> "_Jet":
        return -self + other

    def __mul__(self, other) -> "_Jet":
        m = self.m
        if not isinstance(other, _Jet):
            return _Jet(self.a * other, m)
        left = self.a * other.a[:, :1]
        out = left + self.a[:, :1] * other.a
        out[:, 0] = left[:, 0]
        dd = _dd(out, m)
        if dd is not None:
            dd += _outer(self.a[:, 1:1 + m], other.a[:, 1 + m:1 + 2 * m])
            dd += _outer(other.a[:, 1:1 + m], self.a[:, 1 + m:1 + 2 * m])
        return _Jet(out, m)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return _Jet(self.a / other, self.m)
        return _quotient(self.parts(), other.parts())

    def __rtruediv__(self, other) -> "_Jet":
        v, first, dd = self.parts()
        zero_dd = None if dd is None else np.zeros_like(dd)
        return _quotient((other, np.zeros_like(first), zero_dd), (v, first, dd))

    def __pow__(self, k: int):
        if k in (0, 1):  # never form v^(k-2), which is infinite at v = 0
            return self if k else 1 + 0j
        v = self.a[:, 0]
        p1 = (k * v ** (k - 1))[:, None]
        out = p1 * self.a
        out[:, 0] = v**k
        m = self.m
        dd = _dd(out, m)
        if dd is not None:
            p2 = (k * (k - 1) * v ** (k - 2))[:, None, None]
            dd += p2 * _outer(self.a[:, 1:1 + m], self.a[:, 1 + m:1 + 2 * m])
        return _Jet(out, m)

    def conjugate(self) -> "_Jet":
        out = self.a[:, _conjugate_order(self.m)[:self.a.shape[1]]]
        np.conjugate(out, out=out)
        return _Jet(out, self.m)


def _dd(a: np.ndarray, m: int):
    """The ``dd`` block of packed jets ``a`` as a view ``(P, m, m)``, or None at order 1."""
    return a[:, 1 + 2 * m:].reshape(-1, m, m) if a.shape[1] > 1 + 2 * m else None


@cache
def _conjugate_order(m: int) -> np.ndarray:
    """Columns of a conjugate: ``v``, ``dbar`` as ``d``, ``d`` as ``dbar``, ``dd`` transposed."""
    dd = 1 + 2 * m + np.arange(m * m).reshape(m, m).T.ravel()
    return np.concatenate([[0], np.arange(1 + m, 1 + 2 * m), np.arange(1, 1 + m), dd])


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _quotient(p: tuple, q: tuple) -> _Jet:
    """The jet of ``p / q`` from their :meth:`_Jet.parts`, operation by operation as a part
    fold does; ``d`` and ``dbar`` share each operation, and order 1 skips ``dd``."""
    # q = a / b: d q = d a / b - a d b / b^2 and d dbar q = d dbar a / b
    # - (d a dbar b + d b dbar a + a d dbar b) / b^2 + 2 a d b dbar b / b^3
    (pv, pfirst, pdd), (qv, qfirst, qdd) = p, q
    m = qfirst.shape[-1] // 2
    a, b = np.asarray(pv)[..., None], qv[:, None]
    b2 = b * b
    v, first = pv / qv, pfirst / b - a * qfirst / b2
    out = np.empty((len(v), 1 + 2 * m if qdd is None else (m + 1) ** 2), dtype=complex)
    out[:, 0] = v
    out[:, 1:1 + 2 * m] = first
    if qdd is not None:
        (pd, pdbar), (qd, qdbar) = (pfirst[:, :m], pfirst[:, m:]), (qfirst[:, :m], qfirst[:, m:])
        dd = (pdd / b[:, None] - (_outer(pd, qdbar) + _outer(qd, pdbar) + a[..., None] * qdd)
              / b2[:, None] + 2 * a[..., None] * _outer(qd, qdbar) / (b2 * b)[:, None])
        out[:, 1 + 2 * m:] = dd.reshape(len(v), m * m)
    return _Jet(out, m)


def _abs2(w):
    """``w * conj(w)`` with an exactly real value ``re^2 + im^2``."""
    if not isinstance(w, _Jet):
        return w.real * w.real + w.imag * w.imag
    out = w * w.conjugate()
    out.a[:, 0] = _abs2(w.a[:, 0])
    return out


# One step per node kind: ``step(x, y)`` with ``y`` the second operand, the
# exponent of a power, or ``x`` again for the one-operand kinds.
_STEPS = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Pow: operator.pow,
    Conj: lambda x, _: x.conjugate(),
    Abs2: lambda x, _: _abs2(x),
    Neg: lambda x, _: -x,
}


def _cannot_evaluate(node: Expr, exc: Exception) -> ConfigError:
    return ConfigError(f"constant '{to_text(node)}' cannot be evaluated: {exc}")


class TreeProgram:
    """A set of expression trees compiled into one postorder list of unique steps.

    Slots hold the variables the trees read, their constants and one
    result per step.  Equal subtrees, by node kind, variable index or
    constant bits and operand slots, share one slot, within a tree and
    across the set.  Constant subtrees are folded to Python numbers when
    the program is compiled.  :meth:`run` folds the steps with Python
    operators over the leaves, so every value is the one the recursive fold
    of each tree gives.  ``len`` is the slot count.
    """

    __slots__ = ("_template", "_variables", "_steps", "_outputs", "_sources")

    def __init__(self, template, variables, steps, outputs, sources) -> None:
        self._template = template  # constants in their slots, None elsewhere
        self._variables = variables  # (slot, k): the slot of z_k
        self._steps = steps  # (slot, step, operand slot, operand slot)
        self._outputs = outputs  # the slot of each tree
        self._sources = sources  # slot -> node, for the quotients and powers

    def __len__(self) -> int:
        return len(self._template)

    def run(self, leaves) -> list:
        """One value per tree, with ``z_k`` read as ``leaves[k]``.

        Leaves are arrays of points, numpy scalars or Wirtinger jets.  A
        quotient or power that raises is a :class:`ConfigError`.
        """
        slots = self._template.copy()
        for slot, k in self._variables:
            slots[slot] = leaves[k]
        try:
            for slot, step, x, y in self._steps:
                slots[slot] = step(slots[x], slots[y])
        except (ZeroDivisionError, OverflowError) as exc:
            if slot not in self._sources:
                raise
            raise _cannot_evaluate(self._sources[slot], exc) from exc
        return [slots[slot] for slot in self._outputs]

    def fold(self, z) -> list:
        """:meth:`run` over the leaves ``z[..., k]`` of points ``z`` of shape ``(..., n)``."""
        return self.run([z[..., k] for k in range(np.shape(z)[-1])])

    def jets(self, z: np.ndarray, holomorphic: bool = False, order: int = 2) -> tuple:
        """Value ``(P, T)``, ``d`` ``(P, m, T)`` and ``d dbar`` ``(P, m, m, T)`` of the trees.

        :meth:`run` on the Wirtinger jets (``_Jet``) of the points ``z`` ``(P, m)``; seeded
        ``holomorphic``ally, conjugation-free trees get the Hessian ``d d`` in place of
        ``d dbar``.  ``order`` 1 folds first-order jets and returns ``(value, d)``, whose
        finite entries are the bytes of order 2's; a NaN may carry the other sign
        bit.  Complex, exact up to rounding, unchecked and C-contiguous.
        """
        p, m = z.shape
        leaves = _Jet.coordinates(z, holomorphic, order)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            zero = leaves[0] * 0.0  # a zero jet: spreads constant trees over the points
            # (T, P, width)
            packed = np.array([(value + zero).a for value in self.run(leaves)])
        parts = [packed[..., 0], packed[..., 1:1 + m]]
        if order == 2:
            parts.append(packed[..., 1 + 2 * m:].reshape(len(packed), p, m, m))
        return tuple(part.transpose(*range(1, part.ndim), 0).copy() for part in parts)


def _constant_key(value) -> tuple:
    """A constant by type and bits, so that ``0`` and ``-0`` never share a slot."""
    if isinstance(value, complex):
        return Const, type(value), struct.pack("<dd", value.real, value.imag)
    if isinstance(value, float):
        return Const, type(value), struct.pack("<d", value)
    return Const, type(value), value


class _Compiler:
    """Visits trees in postorder; a visit returns a slot, or ``(value,)`` for a constant."""

    def __init__(self) -> None:
        self.template: list = []
        self.variables: list = []
        self.steps: list = []
        self.sources: dict = {}
        self.slots: dict = {}  # structural key -> slot
        self.seen: dict = {}  # id(node) -> slot or (value,)

    def slot(self, ref) -> int:
        """The slot of a visit's result; a constant gets one when first an operand or output."""
        if type(ref) is int:
            return ref
        key = _constant_key(ref[0])
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.template)
            self.template.append(ref[0])
        return slot

    def visit(self, node: Expr):
        ref = self.seen.get(id(node))
        if ref is not None:
            return ref
        kind = type(node)
        if kind is Const:
            ref = (node.value,)
        elif kind is Var:
            key = (Var, node.index)
            ref = self.slots.get(key)
            if ref is None:
                ref = self.slots[key] = len(self.template)
                self.template.append(None)
                self.variables.append((ref, node.index))
        else:
            operands = [self.visit(operand) for operand in _operands(node)]
            x = operands[0]
            y = (node.exponent,) if kind is Pow else operands[-1]
            step = _STEPS[kind]
            if type(x) is tuple and type(y) is tuple:
                try:
                    ref = (step(x[0], y[0]),)
                except (ZeroDivisionError, OverflowError) as exc:
                    if kind is not Div and kind is not Pow:
                        raise
                    raise _cannot_evaluate(node, exc) from exc
            else:
                key = (kind, self.slot(x), self.slot(y))
                ref = self.slots.get(key)
                if ref is None:
                    ref = self.slots[key] = len(self.template)
                    self.template.append(None)
                    self.steps.append((ref, step, key[1], key[2]))
                    if kind is Div or kind is Pow:
                        self.sources[ref] = node
        self.seen[id(node)] = ref
        return ref


def compile_trees(trees: Sequence[Expr]) -> TreeProgram:
    """Compile a set of trees into one :class:`TreeProgram`, subtrees shared.

    A constant subtree whose quotient or power cannot be evaluated is a
    :class:`ConfigError`, as it is for the recursive fold.
    """
    compiler = _Compiler()
    outputs = tuple(compiler.slot(compiler.visit(tree)) for tree in trees)
    return TreeProgram(compiler.template, tuple(compiler.variables), tuple(compiler.steps),
                       outputs, compiler.sources)


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
