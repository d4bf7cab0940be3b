"""Closed-form coordinate expressions.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := atom ("^" int)?
    atom   := number | ident | func "(" expr ")" | "(" expr ")" | "-" atom

Functions: sin cos tan sinh cosh exp sqrt.  Identifiers resolve to the
declared coordinate names (x1..xn by default) or to declared parameters, which
read as their values: a parameter is a constant from the moment it is parsed.
Anything else is rejected with the offset of the offending token.  Exponents
are integer literals, optionally signed.  Nothing recurses: the parser is one
loop over the tokens with an explicit stack, every walk over a tree is one
iterative bottom-up pass (``_walk``), a node's hash is formed from those its
children hold and equality compares pair by pair, so formulas of any length
and nesting are accepted.

ASTs are immutable; evaluation maps an AST onto coordinate jets (coefficient
arrays), so every partial derivative of a parsed formula is available through
the jets module, and derivatives are never taken symbolically.  Evaluation
fails (``EvalError``) only on a singular primitive, such as a division by a
vanishing jet.  The module also provides the symbolic building blocks
(simplifying constructors, variable shifts, one bottom-up rebuild) used
to assemble warped and rescaled metrics, plus the reader for the
"conformal-metric v1" text format.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace

import numpy as np

from . import jets

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "exp", "sqrt")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.message = message
        self.position = position


class EvalError(ValueError):
    """Evaluation failed on a singular primitive."""


# --- AST nodes ---------------------------------------------------------------

class _Tree:
    """Equality, hash and ``repr`` of the node classes, none of which recurses:
    a node's hash is formed when it is built, from the hashes its children
    already hold, two trees are compared pair by pair, and the ``repr`` (the
    dataclass text) is written in one pass over the tree and joined once."""

    def __post_init__(self):
        own = self.__dict__
        own["kids"] = tuple([own[f] for f in self._kid_fields])
        own["_hash"] = hash(tuple([own[f] for f in self.__match_args__]))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if (a.__class__ is not b.__class__ or a._hash != b._hash
                        or [getattr(a, f) for f in a._data] != [getattr(b, f) for f in b._data]):
                    return False
                pairs += zip(a.kids, b.kids)
        return True

    def __repr__(self) -> str:
        # the text written so far, and the text and nodes still to write, last first
        parts, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
            else:
                pieces = [f"{type(item).__qualname__}("]
                for k, f in enumerate(item.__match_args__):
                    value = getattr(item, f)
                    pieces += [", " * (k > 0) + f"{f}=",
                               value if f in item._kid_fields else repr(value)]
                todo += reversed(pieces + [")"])
        return "".join(parts)


def _node(*kids: str):
    """A frozen node class whose fields ``kids`` hold its subtrees (``nd.kids``)."""
    def make(cls):
        cls = dataclass(frozen=True, eq=False, repr=False)(cls)
        cls._kid_fields, cls._data = kids, tuple(f for f in cls.__match_args__ if f not in kids)
        return cls
    return make


@_node()
class Const(_Tree):
    value: float


@_node()
class Var(_Tree):
    index: int


@_node("arg")
class Call(_Tree):
    fn: str
    arg: "Node"


@_node("arg")
class Neg(_Tree):
    arg: "Node"


@_node("left", "right")
class Bin(_Tree):
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@_node("base")
class Pow(_Tree):
    base: "Node"
    exponent: int


Node = Const | Var | Call | Neg | Bin | Pow

ZERO = Const(0.0)
ONE = Const(1.0)


# --- tokenizer / parser -------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(source) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


def parse(source: str, n: int, params=None, var_names=None) -> Node:
    """Parse a formula over n coordinates (named x1..xn unless overridden);
    ``params`` maps parameter names to the values they read as.

    One loop over the tokens.  ``stack`` holds what is still open: unary
    minus signs (``"-"``), groups (``"("``) and calls (the function's name)
    waiting for ``")"``, and ``(op, left)`` operands waiting for their right
    operand.  A whole atom closes under the minus signs before it and then
    takes its exponent; an operator, ``")"`` or the end first folds the
    operands waiting for it that bind at least as tightly (left association).
    """
    if not source or not source.strip():
        raise ParseError("empty input", 0)
    if var_names is None:
        var_names = [f"x{i + 1}" for i in range(n)]
    if len(var_names) != n:
        raise ValueError(f"expected {n} variable names, got {len(var_names)}")
    var_index = {v: i for i, v in enumerate(var_names)}
    params = params or {}
    take = iter(_tokenize(source) + [("end", "", len(source))]).__next__
    stack = []

    def needed():
        kind, text, pos = take()
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        return kind, text, pos

    def fold(node: Node, binding: int) -> Node:
        while stack and type(stack[-1]) is tuple and _BINDING[stack[-1][0]] >= binding:
            op, left = stack.pop()
            node = Bin(op, left, node)
        return node

    while True:
        kind, text, pos = needed()
        if text in ("-", "("):
            stack.append(text)
            continue
        if text in FUNCTIONS:
            _, after, at = take()
            if after != "(":
                raise ParseError("expected '('", at)
            stack.append(text)
            continue
        if kind == "num":
            node = Const(float(text))
        elif kind == "op":
            raise ParseError(f"unexpected token {text!r}", pos)
        elif text in var_index:
            node = Var(var_index[text])
        elif text in params:
            node = Const(float(params[text]))
        else:
            raise ParseError(f"unknown identifier {text!r}", pos)
        while True:                 # the atom is whole
            while stack and stack[-1] == "-":
                stack.pop()
                node = Neg(node)
            kind, text, pos = take()
            if text == "^":
                kind, text, pos = needed()
                sign = -1 if text == "-" else 1
                if sign < 0:
                    kind, text, pos = needed()
                if kind != "num" or not text.isdigit():
                    raise ParseError("exponent must be an integer literal", pos)
                node = Pow(node, sign * int(text))
                kind, text, pos = take()
            if text in _BINDING:
                stack.append((text, fold(node, _BINDING[text])))
                break
            node = fold(node, 0)
            if text == ")" and stack:
                opener = stack.pop()
                node = node if opener == "(" else Call(opener, node)
            elif stack:
                raise ParseError("expected ')'", pos)
            elif kind == "end":
                return node
            else:
                raise ParseError(f"trailing input {text!r}", pos)


def _walk(node: Node, leave, known=None):
    """Bottom-up over a tree without recursion: ``leave(nd, *results)`` gets
    each node after the results of its subtrees, left to right, and returns
    the node's result.  A subtree for which ``known`` returns a result other
    than None takes that result and is not entered."""
    todo, done = [(node, False)], []
    while todo:
        nd, entered = todo.pop()
        if entered:
            k = len(done) - len(nd.kids)
            done[k:] = [leave(nd, *done[k:])]
        elif known and (result := known(nd)) is not None:
            done.append(result)
        elif nd.kids:
            todo.append((nd, True))
            todo += [(kid, False) for kid in reversed(nd.kids)]
        else:
            done.append(leave(nd))
    return done[0]


# --- evaluation ---------------------------------------------------------------

def evaluate(node: Node, coord_jets: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Evaluate on coordinate jets (row i: the jet of x_i, as from ``jets.seed_jets``).

    The result is one coefficient array carrying all partials to the jets' order;
    seeds of shape (n, P, C), at P points, give (P, C).  A constant subtree is
    evaluated once, as an order-0 jet through the same primitives, and a
    constant term, factor or divisor touches the value slot or scales the jet
    instead of entering a product; the coefficients are those of the full
    products up to the sign of zero.  Each call, power and operator subtree is
    expanded once: ``memo`` holds the results by subtree, and a dict passed by
    the caller is shared by calls on the same seeds (the caller must not
    write into the results).
    """
    memo = {} if memo is None else memo
    n = len(coord_jets)
    order = jets.order_of(coord_jets.shape[-1], n)

    def jet_order(a: np.ndarray) -> int:
        return 0 if a.shape[-1] == 1 else order

    def known(nd: Node) -> np.ndarray | None:
        return memo.get(nd) if nd.__class__ in (Call, Pow, Bin) else None

    def leave(nd: Node, a=None, b=None) -> np.ndarray:
        """A jet, or the order-0 jet (shape (1,)) of a constant subtree."""
        if isinstance(nd, Var):
            return coord_jets[nd.index]
        if isinstance(nd, Const):
            return np.array([nd.value])
        if isinstance(nd, Neg):
            return -a
        try:
            if isinstance(nd, Call):
                out = jets.FUNCTIONS[nd.fn](a, n, jet_order(a))
            elif isinstance(nd, Pow):
                out = jets.power(a, nd.exponent, n, jet_order(a))
            elif nd.op in "+-":
                out = _add(a, b if nd.op == "+" else -b)
            else:
                b = jets.reciprocal(b, n, jet_order(b)) if nd.op == "/" else b
                out = jets.conv(a, b, n, order) if jet_order(a) and jet_order(b) else a * b
        except jets.JetError as err:
            raise EvalError(f"{nd.fn}: {err}" if isinstance(nd, Call) else str(err)) from err
        memo[nd] = out
        return out

    out = _walk(node, leave, known)
    if out.shape[-1] == 1:
        value, out = out, np.zeros(coord_jets.shape[1:])
        out[..., 0] = value[0]
    return out


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for jets and order-0 jets (shape (1,)): a constant adds to the
    value slot only.  A difference comes here as a + (-b), which IEEE
    arithmetic rounds as a - b."""
    if a.shape[-1] == b.shape[-1]:
        return a + b
    out = (b if a.shape[-1] == 1 else a).copy()
    out[..., 0] = a[..., 0] + b[..., 0]
    return out


def evaluate_at(node: Node, point) -> float:
    """Plain value at a point (order-1 jets, value slot only)."""
    return float(evaluate(node, jets.seed_jets(point, 1))[..., 0])


# --- printing -----------------------------------------------------------------

def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return 1 if node.op in "+-" else 2
    if isinstance(node, Neg) or (isinstance(node, Const) and node.value < 0):
        return 1
    return 3 if isinstance(node, Pow) else 4


def to_source(node: Node, var_names=None) -> str:
    """Canonical printout; re-parsing it reproduces a parse-produced AST."""

    def wrap(child: Node, text: str, parent_prec: int) -> str:
        return f"({text})" if _prec(child) < parent_prec else text

    def leave(nd: Node, a: str = "", b: str = "") -> str:
        if isinstance(nd, Const):
            return repr(nd.value) if nd.value >= 0 else f"-{-nd.value!r}"
        if isinstance(nd, Var):
            return var_names[nd.index] if var_names else f"x{nd.index + 1}"
        if isinstance(nd, Neg):
            return "-" + wrap(nd.arg, a, 4)
        if isinstance(nd, Call):
            return f"{nd.fn}({a})"
        if isinstance(nd, Pow):
            return f"{wrap(nd.base, a, 4)}^{nd.exponent}"
        # right operands of equal precedence get parens so the printed
        # string re-parses to the same tree under left association
        return f"{wrap(nd.left, a, _prec(nd))} {nd.op} {wrap(nd.right, b, _prec(nd) + 1)}"

    return _walk(node, leave)


# --- symbolic algebra ----------------------------------------------------------

def is_zero(node: Node) -> bool:
    return isinstance(node, Const) and node.value == 0.0


def is_one(node: Node) -> bool:
    return isinstance(node, Const) and node.value == 1.0


def _rewrite(node: Node, fn) -> Node:
    """Rebuild bottom-up: ``fn`` gets every node once its subtrees are
    rewritten (the node itself while they are the same objects), and its
    result takes the node's place."""

    def leave(nd: Node, *kids: Node) -> Node:
        if any(map(operator.is_not, kids, nd.kids)):
            nd = replace(nd, **dict(zip(nd._kid_fields, kids)))
        return fn(nd)

    return _walk(node, leave)


def simplify(node: Node) -> Node:
    """Constant folding plus the obvious 0/1 identities."""
    return _rewrite(node, fold)


def fold(node: Node) -> Node:
    """The rules of ``simplify`` at one node whose subtrees are simplified."""
    if isinstance(node, Neg):
        a = node.arg
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
    elif isinstance(node, Pow):
        if node.exponent == 0:
            return ONE
        if node.exponent == 1:
            return node.base
        if isinstance(node.base, Const):
            try:
                return Const(node.base.value ** node.exponent)
            except (ZeroDivisionError, OverflowError):
                pass        # left unfolded, for evaluation to report
    elif isinstance(node, Bin):
        a, b = node.left, node.right
        if isinstance(a, Const) and isinstance(b, Const):
            if node.op == "+":
                return Const(a.value + b.value)
            if node.op == "-":
                return Const(a.value - b.value)
            if node.op == "*":
                return Const(a.value * b.value)
            if b.value != 0.0:
                return Const(a.value / b.value)
        if node.op == "+":
            if is_zero(a):
                return b
            if is_zero(b):
                return a
        elif node.op == "-":
            if is_zero(b):
                return a
            if is_zero(a):
                return fold(Neg(b))
        elif node.op == "*":
            if is_zero(a) or is_zero(b):
                return ZERO
            if is_one(a):
                return b
            if is_one(b):
                return a
        elif node.op == "/":
            if is_zero(a):
                return ZERO
            if is_one(b):
                return a
    return node


def add(a: Node, b: Node) -> Node:
    return simplify(Bin("+", a, b))


def sub(a: Node, b: Node) -> Node:
    return simplify(Bin("-", a, b))


def mul(a: Node, b: Node) -> Node:
    return simplify(Bin("*", a, b))


def div(a: Node, b: Node) -> Node:
    return simplify(Bin("/", a, b))


def const(v: float) -> Node:
    return Const(float(v))


def var(i: int) -> Node:
    return Var(i)


def shift_vars(node: Node, offset: int) -> Node:
    """Re-index every variable by +offset (embedding a factor in a product chart)."""
    return _rewrite(node, lambda nd: Var(nd.index + offset) if isinstance(nd, Var) else nd)


def used_vars(node: Node) -> set[int]:
    found = set()
    _walk(node, lambda nd, *_: found.add(nd.index) if isinstance(nd, Var) else None)
    return found


# --- "conformal-metric v1" text format -----------------------------------------

def _natural(text: str, lineno: int, what: str) -> int:
    """The digits of a header value or index, or a ParseError naming the line."""
    text = text.strip()
    if not re.fullmatch(r"[0-9]+", text):
        raise ParseError(f"line {lineno}: {what} must be an integer, got {text!r}", 0)
    return int(text)


def _parse_line(source: str, lineno: int, dim: int, params: dict) -> Node:
    """``parse`` of a component or domain expression; an error names the line."""
    try:
        return parse(source.strip(), dim, params)
    except ParseError as err:
        raise ParseError(f"line {lineno}: {err.message}", err.position) from None


def parse_metric_source(text: str) -> dict:
    """Read the conformal-metric v1 format into plain pieces.

    Lines: ``dim = n``, ``signature = p,q``, optional ``param NAME = value``,
    component lines ``g i j : <expr>`` (1-based, symmetric closure, missing
    entries are 0), optional ``domain : <expr>`` meaning "expression > 0".
    Blank lines and lines starting with ``#`` are ignored.  A line is known by
    its first word alone, and a second ``dim``, ``signature``, ``param NAME``
    or component (``g j i`` after ``g i j``) is rejected, as is a header or
    index that is not an integer, a param value that is not a finite number
    and a param name that is not an identifier or names a function or a
    coordinate ``x1``, ``x2``, ...  A param reads as its value in the
    component and domain lines after it.
    """
    dim = None
    signature = None
    params: dict[str, float] = {}
    components: dict[tuple[int, int], Node] = {}
    domain: list[Node] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = re.match(r"\w*", line).group()
        rest = line[len(word):]
        if word == "dim":
            if dim is not None:
                raise ParseError(f"line {lineno}: repeated dim", 0)
            dim = _natural(rest.partition("=")[2], lineno, "dim")
        elif word == "signature":
            if signature is not None:
                raise ParseError(f"line {lineno}: repeated signature", 0)
            counts = rest.partition("=")[2].split(",")
            if len(counts) != 2:
                raise ParseError(f"line {lineno}: signature must be two integers p,q", 0)
            signature = tuple(_natural(c, lineno, "signature") for c in counts)
        elif word == "param":
            name, _, given = (part.strip() for part in rest.partition("="))
            if (not re.fullmatch(_IDENT, name) or name in FUNCTIONS
                    or re.fullmatch(r"x[1-9][0-9]*", name)):
                raise ParseError(f"line {lineno}: param name {name!r} must be an identifier "
                                 "other than a function or coordinate name", 0)
            if name in params:
                raise ParseError(f"line {lineno}: repeated param {name}", 0)
            try:
                value = float(given)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: param {name} needs a finite value, "
                                 f"got {given!r}", 0)
            params[name] = value
        elif word == "domain":
            if dim is None:
                raise ParseError(f"line {lineno}: domain before dim", 0)
            domain.append(_parse_line(rest.partition(":")[2], lineno, dim, params))
        elif word == "g":
            head, _, rhs = line.partition(":")
            parts = head.split()
            if len(parts) != 3 or dim is None:
                raise ParseError(f"line {lineno}: malformed component line", 0)
            i, j = (_natural(k, lineno, "component index") - 1 for k in parts[1:])
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(f"line {lineno}: index out of range", 0)
            if (i, j) in components or (j, i) in components:
                raise ParseError(f"line {lineno}: repeated component g {i + 1} {j + 1}", 0)
            components[(i, j)] = _parse_line(rhs, lineno, dim, params)
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}", 0)

    if dim is None or signature is None:
        raise ParseError("metric file needs dim and signature headers", 0)
    if signature[0] + signature[1] != dim:
        raise ParseError("signature does not sum to dim", 0)
    return {
        "dim": dim,
        "signature": signature,
        "params": params,
        "components": components,
        "domain": domain,
    }
