"""Parser, jet evaluation, printing round-trips, symbolic helpers."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformal_gap_lab import expr, geometry, jets
from conformal_gap_lab.expr import (
    Bin, Call, Const, EvalError, Neg, ParseError, Pow, Var,
    evaluate, parse, to_source,
)


def test_parse_power_of_function():
    ast = parse("cosh(x1)^2", n=4)
    assert ast == Pow(Call("cosh", Var(0)), 2)


def test_parse_with_parameter():
    ast = parse("1 + m/x1", n=4, params={"m": 2.0})
    assert ast == Bin("+", Const(1.0), Bin("/", Const(2.0), Var(0)))


def test_malformed_input_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("x^2*(", n=1, var_names=["x"])
    assert err.value.position == 5
    with pytest.raises(ParseError) as err2:
        parse("x1^2*(", n=2)
    assert err2.value.position == 6


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError):
        parse("x9 + 1", n=4)
    with pytest.raises(ParseError):
        parse("foo(x1)", n=4)


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^2.5", n=2)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("   ", n=2)


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse("(x1 + 2", n=2)


@pytest.mark.parametrize("source, message, offset", [
    ("", "empty input", 0),
    ("   ", "empty input", 0),
    ("x1$", "unexpected character '$'", 2),
    # the offset of the character itself, not of the whitespace before it
    ("x1 $", "unexpected character '$'", 3),
    ("x1+   @", "unexpected character '@'", 6),
    ("   #x1", "unexpected character '#'", 3),
    ("x1 +", "unexpected end of input", 4),
    ("(x1 + ", "unexpected end of input", 6),
    ("x1^", "unexpected end of input", 3),
    ("x1^-", "unexpected end of input", 4),
    ("sin x1", "expected '('", 4),
    ("sin", "expected '('", 3),
    ("(x1 x2", "expected ')'", 4),
    ("((x1)^2^3)", "expected ')'", 7),
    ("sin(x1", "expected ')'", 6),
    ("(x1 + 2", "expected ')'", 7),
    ("x9 + 1", "unknown identifier 'x9'", 0),
    ("foo(x1)", "unknown identifier 'foo'", 0),
    ("x1 + *2", "unexpected token '*'", 5),
    (")", "unexpected token ')'", 0),
    ("x1^2.0", "exponent must be an integer literal", 3),
    ("x1^x2", "exponent must be an integer literal", 3),
    ("x1^-x2", "exponent must be an integer literal", 4),
    ("x1^--2", "exponent must be an integer literal", 4),
    ("x1 x2", "trailing input 'x2'", 3),
    ("x1^2^3", "trailing input '^'", 4),
    ("x1)", "trailing input ')'", 2),
])
def test_parse_errors_name_the_token_and_its_offset(source, message, offset):
    with pytest.raises(ParseError) as err:
        parse(source, n=2)
    assert (err.value.message, err.value.position) == (message, offset)


def test_parse_binds_as_the_grammar_says():
    x1, x2, x3 = Var(0), Var(1), Var(2)
    assert parse("-x1^2", 3) == Pow(Neg(x1), 2)
    assert parse("--x1^-2", 3) == Pow(Neg(Neg(x1)), -2)
    assert parse("x1 - x2 - x3", 3) == Bin("-", Bin("-", x1, x2), x3)
    assert parse("x1 / x2 * x3", 3) == Bin("*", Bin("/", x1, x2), x3)
    assert parse("x1 + x2 * -x3", 3) == Bin("+", x1, Bin("*", x2, Neg(x3)))
    assert parse("x1 * x2 + x3 / x1 - x2", 3) == Bin(
        "-", Bin("+", Bin("*", x1, x2), Bin("/", x3, x1)), x2)
    assert parse("-(x1 + x2)^3 * sin(-x3)", 3) == Bin(
        "*", Pow(Neg(Bin("+", x1, x2)), 3), Call("sin", Neg(x3)))


_ATOMS = st.one_of(
    st.sampled_from(["x1", "x2", "x3", "a", "0.5", ".25", "2.", "1e-3", "3E+2"]),
    st.integers(0, 99).map(str),
    st.tuples(st.sampled_from(["x1", "a", "7"]), st.integers(-3, 3)).map("{0[0]}^{0[1]}".format),
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " + ", " *  "]), inner).map("".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(st.sampled_from(expr.FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
        st.tuples(inner, st.integers(-3, 3)).map("( {0[0]} )^{0[1]}".format),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.recursive(_ATOMS, _compound, max_leaves=40))
def test_parse_of_the_printout_is_the_tree(source):
    tree = parse(source, 3, params={"a": 2.5})
    assert parse(to_source(tree), 3) == tree


def test_parse_nests_without_limit():
    depth = 100_000
    assert parse("(" * depth + "x1" + ")" * depth, 1) == Var(0)
    for source, kind in (("sin(" * depth + "x1" + ")" * depth, Call), ("-" * depth + "x1", Neg)):
        tree = parse(source, 1)
        for _ in range(depth):
            assert type(tree) is kind
            tree = tree.arg
        assert tree == Var(0)


def test_evaluate_gradient():
    ast = parse("x1^2 + x2^2", n=2)
    j = evaluate(ast, jets.seed_jets((3.0, 4.0), 1))
    assert j[0] == pytest.approx(25.0)
    assert np.allclose(jets.gradient(j, 2), [6.0, 8.0])


def test_evaluate_exp_sqrt2():
    ast = parse("exp(-sqrt(2)*x1)", n=1)
    j = evaluate(ast, jets.seed_jets((0.0,), 2))
    assert j[0] == pytest.approx(1.0)
    assert jets.gradient(j, 1)[0] == pytest.approx(-math.sqrt(2))
    assert jets.hessian(j, 1)[0, 0] == pytest.approx(2.0)


def test_evaluate_fs_component_at_pi_over_4():
    ast = parse("1/2*cos(x1)^2*sin(x1)^2", n=4)
    j = evaluate(ast, jets.seed_jets((math.pi / 4, 0.0, 0.0, 0.0), 1))
    assert j[0] == pytest.approx(1 / 8)


def test_division_by_zero_value_raises():
    ast = parse("1/x1", n=1)
    with pytest.raises(EvalError):
        evaluate(ast, jets.seed_jets((0.0,), 2))


@pytest.mark.parametrize(
    "source",
    [
        "cosh(x1)^2",
        "1 + 2*x1 - x2/3",
        "x1 - (x2 - x3)",
        "-(x1 + x2)*sin(x3)",
        "x1^-2 + sqrt(x2)",
        "2/(x1*x2)/x3",
        "1/2*cos(x1)^2*(sin(x1)^2*sin(x3)^4 + cos(x3)^2*sin(x3)^2)",
    ],
)
def test_parse_print_parse_idempotent(source):
    ast = parse(source, n=4)
    printed = to_source(ast)
    assert parse(printed, n=4) == ast


def test_constant_fold_matches_raw_evaluation():
    ast = parse("(2 + 3)*x1 + sin(0.5)*x2 - 4/2", n=2)
    folded = expr.simplify(ast)
    env = jets.seed_jets((0.7, -1.3), 2)
    a = evaluate(ast, env)
    b = evaluate(folded, env)
    assert np.allclose(a, b, atol=1e-14)


@pytest.mark.parametrize("source", ["0^-1", "(1e200)^2"])
def test_constant_power_that_cannot_fold_is_left_for_evaluation(source):
    # Python's float power raises on these; the Pow stays for evaluation to report
    assert isinstance(expr.simplify(parse(source, n=1)), Pow)
    assert expr.simplify(parse("2^-2", n=1)) == Const(0.25)


def test_shift_vars():
    ast = parse("x1*sin(x2)", n=2)
    shifted = expr.shift_vars(ast, 2)
    assert expr.used_vars(shifted) == {2, 3}


def test_metric_file_round_trip():
    text = """
    # toy split-signature plane wave
    dim = 4
    signature = 2,2
    param s = 1.0
    g 1 1 : s*x2^2
    g 1 4 : 1
    g 2 3 : 1
    domain : 1 + x1^2
    """
    data = expr.parse_metric_source(text)
    assert data["dim"] == 4
    assert data["signature"] == (2, 2)
    assert (0, 3) in data["components"]
    assert len(data["domain"]) == 1


def test_metric_file_requires_headers():
    with pytest.raises(ParseError):
        expr.parse_metric_source("g 1 1 : 1")


METRIC_HEAD = "dim = 3\nsignature = 0,3\nparam a = 1\ng 1 1 : 1\ng 1 2 : 0\n"

# each a well-formed file with one line changed or added, and the line's number
MALFORMED_METRIC_LINES = {
    "keyword_prefix_dim": ("dimension = 3\n" + METRIC_HEAD[8:], 1),
    "keyword_prefix_param": (METRIC_HEAD + "params b = 1\n", 6),
    "repeated_dim": (METRIC_HEAD + "dim = 3\n", 6),
    "repeated_signature": (METRIC_HEAD + "signature = 1,2\n", 6),
    "repeated_param": (METRIC_HEAD + "param a = 2\n", 6),
    "repeated_component": (METRIC_HEAD + "g 1 1 : 4\n", 6),
    "repeated_transposed_component": (METRIC_HEAD + "g 2 1 : 4\n", 6),
    "dim_not_an_integer": ("dim = three\n" + METRIC_HEAD[8:], 1),
    "signature_of_three_counts": (METRIC_HEAD.replace("0,3", "0,3,1"), 2),
    "signature_not_integers": (METRIC_HEAD.replace("0,3", "0,x"), 2),
    "param_without_value": (METRIC_HEAD + "param b\n", 6),
    "param_not_a_number": (METRIC_HEAD + "param b = two\n", 6),
    "param_not_finite": (METRIC_HEAD + "param b = inf\n", 6),
    "param_name_not_identifier": (METRIC_HEAD + "param 2b = 1\n", 6),
    "param_name_coordinate": (METRIC_HEAD + "param x1 = 2\n", 6),
    "param_name_function": (METRIC_HEAD + "param sin = 2\n", 6),
    "component_index_not_integer": (METRIC_HEAD + "g 1 x : 1\n", 6),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_METRIC_LINES))
def test_metric_file_rejects_malformed_line(case):
    text, lineno = MALFORMED_METRIC_LINES[case]
    with pytest.raises(ParseError, match=rf"^line {lineno}: "):
        expr.parse_metric_source(text)


def test_metric_file_params_read_as_the_values_written_in():
    body = "dim = 2\nsignature = 0,2\ng 1 1 : 1\ng 2 2 : {0}*x1^2 + x2/{0}\ndomain : x1 - {0}/20\n"
    named = expr.parse_metric_source("param a = 2.0\n" + body.format("a"))
    written = expr.parse_metric_source(body.format("2.0"))
    assert named["components"] == written["components"]
    assert named["domain"] == written["domain"]
    spec = geometry.load_metric("param a = 2.0\n" + body.format("a"))
    assert spec.components == geometry.load_metric(body.format("2.0")).components
    assert spec.params == (("a", 2.0),)


def test_metric_file_keywords_need_no_spaces():
    data = expr.parse_metric_source("dim=3\nsignature=0,3\nparam a=2\ng 1 1 : a\n")
    assert data["dim"] == 3 and data["signature"] == (0, 3) and data["params"] == {"a": 2.0}


def _unfolded(node, env):
    """The evaluation of every node as a full jet, each product through
    ``jets.conv``: the reference for the constant folding of ``evaluate``."""
    n = len(env)
    order = jets.order_of(env.shape[-1], n)

    def run(nd):
        if isinstance(nd, Const):
            c = np.zeros(env.shape[1:])
            c[..., 0] = nd.value
            return c
        if isinstance(nd, Var):
            return env[nd.index]
        if isinstance(nd, expr.Neg):
            return -run(nd.arg)
        if isinstance(nd, Call):
            return jets.FUNCTIONS[nd.fn](run(nd.arg), n, order)
        if isinstance(nd, Pow):
            return jets.power(run(nd.base), nd.exponent, n, order)
        a, b = run(nd.left), run(nd.right)
        if nd.op in "+-":
            return a + b if nd.op == "+" else a - b
        return jets.conv(a, b if nd.op == "*" else jets.reciprocal(b, n, order), n, order)

    return run(node)


def _formulas(spec):
    comps = [c for row in spec.components for c in row]
    return comps + [s for _, s in spec.known_scales] + list(spec.domain)


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n]
                         + ["taub_nut_m2"])
def test_constant_folding_keeps_the_full_jet_values(name):
    # bitwise equal up to the sign of zero (adding 0.0 turns -0.0 into 0.0),
    # at single points and at a stack of points
    spec = (geometry.builtin_metric("taub_nut", {"m": 2.0}) if name == "taub_nut_m2"
            else geometry.catalogue_metric(name))
    points = geometry.sample_points(spec, 3, seed=17)
    for order in (1, 2, 4):
        stacked = jets.seed_jets(points, order)
        for node in _formulas(spec):
            batch = evaluate(node, stacked) + 0.0
            for i, pt in enumerate(points):
                env = jets.seed_jets(pt, order)
                ref = _unfolded(node, env) + 0.0
                assert (evaluate(node, env) + 0.0).tobytes() == ref.tobytes()
                assert batch[i].tobytes() == ref.tobytes()


def test_metric_jets_make_no_product_of_two_constants(monkeypatch):
    spec = geometry.builtin_metric("pp_wave")
    products = []
    conv = jets.conv

    def counted(a, b, num_vars, order):
        products.append([not np.any(np.asarray(x)[..., 1:]) for x in (a, b)])
        return conv(a, b, num_vars, order)

    monkeypatch.setattr(jets, "conv", counted)
    geometry.metric_jets(spec, geometry.default_point(spec), 4)
    assert products and not any(all(p) for p in products)


def test_metric_jets_expand_shared_subtrees_once(monkeypatch):
    # the four pp_wave components share exp(-sqrt(2)*t): one order-4 exp
    # (4 products), x^2 (2) and their product (1)
    spec = geometry.builtin_metric("pp_wave")
    calls = []
    conv = jets.conv

    def counted(*args):
        calls.append(args)
        return conv(*args)

    monkeypatch.setattr(jets, "conv", counted)
    geometry.metric_jets(spec, geometry.default_point(spec), 4)
    assert 0 < len(calls) <= 7


@pytest.mark.parametrize("name", [n for n in geometry.catalogue_names() if "(" not in n])
def test_metric_jets_equal_the_components_evaluated_alone(name):
    spec = geometry.catalogue_metric(name)
    points = geometry.sample_points(spec, 2, seed=23)
    for order in (1, 2, 4):
        for pts in (points[0], points):
            G = geometry.metric_jets(spec, pts, order)
            env = jets.seed_jets(pts, order)
            for i, row in enumerate(spec.components):
                for j, node in enumerate(row):
                    want = (np.zeros(G.shape[:-3] + G.shape[-1:]) if expr.is_zero(node)
                            else evaluate(node, env))
                    assert G[..., i, j, :].tobytes() == want.tobytes(), (i, j)


def test_evaluate_expands_an_equal_subtree_once(monkeypatch):
    calls = []
    exp = jets.FUNCTIONS["exp"]

    def counted(*args):
        calls.append(args)
        return exp(*args)

    monkeypatch.setitem(jets.FUNCTIONS, "exp", counted)
    env = jets.seed_jets((0.3, -0.2), 3)
    shared = evaluate(parse("exp(x1)*exp(x1) + exp(x1)/x2", n=2), env)
    assert len(calls) == 1
    monkeypatch.setitem(jets.FUNCTIONS, "exp", exp)
    square = jets.conv(evaluate(parse("exp(x1)", n=2), env), evaluate(parse("exp(x1)", n=2), env),
                       2, 3)
    quotient = jets.conv(evaluate(parse("exp(x1)", n=2), env),
                         jets.reciprocal(env[1], 2, 3), 2, 3)
    assert shared.tobytes() == (square + quotient).tobytes()


def test_equal_nodes_hash_equal_once_hashed():
    a, b = (parse("sin(x1)^2 + x2*m", n=2, params={"m": 2.0}) for _ in range(2))
    assert a is not b and hash(a) == hash(b) and a == b
    assert len({a, b, a.left, b.left}) == 2


def _fold_left(parts, env, combine):
    """The parts evaluated one at a time, combined left to right."""
    out = evaluate(parts[0], env)
    for part in parts[1:]:
        out = combine(out, evaluate(part, env))
    return out


def _terms(count):
    return [f"{(k % 7 + 1) / 8!r}*x{k % 2 + 1}" for k in range(count)]


def _factors(count):
    return [f"(1 + {(k % 5 + 1) / 1e4!r}*x{k % 2 + 1})" for k in range(count)]


def _conv(a, b):
    return jets.conv(a, b, 2, 2)


@pytest.mark.parametrize("shape", ["sum", "product", "square"])
def test_long_trees_round_trip_and_evaluate_without_recursion(shape):
    # each tree is thousands of nodes deep, past the interpreter's recursion
    # limit; the square's factors are equal but distinct 2,000-term sums, so
    # evaluation reuses one and equality compares them node by node
    env = jets.seed_jets((0.3, -0.2), 2)
    if shape == "sum":
        parts = _terms(5000)
        source, want = " + ".join(parts), _fold_left([parse(t, 2) for t in parts], env,
                                                    np.add)
    elif shape == "product":
        parts = _factors(3000)
        source, want = "*".join(parts), _fold_left([parse(f, 2) for f in parts], env, _conv)
    else:
        s = " + ".join(_terms(2000))
        source = f"({s})*({s})"
        half = _fold_left([parse(t, 2) for t in _terms(2000)], env, np.add)
        want = _conv(half, half)
    node = parse(source, 2)
    if shape == "square":
        assert node.left is not node.right and node.left == node.right
    simple = expr.simplify(node)
    printed = to_source(simple)
    back = parse(printed, 2)
    assert back == simple and back is not simple and to_source(back) == printed
    assert evaluate(node, env).tobytes() == want.tobytes()


def test_equal_subtrees_are_printed_and_simplified_apart():
    # 0.0 == -0.0, so the two calls are equal nodes with equal hashes, and
    # evaluation shares one result between them; printing and simplifying
    # keep each where it was
    node = expr.simplify(parse("sin(-0.0) + sin(0.0)", 1))
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    assert node.left == node.right and hash(node.left) == hash(node.right)
    assert to_source(node) == "sin(-0.0) + sin(0.0)"
    assert to_source(expr.simplify(node)) == "sin(-0.0) + sin(0.0)"


def test_repr_keeps_the_dataclass_text():
    node = parse("-sin(x1)^2/3 + m*cosh(x2 - 1.5)", 2, params={"m": 2.0})
    assert repr(node) == (
        "Bin(op='+', left=Bin(op='/', left=Pow(base=Neg(arg=Call(fn='sin', "
        "arg=Var(index=0))), exponent=2), right=Const(value=3.0)), right=Bin(op='*', "
        "left=Const(value=2.0), right=Call(fn='cosh', arg=Bin(op='-', left=Var(index=1), "
        "right=Const(value=1.5)))))")


def _dataclass_repr(node):
    """The text the dataclass-generated ``repr`` gives, written recursively."""
    fields = ", ".join(
        f"{f}={_dataclass_repr(v) if isinstance(v, expr._Tree) else repr(v)}"
        for f in node.__match_args__ for v in [getattr(node, f)])
    return f"{type(node).__qualname__}({fields})"


def test_repr_of_every_catalogue_component_is_the_dataclass_text():
    for name in geometry.catalogue_names(examples=True):
        for row in geometry.catalogue_metric(name).components:
            for component in row:
                assert repr(component) == _dataclass_repr(component), name


def test_repr_of_long_trees_does_not_recurse():
    # the dataclass repr recursed, once per level of the tree
    text = repr(parse(" + ".join(["x1"] * 2000), 1))
    assert text == "Bin(op='+', left=" * 1999 + "Var(index=0)" + ", right=Var(index=0))" * 1999
    # and its text is written once: copying each subtree's text into its
    # parent's took about 2.8 s for this sum on a 2-core x86 machine, writing
    # it once 0.03 s
    long_sum = parse(" + ".join(["x1"] * 20000), 1)
    start = time.perf_counter()
    text = repr(long_sum)
    assert time.perf_counter() - start < 0.5
    assert len(text) == 20000 * len("Var(index=0)") + 19999 * len("Bin(op='+', left=, right=)")
    component = " + ".join(_terms(5000))
    spec = geometry.load_metric(f"dim = 2\nsignature = 0,2\ng 1 1 : 1 + {component}\n"
                                "g 2 2 : 1\n")
    text = repr(spec)
    assert text.startswith("MetricSpec(n=2, signature=(0, 2), components=((Bin(op='+', ")
    assert text.count("Var(index=0)") == 2500 and text.count("Var(index=1)") == 2500
