import os
import random
import re
import sys

import pytest

from cwsolve import (ExpressionError, PartiallyRedundantError,
                     check_irredundant, evaluate, fixture, naive_expression,
                     parse_expression, parse_graph, serialize,
                     serialize_graph, strip_redundant_adds)
from cwsolve.cwexpr import (ADD, LEAF, REN, UNION, AddEdges, CwExpression,
                            Introduce, Relabel, Union, compile_program, edge_key,
                            future_degrees, validate, vertex_weights)
from cwsolve.fvs import solve_fvs
from cwsolve.sigma_rho import (preset_spec, solve_connected_sigma_rho,
                               solve_steiner)

from conftest import (fold, folded, iter_postorder, iter_preorder,
                      program_nodes, random_expression, random_graph)

K3_TEXT = """cwexpr k=2
(add 1 2 (u (ren 2 1 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))
            (ren 1 2 (v c 1))))
"""

DOUBLE_ADD_TEXT = """cwexpr k=2
(add 1 2 (add 1 2 (u (v a 1) (ren 1 2 (v b 1)))))
"""


class TestParse:
    def test_single_introduce(self):
        expr = parse_expression("cwexpr k=1\n(v a 3)\n")
        assert expr.root == Introduce("a", 3)
        assert expr.k == 1

    def test_default_weight_is_one(self):
        assert parse_expression("cwexpr k=1\n(v a)").root == Introduce("a", 1)

    def test_edge_creating_term(self):
        expr = parse_expression("cwexpr k=2\n(add 1 2 (u (v a 1) (ren 1 2 (v b 1))))")
        root = expr.root
        assert isinstance(root, AddEdges) and (root.i, root.j) == (1, 2)
        g = evaluate(expr)
        assert g.edges == {("a", "b")}

    def test_equal_labels_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("cwexpr k=1\n(ren 1 1 (v a 1))")

    def test_label_above_declared_k_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("cwexpr k=2\n(ren 1 3 (v a 1))")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("cwexpr k=1\n(u (v a 1) (v a 1))")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExpressionError, match=r"line 2"):
            parse_expression("cwexpr k=1\n(v a 1")

    def test_bad_token_on_line_three_reports_line_and_column(self):
        text = "cwexpr k=2\n(add 1 2\n  (u (v a 1) (ren 1 x (v b 1))))\n"
        with pytest.raises(ExpressionError) as info:
            parse_expression(text)
        assert str(info.value) == "line 3 col 21: expected an integer, got 'x'"

    def test_token_after_a_comment_reports_line_and_column(self):
        text = "; lead\ncwexpr k=1 ; header\n(u (v a) ; one (v b)\n\t(v a))"
        with pytest.raises(ExpressionError) as info:
            parse_expression(text)
        assert str(info.value) == "line 4 col 5: duplicate vertex name 'a'"
        with pytest.raises(ExpressionError) as info:
            parse_expression("cwexpr k=1\n; (v a)\n(u (v a) ; (v b)\n (w b))")
        assert str(info.value) == "line 4 col 3: unknown operator 'w'"

    def test_comment_ends_a_token(self):
        expr = parse_expression("cwexpr k=1\n(v a 2;c)\n)")
        assert expr.root == Introduce("a", 2)

    # int() reads the Arabic-Indic digits ٣ (3) and ١ (1); only ASCII counts
    @pytest.mark.parametrize("text, message", [
        ("cwexpr k=1\n(v a ٣)", "line 2 col 6: expected an integer, got '٣'"),
        ("cwexpr k=2\n(ren ١ 2 (v a))",
         "line 2 col 6: expected an integer, got '١'"),
        ("cwexpr k=٣\n(v a)", "line 1: expected header 'cwexpr k=<K>'"),
    ])
    def test_non_ascii_digits_rejected(self, text, message):
        with pytest.raises(ExpressionError) as info:
            parse_expression(text)
        assert str(info.value) == message

    def test_missing_header_rejected(self):
        with pytest.raises(ExpressionError, match="header"):
            parse_expression("(v a 1)")

    def test_comments_ignored(self):
        expr = parse_expression("cwexpr k=1 ; header\n; intro\n(v a 2) ; done")
        assert expr.root == Introduce("a", 2)

    def test_error_positions_under_unicode_whitespace_and_comments(self):
        # tokens split at every character str.isspace() accepts, as \s does
        text = ("cwexpr k=2 ; header\n(u\u00a0(v a)\u3000; (v z) ;\n"
                "\x1f(ren 1\u00a0x (v b)))\n")
        with pytest.raises(ExpressionError) as info:
            parse_expression(text)
        assert str(info.value) == "line 3 col 9: expected an integer, got 'x'"
        text = "cwexpr k=2\n(u (v a)\x1f;\u3000(v b)\n\u00a0\u3000(v\u00a0a))"
        with pytest.raises(ExpressionError) as info:
            parse_expression(text)
        assert str(info.value) == "line 3 col 6: duplicate vertex name 'a'"

    def test_error_positions_point_at_the_offending_token(self):
        # a late token replaced in a randomly spaced file: the reported
        # line and column start the token the message names
        spaces = (" ", "\t", "\n", "\u00a0", "\u3000", "\x1f", " ; (v q) x\u00a0;\n")
        rng, checked = random.Random(4646), 0
        for _ in range(300):
            expr = random_expression(rng, rng.randint(1, 8), rng.randint(2, 4))
            tokens = serialize(expr).split("\n")[1].replace("(", " ( ").replace(
                ")", " ) ").split()
            tokens[rng.randrange(len(tokens) // 2, len(tokens))] = rng.choice(
                ("x", "w", "(", ")", "9", "v1", "0"))
            text = "cwexpr k=4\n" + "".join(tok + rng.choice(spaces) for tok in tokens)
            try:
                parse_expression(text)
            except ExpressionError as exc:
                found = re.match(r"line (\d+) col (\d+): (.*)", str(exc))
                if found is None:  # the end of input has no column
                    continue
                line = text.splitlines()[int(found[1]) - 1]
                col = int(found[2])
                assert col == 1 or line[col - 2].isspace(), str(exc)
                token = re.match(r"[()]|[^\s();]+", line[col - 1:])[0]
                named = re.search(r"(?:got|operator|name) '(.*)'$", found[3])
                label = re.match(r"label (\d+) outside", found[3])
                assert token == (named[1] if named else label[1] if label
                                 else token), str(exc)
                checked += 1
        assert checked > 200

    def test_roundtrip_identity(self):
        expr = parse_expression(K3_TEXT)
        assert parse_expression(serialize(expr)) == expr

    def test_an_expression_takes_one_of_root_and_program(self):
        expr = parse_expression(K3_TEXT)
        built = CwExpression(expr.k, expr.root)
        assert built == expr and hash(built) == hash(expr)
        assert len({expr, built, CwExpression(3, expr.root)}) == 2
        assert repr(expr) == "CwExpression(k=2, 8 positions)"
        with pytest.raises(ValueError):
            CwExpression(2)
        with pytest.raises(ValueError):
            CwExpression(2, expr.root, expr.program)

    def test_deep_nesting_beyond_recursion_limit(self):
        expr = fixture("clique", 400)  # operator depth around 1600
        g = evaluate(parse_expression(serialize(expr)))
        assert g.n == 400 and len(g.edges) == 400 * 399 // 2


class TestEvaluate:
    def test_k3_expression(self):
        g = evaluate(parse_expression(K3_TEXT))
        assert g.n == 3 and len(g.edges) == 3

    def test_single_vertex(self):
        g = evaluate(parse_expression("cwexpr k=1\n(v a 5)"))
        assert g.weights == {"a": 5} and not g.edges

    def test_add_with_empty_class_is_noop(self):
        g = evaluate(parse_expression("cwexpr k=2\n(add 1 2 (v a 1))"))
        assert not g.edges

    def test_labels_tracked_through_relabel(self):
        g = evaluate(parse_expression("cwexpr k=3\n(ren 1 3 (v a 1))"))
        assert g.labels == {"a": 3}


class TestIrredundancy:
    def test_clean_expression(self):
        assert check_irredundant(parse_expression(K3_TEXT)) == []

    def test_double_add_flags_outer_only(self):
        issues = check_irredundant(parse_expression(DOUBLE_ADD_TEXT))
        assert [issue.kind for issue in issues] == ["full"]
        assert issues[0].node_index == 0  # the outer add in preorder

    def test_partially_redundant_detected(self):
        # a-b exists, then c joins a's class: the re-add covers a-b (old) and
        # c-b (new).
        text = ("cwexpr k=3\n"
                "(add 1 2 (ren 3 1 (u (add 1 2 (u (v a 1) (ren 1 2 (v b 1))))"
                " (ren 1 3 (v c 1)))))")
        issues = check_irredundant(parse_expression(text))
        assert [issue.kind for issue in issues] == ["partial"]

    def test_strip_keeps_clean_expression(self):
        expr = parse_expression(K3_TEXT)
        assert strip_redundant_adds(expr) == expr

    def test_strip_removes_fully_redundant(self):
        expr = parse_expression(DOUBLE_ADD_TEXT)
        stripped = strip_redundant_adds(expr)
        assert check_irredundant(stripped) == []
        assert evaluate(stripped).edges == evaluate(expr).edges
        adds = [n for n in iter_preorder(stripped.root) if isinstance(n, AddEdges)]
        assert len(adds) == 1

    def test_strip_rejects_partial(self):
        text = ("cwexpr k=3\n"
                "(add 1 2 (ren 3 1 (u (add 1 2 (u (v a 1) (ren 1 2 (v b 1))))"
                " (ren 1 3 (v c 1)))))")
        with pytest.raises(PartiallyRedundantError):
            strip_redundant_adds(parse_expression(text))


def _with_extra_adds(rng: random.Random, expr: CwExpression) -> CwExpression:
    """The expression with random adds wrapped around random nodes; many of
    them re-add edges, fully or in part."""
    def maybe_add(node):
        if rng.random() < 0.3:
            i, j = rng.sample(range(1, expr.k + 1), 2)
            return AddEdges(i, j, node)
        return node

    root = fold(expr.root,
                maybe_add,
                lambda node, child: maybe_add(Relabel(node.i, node.j, child)),
                lambda node, child: maybe_add(AddEdges(node.i, node.j, child)),
                lambda node, left, right: maybe_add(Union(left, right)))
    return CwExpression(expr.k, root)


def _redundancy_by_evaluation(expr: CwExpression) -> list[tuple[int, str]]:
    """(preorder index, kind) of every add whose cross pairs partly exist,
    in postorder, from the evaluated graph below each add."""
    order = {id(node): idx for idx, node in enumerate(iter_preorder(expr.root))}
    out = []
    for node in iter_postorder(expr.root):
        if not isinstance(node, AddEdges):
            continue
        graph = evaluate(CwExpression(expr.k, node.child))
        ci = [v for v, lab in graph.labels.items() if lab == node.i]
        cj = [v for v, lab in graph.labels.items() if lab == node.j]
        existing = sum(edge_key(u, v) in graph.edges for u in ci for v in cj)
        if existing:
            kind = "full" if existing == len(ci) * len(cj) else "partial"
            out.append((order[id(node)], kind))
    return out


def test_check_irredundant_matches_evaluated_pair_counts():
    rng = random.Random(4141)
    kinds = set()
    for _ in range(150):
        k = rng.randint(2, 4)
        expr = _with_extra_adds(rng, random_expression(rng, rng.randint(1, 9), k))
        expected = _redundancy_by_evaluation(expr)
        got = check_irredundant(expr)
        assert [(issue.node_index, issue.kind) for issue in got] == expected
        kinds.update(kind for _, kind in expected)
    assert kinds == {"full", "partial"}


class TestNaiveExpression:
    def test_triangle_roundtrip(self):
        g = parse_graph("v a 1\nv b 1\nv c 1\ne a b\ne b c\ne a c\n")
        expr = naive_expression(g)
        assert expr.k == 3
        out = evaluate(expr)
        assert out.weights == g.weights and out.edges == g.edges

    def test_single_vertex(self):
        g = parse_graph("v a 4\n")
        expr = naive_expression(g)
        assert expr.root == Introduce("a", 4) and expr.k == 1

    def test_edgeless_graph_has_no_adds(self):
        g = parse_graph("v a\nv b\nv c\n")
        expr = naive_expression(g)
        assert not any(isinstance(n, AddEdges) for n in iter_preorder(expr.root))

    def test_random_roundtrip_and_irredundancy(self):
        rng = random.Random(400)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng)
            expr = naive_expression(g)
            assert check_irredundant(expr) == []
            out = evaluate(expr)
            assert out.weights == g.weights and out.edges == g.edges


def _unary_count(expr: CwExpression) -> int:
    return sum(isinstance(n, (Relabel, AddEdges)) for n in iter_preorder(expr.root))


class TestFixtures:
    def test_clique_evaluates_to_complete_graph(self):
        expr = fixture("clique", 4)
        assert expr.k == 2
        g = evaluate(expr)
        assert g.n == 4 and len(g.edges) == 6

    def test_path_n2_is_single_edge(self):
        expr = fixture("path", 2)
        assert expr.k <= 3
        g = evaluate(expr)
        assert len(g.edges) == 1

    def test_cycle_n3_is_triangle(self):
        g = evaluate(fixture("cycle", 3))
        assert g.n == 3 and len(g.edges) == 3

    @pytest.mark.parametrize("kind,n,edges", [
        ("path", 5, 4), ("cycle", 5, 5), ("star", 5, 4), ("clique", 5, 10)])
    def test_edge_counts(self, kind, n, edges):
        assert len(evaluate(fixture(kind, n)).edges) == edges

    def test_every_fixture_is_irredundant(self):
        for kind in ("clique", "path", "cycle", "star", "random-cograph"):
            for n in range(1, 9):
                assert check_irredundant(fixture(kind, n, seed=n)) == [], (kind, n)

    def test_cograph_deterministic_in_seed(self):
        assert fixture("random-cograph", 8, 5) == fixture("random-cograph", 8, 5)
        assert fixture("random-cograph", 8, 5) != fixture("random-cograph", 8, 6)

    def test_clique_unary_count_linear(self):
        for n in (2, 10, 40):
            assert _unary_count(fixture("clique", n)) <= 3 * n

    def test_unary_counts_within_quadratic_budget(self):
        for kind in ("path", "cycle", "star", "random-cograph"):
            for n in (2, 8, 20):
                expr = fixture(kind, n, seed=1)
                assert _unary_count(expr) <= 4 * n * expr.k * expr.k

    def test_serialize_parse_roundtrip_fixtures(self):
        rng = random.Random(77)
        for _ in range(1000):
            kind = rng.choice(("clique", "path", "cycle", "star", "random-cograph"))
            expr = fixture(kind, rng.randint(1, 12), seed=rng.randint(0, 5))
            assert parse_expression(serialize(expr)) == expr


class TestGraphFiles:
    def test_roundtrip(self):
        g = parse_graph("v a 2\nv b 1\ne a b\n")
        assert parse_graph(serialize_graph(g)).weights == g.weights

    def test_bad_lines_rejected(self):
        with pytest.raises(ExpressionError):
            parse_graph("x nonsense\n")
        with pytest.raises(ExpressionError):
            parse_graph("v a\ne a a\n")
        with pytest.raises(ExpressionError):
            parse_graph("e a b\n")

    @pytest.mark.parametrize("weight", ["²", "٣"])
    def test_a_weight_must_be_ascii_digits(self, weight):
        # "²".isdigit() holds, yet int("²") fails
        with pytest.raises(ExpressionError) as info:
            parse_graph(f"v a 1\nv b {weight}\n")
        assert str(info.value) == f"line 2: bad weight {weight!r}"


def _gained_neighbours(expr: CwExpression) -> dict[tuple[int, int], int]:
    """Per (program position, label) of a nonempty class, by evaluating
    every subtree: how many neighbours the class gains between the node and
    the root."""
    final = evaluate(expr).neighbors()
    out = {}
    for p, node in enumerate(program_nodes(expr.root)):
        sub = evaluate(CwExpression(expr.k, node))
        here = sub.neighbors()
        for lab in set(sub.labels.values()):
            members = {v for v, lbl in sub.labels.items() if lbl == lab}
            before = set().union(*(here[v] for v in members))
            after = set().union(*(final[v] for v in members))
            out[p, lab] = len(after - before - members)
    return out


def test_future_degrees_match_evaluated_neighbour_counts():
    rng = random.Random(4242)
    exprs = [random_expression(rng, rng.randint(1, 9), k)
             for k in range(2, 6) for _ in range(15)]
    exprs += [naive_expression(random_graph(rng.randint(1, 7), rng))
              for _ in range(15)]
    exprs += [fixture(kind, n, seed=n)
              for kind in ("clique", "path", "cycle", "star", "random-cograph")
              for n in range(1, 8)]
    for expr in exprs:
        assert check_irredundant(expr) == []
        fut = future_degrees(expr)
        for (p, lab), gained in _gained_neighbours(expr).items():
            assert fut[p][lab - 1] == gained, serialize(expr)


def test_vertex_weights_match_the_evaluated_graph():
    rng = random.Random(4343)
    exprs = [random_expression(rng, rng.randint(1, 9), k) for k in range(2, 5)]
    exprs += [naive_expression(random_graph(rng.randint(1, 7), rng))
              for _ in range(10)]
    exprs += [fixture(kind, 6, seed=1) for kind in ("clique", "random-cograph")]
    for expr in exprs:
        assert vertex_weights(expr) == evaluate(expr).weights


def _program_corpus():
    rng = random.Random(4444)
    exprs = [random_expression(rng, rng.randint(1, 9), k)
             for k in range(2, 6) for _ in range(10)]
    exprs += [naive_expression(random_graph(rng.randint(1, 7), rng))
              for _ in range(10)]
    exprs += [fixture(kind, n, seed=n)
              for kind in ("clique", "path", "cycle", "star", "random-cograph")
              for n in (1, 2, 7)]
    return exprs


def _recursive_postorder(node):
    for child in (getattr(node, "left", None), getattr(node, "right", None),
                  getattr(node, "child", None)):
        if child is not None:
            yield from _recursive_postorder(child)
    yield node


def test_iter_postorder_is_left_before_right():
    for expr in _program_corpus():
        assert [id(n) for n in iter_postorder(expr.root)] == \
            [id(n) for n in _recursive_postorder(expr.root)]


def test_the_program_agrees_with_the_postorder_nodes():
    # a position per tree node in postorder, but a folded relabel
    # Relabel(1, x, Introduce(...)) is one leaf whose i is its label x
    opcodes = {Introduce: LEAF, Relabel: REN, AddEdges: ADD, Union: UNION}
    for expr in _program_corpus():
        program = expr.program
        assert program is expr.program  # compiled once
        nodes = program_nodes(expr.root)
        assert len(program.op) == len(nodes)
        assert all(len(column) == len(nodes) for column in program)
        for p, node in enumerate(nodes):
            leaf = node.child if folded(node) else node
            if isinstance(leaf, Introduce):
                assert program.op[p] == LEAF
                assert (program.i[p], program.j[p]) == (
                    (node.j if folded(node) else 1), 0)
                assert (program.name[p], program.weight[p]) == (
                    leaf.name, leaf.weight)
            else:
                assert program.op[p] == opcodes[type(node)]
                unary = isinstance(node, (Relabel, AddEdges))
                assert (program.i[p], program.j[p]) == (
                    (node.i, node.j) if unary else (0, 0))
                assert program.name[p] is program.weight[p] is None
                if unary:
                    assert nodes[p - 1] is node.child
            if isinstance(node, Union):
                assert nodes[p - 1] is node.right
                assert nodes[program.left[p]] is node.left
            else:
                assert program.left[p] == -1
            labels = evaluate(CwExpression(expr.k, node)).labels.values()
            assert program.present[p] == sum({1 << lab for lab in labels})
        assert nodes[-1] is expr.root


def _bench_texts() -> list[str]:
    """The expression files of the three benchmark workloads at seed 1."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return sorted({inst.expr.text for workload in workloads.WORKLOADS
                   for inst in workloads.build(workload, 1)})


def _tree_text(expr: CwExpression) -> str:
    """The file text of ``expr`` written from its tree, as the serializer
    wrote it before it read the program."""
    parts, stack = [], [expr.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Introduce):
            parts.append(f"(v {item.name} {item.weight})")
        elif isinstance(item, Union):
            parts.append("(u")
            stack += (")", item.right, item.left)
        else:
            op = "ren" if isinstance(item, Relabel) else "add"
            parts.append(f"({op} {item.i} {item.j}")
            stack += (")", item.child)
    body = " ".join(parts).replace(" )", ")")
    return f"cwexpr k={expr.k}\n{body}\n"


def test_parsed_columns_equal_the_compiled_tree():
    texts = [serialize(expr) for expr in _program_corpus()] + _bench_texts()
    for text in texts:
        parsed = parse_expression(text)
        assert parsed.program == compile_program(parsed.root)
        assert CwExpression(parsed.k, parsed.root) == parsed
    for expr in _program_corpus():
        assert parse_expression(serialize(expr)).program == expr.program


def test_serialize_writes_what_the_tree_does():
    text = ("; lead\ncwexpr k=3 ; header\n(add 1 2 (u (ren 1 2 (v a)) ; one\n"
            " (ren 2 3 (u (ren 1 2 (v b 4)) (v c 0)))))\n")
    assert serialize(parse_expression(text)) == (
        "cwexpr k=3\n(add 1 2 (u (ren 1 2 (v a 1)) "
        "(ren 2 3 (u (ren 1 2 (v b 4)) (v c 0)))))\n")
    for expr in _program_corpus():
        assert serialize(expr) == _tree_text(expr)
        assert serialize(parse_expression(serialize(expr))) == _tree_text(expr)
    for text in _bench_texts():
        parsed = parse_expression(text)
        assert serialize(parsed) == _tree_text(parsed)


@pytest.mark.parametrize("body, ops, labels, present", [
    ("(ren 1 2 (v a))", [LEAF], [2], [0b100]),
    # a relabel from any label but 1 stays, even over a leaf
    ("(ren 2 3 (v a))", [LEAF, REN], [1, 2], [0b10, 0b10]),
    ("(ren 2 1 (ren 1 2 (v a)))", [LEAF, REN], [2, 2], [0b100, 0b10]),
    # only the inner relabel of two over one leaf folds
    ("(ren 1 3 (ren 1 2 (v a)))", [LEAF, REN], [2, 1], [0b100, 0b100]),
    ("(ren 1 2 (u (v a) (v b)))", [LEAF, LEAF, UNION, REN], [1, 1, 0, 1],
     [0b10, 0b10, 0b10, 0b100]),
    ("(u (ren 1 3 (v a)) (add 1 2 (v b)))", [LEAF, LEAF, ADD, UNION],
     [3, 1, 1, 0], [0b1000, 0b10, 0b10, 0b1010]),
])
def test_only_a_relabel_from_1_of_a_leaf_folds(body, ops, labels, present):
    text = f"cwexpr k=3\n{body}\n"
    expr = parse_expression(text)
    assert expr.program.op == ops
    assert expr.program.i == labels
    assert expr.program.present == present
    assert serialize(expr) == text.replace("(v a)", "(v a 1)").replace(
        "(v b)", "(v b 1)")
    assert compile_program(expr.root) == expr.program


def test_the_rebuilt_tree_keeps_every_relabel():
    expr = parse_expression("cwexpr k=3\n(ren 1 3 (ren 1 2 (v a)))\n")
    assert expr.root == Relabel(1, 3, Relabel(1, 2, Introduce("a")))
    expr = parse_expression("cwexpr k=2\n(u (ren 1 2 (v a)) (v b 4))\n")
    assert expr.root == Union(Relabel(1, 2, Introduce("a")), Introduce("b", 4))


def test_a_redundant_add_right_of_a_folded_leaf_keeps_its_node_index():
    # preorder: u, ren, v a, add (index 3), add, u, v b, ren, v c
    text = ("cwexpr k=2\n(u (ren 1 2 (v a)) (add 1 2 (add 1 2 "
            "(u (v b) (ren 1 2 (v c))))))\n")
    issues = check_irredundant(parse_expression(text))
    assert [(issue.node_index, issue.kind) for issue in issues] == [(3, "full")]
    rng = random.Random(4145)
    for _ in range(60):
        expr = _with_extra_adds(rng, random_expression(
            rng, rng.randint(1, 9), rng.randint(2, 4)))
        assert check_irredundant(parse_expression(serialize(expr))) == \
            check_irredundant(expr)


@pytest.mark.parametrize("body, terminals", [
    ("(v a)", ("a",)),
    ("(u (v a) (v b))", ("a", "b")),
    ("(add 1 2 (u (v a 3) (ren 1 2 (v b 2))))", ("a", "b")),
    ("(add 1 2 (u (u (v a) (v c 4)) (ren 1 2 (v b 2))))", ("a", "c")),
])
def test_the_declared_k_does_not_size_the_dp(body, terminals):
    # the same body at k = 2 and under headers far above its labels
    answers = []
    for k in ("2", "99999999999999999999", "1000000"):
        expr = parse_expression(f"cwexpr k={k}\n{body}\n")
        assert serialize(expr).startswith(f"cwexpr k={k}\n")
        assert expr.max_label <= 2
        fvs = solve_fvs(expr, with_witness=True)
        out = [(fvs.fvs_weight, fvs.witness, fvs.stats.as_dict())]
        for problem in ("cds", "cvc"):
            res = solve_connected_sigma_rho(expr, preset_spec(problem),
                                            with_witness=True)
            out.append((res.optimum, res.witness, res.stats.as_dict()))
        res = solve_steiner(expr, terminals, with_witness=True)
        out.append((res.optimum, res.witness, res.stats.as_dict()))
        for _, _, stats in out:
            stats.pop("elapsed_ms")
        answers.append(out)
    assert answers[1] == answers[0] and answers[2] == answers[0]


@pytest.mark.parametrize("root, message", [
    (Relabel(0, 1, Introduce("a")), "label outside 1..2"),
    (Relabel(1, -2, Introduce("a")), "label outside 1..2"),
    (AddEdges(-1, 2, Introduce("a")), "label outside 1..2"),
    (Relabel(1, 3, Introduce("a")), "label outside 1..2"),
    (AddEdges(2, 2, Introduce("a")), "two distinct labels"),
    (Union(Introduce("a"), Introduce("a")), "duplicate vertex name 'a'"),
    (Introduce("a-b"), "bad vertex name 'a-b'"),
    (Union(Introduce("a"), Introduce("b", -1)), "negative weight on vertex 'b'"),
])
def test_validate_rejects_malformed_trees(root, message):
    expr = CwExpression(2, root)
    with pytest.raises(ExpressionError, match=message):
        validate(expr)
    with pytest.raises(ExpressionError, match=message):
        check_irredundant(expr)


def _comb(n: int) -> CwExpression:
    """A star whose n - 1 leaves join the hub's side one union at a time, so
    every union's right child is the whole tree so far: n - 1 levels deep."""
    cur = Relabel(1, 2, Introduce("v0"))
    for i in range(1, n):
        cur = Union(Introduce(f"v{i}"), cur)
    return CwExpression(2, AddEdges(1, 2, cur))


@pytest.mark.parametrize("expr", [fixture("path", 5000), _comb(3000)],
                         ids=["path-5000", "comb-3000"])
def test_deep_expressions_need_no_recursion(expr):
    n = len(vertex_weights(expr))
    validate(expr)
    assert check_irredundant(expr) == []
    fut = future_degrees(expr)
    assert len(fut) == len(expr.program.op) and fut[-1] == (0,) * expr.k
    for use_reduce in (True, False):
        res = solve_fvs(expr, use_reduce=use_reduce)
        assert res.fvs_weight == 0  # a path and a star are forests
        assert res.stats.dp_nodes == len(expr.program.op)
        assert res.stats.node_kinds["introduce"] == n
    # parsed, its tree rebuilt and compiled again, and solved
    parsed = parse_expression(serialize(expr))
    assert parsed == expr and compile_program(parsed.root) == expr.program
    assert solve_fvs(parsed).fvs_weight == 0
