import hashlib
import os
import random
import re
import sys

import pytest

from cwsolve import (ExpressionError, PartiallyRedundantError,
                     check_irredundant, evaluate, fixture, naive_expression,
                     parse_expression, parse_graph, serialize,
                     serialize_graph, strip_redundant_adds)
from cwsolve.cwexpr import (ADD, LEAF, REN, UNION, CwExpression, _U, _add,
                            _assemble, _ren, _v, edge_key, future_degrees,
                            validate, vertex_weights)
from cwsolve.fvs import solve_fvs
from cwsolve.sigma_rho import (preset_spec, solve_connected_sigma_rho,
                               solve_steiner)

from conftest import (expression, present_masks, random_expression,
                      random_graph, subtree_texts)

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
        assert serialize(expr) == "cwexpr k=1\n(v a 3)\n"
        assert expr.k == 1

    def test_default_weight_is_one(self):
        expr = parse_expression("cwexpr k=1\n(v a)")
        assert serialize(expr) == "cwexpr k=1\n(v a 1)\n"

    def test_edge_creating_term(self):
        expr = parse_expression("cwexpr k=2\n(add 1 2 (u (v a 1) (ren 1 2 (v b 1))))")
        program = expr.program
        assert (program.op[-1], program.i[-1], program.j[-1]) == (ADD, 1, 2)
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
        assert serialize(expr) == "cwexpr k=1\n(v a 2)\n"

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
        assert serialize(expr) == "cwexpr k=1\n(v a 2)\n"

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

    def test_expressions_are_equal_by_k_and_program(self):
        expr = parse_expression(K3_TEXT)
        again = parse_expression(serialize(expr))
        assert again == expr and hash(again) == hash(expr)
        assert len({expr, again, CwExpression(3, expr.program)}) == 2
        assert repr(expr) == "CwExpression(k=2, 8 positions)"

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
        assert stripped.program.op.count(ADD) == 1

    def test_strip_rejects_partial(self):
        text = ("cwexpr k=3\n"
                "(add 1 2 (ren 3 1 (u (add 1 2 (u (v a 1) (ren 1 2 (v b 1))))"
                " (ren 1 3 (v c 1)))))")
        with pytest.raises(PartiallyRedundantError):
            strip_redundant_adds(parse_expression(text))


def _with_extra_adds(rng: random.Random, expr: CwExpression) -> CwExpression:
    """The expression with random adds wrapped around random nodes of its
    text; many of them re-add edges, fully or in part."""
    def maybe_add(text):
        if rng.random() < 0.3:
            i, j = rng.sample(range(1, expr.k + 1), 2)
            return f"(add {i} {j} {text})"
        return text

    return expression(expr.k, subtree_texts(expr, maybe_add)[-1])


def _redundancy_by_evaluation(expr: CwExpression) -> list[tuple[int, str]]:
    """(preorder index, kind) of every add whose cross pairs partly exist,
    in postorder, from the evaluated graph below each add in the text."""
    text = serialize(expr).splitlines()[1]
    spans, opened = [], []  # (start, end) of every node, in postorder
    for at, char in enumerate(text):
        if char == "(":
            opened.append(at)
        elif char == ")":
            spans.append((opened.pop(), at + 1))
    out = []
    for start, end in spans:
        if not text.startswith("(add ", start):
            continue
        _, i, j, child = text[start + 1:end - 1].split(" ", 3)
        graph = evaluate(expression(expr.k, child))
        ci = [v for v, lab in graph.labels.items() if lab == int(i)]
        cj = [v for v, lab in graph.labels.items() if lab == int(j)]
        existing = sum(edge_key(u, v) in graph.edges for u in ci for v in cj)
        if existing:
            kind = "full" if existing == len(ci) * len(cj) else "partial"
            out.append((text.count("(", 0, start), kind))
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
        assert serialize(expr) == "cwexpr k=1\n(v a 4)\n"

    def test_edgeless_graph_has_no_adds(self):
        g = parse_graph("v a\nv b\nv c\n")
        expr = naive_expression(g)
        assert ADD not in expr.program.op

    def test_random_roundtrip_and_irredundancy(self):
        rng = random.Random(400)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng)
            expr = naive_expression(g)
            assert check_irredundant(expr) == []
            out = evaluate(expr)
            assert out.weights == g.weights and out.edges == g.edges


def _unary_count(expr: CwExpression) -> int:
    text = serialize(expr)
    return text.count("(ren ") + text.count("(add ")


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
    """Per (program position, label rank) of a nonempty class, by evaluating
    every subtree's text: how many neighbours the class gains between the
    node and the root."""
    final = evaluate(expr).neighbors()
    rank = {lab: r for r, lab in enumerate(expr.program.labels)}
    out = {}
    for p, text in enumerate(subtree_texts(expr)):
        sub = evaluate(expression(expr.k, text))
        here = sub.neighbors()
        for lab in set(sub.labels.values()):
            members = {v for v, lbl in sub.labels.items() if lbl == lab}
            before = set().union(*(here[v] for v in members))
            after = set().union(*(final[v] for v in members))
            out[p, rank[lab]] = len(after - before - members)
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


def test_the_program_agrees_with_its_text():
    # the child positions a postorder walk of the opcodes finds, and the
    # nonempty label classes of each evaluated subtree
    for expr in _program_corpus():
        program = expr.program
        assert all(len(column) == len(program.op) for column in program[:7])
        finished = []  # positions of finished subtrees, leftmost first
        for p, op in enumerate(program.op):
            arity = {LEAF: 0, UNION: 2}.get(op, 1)
            children = finished[len(finished) - arity:]
            del finished[len(finished) - arity:]
            finished.append(p)
            assert children[-1:] == ([p - 1] if arity else [])
            assert program.left[p] == (children[0] if op == UNION else -1)
            assert (program.name[p] is None) == (op != LEAF) == \
                (program.weight[p] is None)
            if op != REN and op != ADD:
                assert program.j[p] == 0 and (program.i[p] == 0) == (op == UNION)
        assert finished == [len(program.op) - 1]
        assert program.present == present_masks(expr)
        assert parse_expression(serialize(expr)).program == program


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


def test_serialize_writes_what_the_columns_do():
    text = ("; lead\ncwexpr k=3 ; header\n(add 1 2 (u (ren 1 2 (v a)) ; one\n"
            " (ren 2 3 (u (ren 1 2 (v b 4)) (v c 0)))))\n")
    assert serialize(parse_expression(text)) == (
        "cwexpr k=3\n(add 1 2 (u (ren 1 2 (v a 1)) "
        "(ren 2 3 (u (ren 1 2 (v b 4)) (v c 0)))))\n")
    for expr in _program_corpus():
        assert serialize(expr) == f"cwexpr k={expr.k}\n{subtree_texts(expr)[-1]}\n"
        assert serialize(parse_expression(serialize(expr))) == serialize(expr)
    for text in _bench_texts():
        assert serialize(parse_expression(text)) == text


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
    ("(add 2 3 (u (add 1 2 (u (v a 3) (ren 1 2 (v b 2)))) (ren 1 3 (v c 4))))",
     ("a", "c")),
    ("(add 1 2 (add 2 3 (u (ren 2 3 (add 1 2 (u (v a 1) (ren 1 2 (v b 0))))) "
     "(u (v c 2) (ren 1 2 (v d 5))))))", ("a", "d")),
])
def test_the_declared_k_does_not_size_the_dp(body, terminals):
    # the same body at k = 3, under headers far above its labels, and with
    # its labels 1..3 mapped in order to sparse ones, which are ranked back
    # to 1..3: the same answers, witnesses and stats
    answers = []
    for k, sparse in (("3", (1, 2, 3)), ("99999999999999999999", (1, 2, 3)),
                      ("1000000", (1, 2, 3)), ("9", (1, 5, 9)),
                      ("99999999999999999999", (1, 3000000, 99999999999999999999))):
        text = f"cwexpr k={k}\n" + re.sub(
            r"\((ren|add) (\d) (\d)",
            lambda m: f"({m[1]} {sparse[int(m[2]) - 1]} {sparse[int(m[3]) - 1]}",
            body) + "\n"
        expr = parse_expression(text)
        assert serialize(expr) == re.sub(r"\(v (\w+)\)", r"(v \1 1)", text)
        assert expr.max_label <= 3
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
    assert all(answer == answers[0] for answer in answers)


def test_a_redundancy_report_names_the_files_labels():
    body = "(add 5 9 (u (ren 1 5 (v a 1)) (ren 1 9 (v b 1))))"
    expr = expression(9, f"(add 5 9 {body})")
    assert expr.program.labels == (0, 1, 5, 9) and expr.max_label == 3
    assert [(issue.node_index, issue.i, issue.j, issue.kind)
            for issue in check_irredundant(expr)] == [(0, 5, 9, "full")]
    assert serialize(strip_redundant_adds(expr)) == f"cwexpr k=9\n{body}\n"


@pytest.mark.parametrize("nodes, message", [
    ([_v("a"), _ren(0, 1)], "label outside 1..2"),
    ([_v("a"), _ren(1, -2)], "label outside 1..2"),
    ([_v("a"), _add(-1, 2)], "label outside 1..2"),
    ([_v("a"), _ren(1, 3)], "label outside 1..2"),
    # ranked 1 and 2 in the columns, yet the file's label 5 is above k
    ([_v("a"), _v("b"), _U, _add(1, 5)], "label outside 1..2"),
    ([_v("a"), _add(2, 2)], "two distinct labels"),
    ([_v("a"), _v("a"), _U], "duplicate vertex name 'a'"),
    ([_v("a-b")], "bad vertex name 'a-b'"),
    ([_v("a"), _v("b", -1), _U], "negative weight on vertex 'b'"),
])
def test_validate_rejects_malformed_programs(nodes, message):
    expr = CwExpression(2, _assemble(nodes))
    with pytest.raises(ExpressionError, match=message):
        validate(expr)
    with pytest.raises(ExpressionError, match=message):
        check_irredundant(expr)


def _comb(n: int) -> CwExpression:
    """A star whose n - 1 leaves join the hub's side one union at a time, so
    every union's right child is the whole tree so far: n - 1 levels deep."""
    leaves = "".join(f"(u (v v{i}) " for i in range(n - 1, 0, -1))
    return expression(2, f"(add 1 2 {leaves}(ren 1 2 (v v0)){')' * (n - 1)})")


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
    # serialized, parsed again and solved
    parsed = parse_expression(serialize(expr))
    assert parsed == expr
    assert solve_fvs(parsed).fvs_weight == 0


def test_the_generators_text_is_pinned():
    texts = [serialize(fixture(kind, n, seed))
             for kind in ("clique", "path", "cycle", "star", "random-cograph")
             for n in (*range(1, 12), 50, 300) for seed in range(3)]
    rng = random.Random(5)
    texts += [serialize(naive_expression(random_graph(rng.randint(1, 9), rng)))
              for _ in range(50)]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
        "6c3aecf06d7bb0ec1099888a66058e9a8a1cfe0bb5e905b5841ca7442290bd89"
