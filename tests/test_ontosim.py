import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from conftest import exact_match_sim, li_adapted_sim, random_dag
from stsbench.ontosim import (
    EmptyInputError,
    Taxonomy,
    TaxonomyError,
    WordSimMeasure,
    com,
    load_lexicon,
    load_taxonomy,
    semantic_vector_sim,
    wbsm,
)

#        root
#       /    \
#      a      b
#     / \    / \
#    c   d  e   f
#         \ |
#          g
TREE = [("a", "root"), ("b", "root"), ("c", "a"), ("d", "a"),
        ("e", "b"), ("f", "b"), ("g", "d"), ("g", "e")]


@pytest.fixture
def tax():
    return Taxonomy(TREE)


def test_structure(tax):
    assert tax.root == "root"
    assert tax.max_depth == 3
    assert tax.depth("g") == 3
    assert tax.depth("a") == 1
    assert tax.total_leaves == 3  # c, f, g
    assert tax.leaf_count("root") == 3
    assert tax.leaf_count("a") == 2  # c and g
    assert tax.leaf_count("g") == 1
    assert tax.subsumer_count("root") == 1
    assert tax.subsumer_count("c") == 3  # c, a, root
    assert tax.subsumer_count("g") == 6  # g, d, e, a, b, root
    assert tax.ancestors("g") == frozenset({"g", "d", "e", "a", "b", "root"})


def test_shortest_paths(tax):
    assert tax.shortest_path_len("c", "c") == 0
    assert tax.shortest_path_len("c", "a") == 1
    assert tax.shortest_path_len("c", "d") == 2
    assert tax.shortest_path_len("c", "f") == 4
    assert tax.shortest_path_len("g", "f") == 3  # g-e-b-f
    assert tax.shortest_path_len("f", "g") == 3


def test_ic_sanchez(tax):
    assert tax.ic_sanchez("root") == 0.0
    # leaves/subsumers shrinks down the taxonomy, so IC grows
    expected = -math.log((2 / 2 + 1) / 4)
    assert tax.ic_sanchez("a") == pytest.approx(expected, abs=1e-12)
    assert tax.ic_max() == max(tax.ic_sanchez(n) for n in tax.nodes)


def test_ic_max_and_leaf_counts_agree_in_either_order(rng):
    # one lazy pass gives both, whichever is asked for first
    for edges in [TREE] + [random_dag(rng, int(rng.integers(2, 60))) for _ in range(10)]:
        ic_first, counts_first = Taxonomy(edges), Taxonomy(edges)
        ic = ic_first.ic_max()
        counts = [counts_first.leaf_count(n) for n in sorted(counts_first.nodes)]
        assert [ic_first.leaf_count(n) for n in sorted(ic_first.nodes)] == counts
        assert counts_first.ic_max() == ic


def test_ic_monotone_on_edges(tax):
    for child, parent in TREE:
        assert tax.ic_sanchez(child) >= tax.ic_sanchez(parent) - 1e-12


def test_taxonomy_errors():
    with pytest.raises(TaxonomyError, match="no nodes"):
        Taxonomy([])
    with pytest.raises(TaxonomyError, match="exactly one root"):
        Taxonomy([("a", "r1"), ("b", "r2")])
    with pytest.raises(TaxonomyError, match="cycle|exactly one root"):
        Taxonomy([("b", "a"), ("a", "b"), ("c", "a")])
    t = Taxonomy(TREE)
    with pytest.raises(TaxonomyError, match="unknown concept"):
        t.depth("nope")


def test_taxonomy_cycle_below_root():
    with pytest.raises(TaxonomyError, match="cycle"):
        Taxonomy([("a", "root"), ("b", "a"), ("c", "b"), ("b", "c")])


def test_taxonomy_cycle_unreachable_from_root():
    # a and b each have a parent, so root is the only root; the topological
    # pass never reaches the cycle
    with pytest.raises(TaxonomyError, match="cycle"):
        Taxonomy([("x", "root"), ("a", "b"), ("b", "a")])


def test_one_edge_taxonomy():
    tax = Taxonomy([("a", "root")])
    assert tax.max_depth == 1
    assert tax.ic_max() > 0
    lexicon = {"child": frozenset({"a"}), "top": frozenset({"root"})}
    assert WordSimMeasure("rada", tax, lexicon).word_sim("child", "top") == 0.5
    assert WordSimMeasure("jiang-conrath", tax, lexicon).word_sim("child", "child") == 1.0


def test_taxonomy_file_round_trip(tmp_path):
    p = tmp_path / "tax.tsv"
    p.write_text("# taxonomy\n" + "\n".join(f"{c}\t{q}" for c, q in TREE) + "\n", encoding="utf-8")
    t = load_taxonomy(p)
    assert t.nodes == Taxonomy(TREE).nodes
    bad = tmp_path / "bad.tsv"
    bad.write_text("a b c\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="child<TAB>parent"):
        load_taxonomy(bad)


def test_taxonomy_file_with_bom(tmp_path):
    p = tmp_path / "tax.tsv"
    p.write_text("b\troot\na\tb\n", encoding="utf-8-sig")
    assert load_taxonomy(p).nodes == {"root", "a", "b"}


def test_lexicon_load(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("# lexicon\ncat\tc\ndog\td,e\n", encoding="utf-8")
    lex = load_lexicon(p)
    assert lex == {"cat": frozenset({"c"}), "dog": frozenset({"d", "e"})}
    bad = tmp_path / "bad.tsv"
    bad.write_text("cat\n", encoding="utf-8")
    with pytest.raises(TaxonomyError):
        load_lexicon(bad)


def test_lexicon_surface_form_given_twice(tmp_path):
    # keeping the last line would silently change WBSM and UBSM scores
    p = tmp_path / "lex.tsv"
    p.write_text("cat\tc\n# comment\ndog\td\ncat\td\n", encoding="utf-8")
    with pytest.raises(TaxonomyError) as err:
        load_lexicon(p)
    assert str(err.value) == f"{p}:4: surface form 'cat' given twice"


def test_lexicon_file_with_bom(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("cat\tc\n", encoding="utf-8-sig")
    assert load_lexicon(p) == {"cat": frozenset({"c"})}


def test_word_measure_validation(tax):
    with pytest.raises(ValueError, match="kind"):
        WordSimMeasure("path", tax, {})
    with pytest.raises(TaxonomyError, match="not in taxonomy"):
        WordSimMeasure("rada", tax, {"cat": frozenset({"missing"})})


@pytest.fixture
def lexicon():
    return {"cat": frozenset({"c"}), "dog": frozenset({"d"}),
            "pet": frozenset({"a"}), "ambiguous": frozenset({"c", "f"})}


def test_rada_word_sim(tax, lexicon):
    m = WordSimMeasure("rada", tax, lexicon)
    assert m.word_sim("cat", "cat") == 1.0
    # path c-a-d of length 2, max depth 3
    assert m.word_sim("cat", "dog") == pytest.approx(1.0 - 2 / 6)
    assert m.word_sim("cat", "pet") == pytest.approx(1.0 - 1 / 6)


def test_multi_concept_takes_best_pair(tax, lexicon):
    m = WordSimMeasure("rada", tax, lexicon)
    # ambiguous maps to {c, f}; against cat the c-c pair wins with sim 1
    assert m.word_sim("ambiguous", "cat") == 1.0


def test_word_and_concept_code_share_one_path_search(tax, lexicon, monkeypatch):
    # "cat" and its concept code "c" are one concept, so the concept-pair memo
    # searches the path from c to d once, in whichever order the words come
    calls = []
    search = Taxonomy.shortest_path_len

    def counted(t, a, b):
        calls.append((a, b))
        return search(t, a, b)

    monkeypatch.setattr(Taxonomy, "shortest_path_len", counted)
    m = WordSimMeasure("rada", tax, {**lexicon, "c": frozenset({"c"})})
    assert m.word_sim("cat", "dog") == m.word_sim("c", "dog") == m.word_sim("dog", "c")
    assert calls == [("c", "d")]


def test_unmapped_word_fallback(tax, lexicon):
    for kind in ("rada", "jiang-conrath"):
        m = WordSimMeasure(kind, tax, lexicon)
        assert m.word_sim("zebra", "zebra") == 1.0
        assert m.word_sim("zebra", "yak") == 0.0
        assert m.word_sim("zebra", "cat") == 0.0


def test_jiang_conrath_word_sim(tax, lexicon):
    m = WordSimMeasure("jiang-conrath", tax, lexicon)
    assert m.word_sim("cat", "cat") == 1.0
    ic = tax.ic_sanchez
    d = ic("c") + ic("d") - 2 * ic("a")  # MICA of c and d is a
    expected = 1.0 - min(1.0, d / (2 * tax.ic_max()))
    assert m.word_sim("cat", "dog") == pytest.approx(expected, abs=1e-12)


def test_semantic_vector_sim_binary_case(rng):
    # 0/1 word similarity reduces the semantic vectors to indicator vectors
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(200):
        s1 = set(rng.choice(vocab, size=rng.integers(1, 8)))
        s2 = set(rng.choice(vocab, size=rng.integers(1, 8)))
        assert semantic_vector_sim(s1, s2, exact_match_sim) == li_adapted_sim(s1, s2)


def test_semantic_vector_sim_empty():
    with pytest.raises(EmptyInputError):
        semantic_vector_sim(set(), {"a"}, exact_match_sim)


def test_semantic_vector_sim_equal_sets_is_one():
    # sqrt(3) * sqrt(3) rounds below 3, so the raw cosine reads 1.0000000000000002
    assert 3 / (math.sqrt(3) * math.sqrt(3)) > 1.0
    words = {"cat", "dog", "pet"}
    assert semantic_vector_sim(words, set(words), exact_match_sim) == 1.0


def test_semantic_vector_sim_asks_only_for_words_outside_the_sentence():
    # a word the sentence holds scores 1.0 by membership, so of the joint
    # words a, b, c only c is scored against {a, b} and only a against {b, c}
    calls = []

    def rec(t, w):
        calls.append((t, w))
        return exact_match_sim(t, w)

    assert semantic_vector_sim({"a", "b"}, {"b", "c"}, rec) == pytest.approx(1 / 2)
    assert sorted(calls) == [("a", "b"), ("a", "c"), ("c", "a"), ("c", "b")]


def test_wbsm_ubsm_and_com(tax, lexicon):
    m = WordSimMeasure("rada", tax, lexicon)
    w = wbsm(("cat", "dog"), ("cat", "pet"), m)
    assert 0.0 < w <= 1.0
    assert com(0.8, 0.4) == pytest.approx(0.6)


def _oracle_distances(edges, nodes):
    """All-pairs shortest paths over the undirected edge graph."""
    index = {n: i for i, n in enumerate(sorted(nodes))}
    n = len(index)
    rows, cols = [], []
    for c, p in edges:
        rows += [index[c], index[p]]
        cols += [index[p], index[c]]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return index, shortest_path(graph, method="D", unweighted=True)


def test_shortest_path_against_oracle(rng):
    for _ in range(10):
        edges = random_dag(rng, int(rng.integers(2, 40)))
        tax = Taxonomy(edges)
        index, dist = _oracle_distances(edges, tax.nodes)
        nodes = sorted(tax.nodes)
        for a in nodes:
            for b in nodes:
                assert tax.shortest_path_len(a, b) == int(dist[index[a], index[b]])


def test_random_dag_ic_monotone(rng):
    for _ in range(10):
        edges = random_dag(rng, int(rng.integers(2, 60)))
        tax = Taxonomy(edges)
        for child, parent in edges:
            assert tax.ic_sanchez(child) >= tax.ic_sanchez(parent) - 1e-12


def _all_max_sim(set1, set2, word_sim):
    """The semantic-vector cosine with every component a max over word_sim."""
    joint = sorted(set1 | set2)
    v1 = [max(word_sim(t, w) for w in set1) for t in joint]
    v2 = [max(word_sim(t, w) for w in set2) for t in joint]
    dot = sum(a * b for a, b in zip(v1, v2))
    n1 = math.sqrt(sum(a * a for a in v1))
    n2 = math.sqrt(sum(b * b for b in v2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return min(1.0, dot / (n1 * n2))


def test_membership_rule_premise_holds_bit_for_bit(rng):
    # semantic_vector_sim scores a word its sentence holds 1.0 without a call;
    # that is exact only if word_sim(w, w) is 1.0 and IC never falls going down
    for _ in range(30):
        edges = random_dag(rng, int(rng.integers(2, 201)))
        tax = Taxonomy(edges)
        for child, parent in edges:
            assert tax.ic_sanchez(child) >= tax.ic_sanchez(parent)
        nodes = sorted(tax.nodes)
        lexicon = {f"w{i}": frozenset(map(str, rng.choice(nodes, size=1 + i % 2, replace=False)))
                   for i in range(min(8, len(nodes)))}
        vocab = [*lexicon, "x0", "x1"]
        for kind in ("rada", "jiang-conrath"):
            m = WordSimMeasure(kind, tax, lexicon)
            assert all(m.word_sim(w, w) == 1.0 for w in lexicon)
            for _ in range(10):
                s1 = set(rng.choice(vocab, size=rng.integers(1, 6)))
                s2 = set(rng.choice(vocab, size=rng.integers(1, 6)))
                assert wbsm(s1, s2, m) == _all_max_sim(s1, s2, m.word_sim)


def _assert_paths_match_oracle(edges, pairs):
    tax = Taxonomy(edges)
    index, dist = _oracle_distances(edges, tax.nodes)
    for a, b in pairs:
        expected = int(dist[index[a], index[b]])
        assert tax.shortest_path_len(a, b) == tax.shortest_path_len(b, a) == expected, (a, b)


def test_shortest_path_diamond_of_unequal_arms():
    # top and bottom are joined by an arm of 2 edges (via s) and one of 5
    # (via l1..l4); a search that stops at the first node either end reaches
    # through the long arm, or counts one step per two expansions, is wrong
    edges = [("top", "root"), ("s", "top"), ("bottom", "s"), ("l1", "top"), ("l2", "l1"),
             ("l3", "l2"), ("l4", "l3"), ("bottom", "l4")]
    tax = Taxonomy(edges)
    assert tax.shortest_path_len("top", "bottom") == 2
    _assert_paths_match_oracle(edges, [(a, b) for a in tax.nodes for b in tax.nodes])


def test_shortest_path_lopsided_frontiers():
    # h0 sits under a hub of 1,000 children and k50 at the foot of a 50-node
    # chain: after two steps from h0 the chain's end has the smaller frontier
    # for the remaining 50, so the expanded side switches
    edges = [("hub", "root"), *((f"h{i}", "hub") for i in range(1000)),
             ("k1", "root"), *((f"k{i}", f"k{i - 1}") for i in range(2, 51))]
    assert Taxonomy(edges).shortest_path_len("h0", "k50") == 52
    _assert_paths_match_oracle(edges, [("h0", "k50"), ("h999", "k25"), ("hub", "k50"), ("root", "k50"),
                                       ("h0", "h1"), ("k1", "k50"), ("h0", "hub")])
