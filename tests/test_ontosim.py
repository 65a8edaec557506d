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


def test_wbsm_ubsm_and_com(tax, lexicon):
    m = WordSimMeasure("rada", tax, lexicon)
    w = wbsm(("cat", "dog"), ("cat", "pet"), m)
    assert 0.0 < w <= 1.0
    assert com(0.8, 0.4) == pytest.approx(0.6)
    assert com(0.8, 0.4, lam=1.0) == 0.8
    with pytest.raises(ValueError):
        com(0.5, 0.5, lam=1.5)


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

