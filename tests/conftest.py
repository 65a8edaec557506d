import re

import numpy as np
import pytest

from stsbench.core import Dataset, RawSentence, SentencePair
from stsbench.stats import _as_pair, average_ranks

# Trapezoid-rule integral over the declared numpy range: numpy 2.0 added
# np.trapezoid and numpy 2.4 removed np.trapz, so np.trapz is looked up only
# when np.trapezoid is missing.
trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def spearman_closed_form(x, y) -> float:
    """Tie-free closed form; callers must guarantee tie-free inputs."""
    xa, ya = _as_pair(x, y)
    n = len(xa)
    d = average_ranks(xa) - average_ranks(ya)
    return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))


def exact_match_sim(w1: str, w2: str) -> float:
    """0/1 word similarity; reduces the semantic vectors to binary vectors."""
    return 1.0 if w1 == w2 else 0.0


def levenshtein_dp(a: str, b: str) -> int:
    """Wagner-Fischer O(nm) dynamic program; the oracle of the bit-vector kernel."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


_WORD_RE = re.compile(r"[\w−'’-]+|[^\w\s]")
_ABBREV_RE = re.compile(r"^(?:[A-Za-z]\.)+$")
_HYPHEN_DIGIT_RE = re.compile(r"[-−](?=\d)")


def treebank_tokens(text: str) -> list[str]:
    """The treebank rules applied one whitespace chunk at a time; the oracle
    of the one-pattern tokenizer. A chunk that is wholly an abbreviation is
    one token; otherwise it is split into word runs and single symbols, and
    each run is split again at every hyphen that comes before a digit."""
    tokens: list[str] = []
    for chunk in text.split():
        if _ABBREV_RE.match(chunk):
            tokens.append(chunk)
            continue
        for piece in _WORD_RE.findall(chunk):
            if _HYPHEN_DIGIT_RE.search(piece):
                tokens.extend(p for p in _HYPHEN_DIGIT_RE.split(piece) if p)
            else:
                tokens.append(piece)
    return tokens


VOCAB = (
    "gene cell protein tumor mouse pathway kinase receptor signal growth "
    "factor binding expression level tissue patient clinical trial dose response "
    "mutation sequence enzyme antibody membrane nucleus domain complex inhibitor assay"
).split()
# rng.choice converts a list to an array on every call; sampling from this
# array draws the same tokens from the same generator stream
_VOCAB_ARRAY = np.array(VOCAB)


def random_tokens(rng: np.random.Generator, lo: int = 1, hi: int = 12) -> tuple[str, ...]:
    n = int(rng.integers(lo, hi + 1))
    return tuple(rng.choice(_VOCAB_ARRAY, size=n))


def id_table(table, vocab) -> tuple[np.ndarray, np.ndarray, int]:
    """A string token table as ``(ids, lengths, vocabulary size)``, the id of a
    token being its index in ``vocab``, a list of distinct tokens holding every
    token of the table."""
    index = {t: i for i, t in enumerate(vocab)}
    ids = np.array([index[t] for seq in table for t in seq], np.int64)
    return ids, np.array([len(seq) for seq in table], np.int64), len(vocab)


def make_dataset(rng: np.random.Generator, n_pairs: int, name: str = "synthetic") -> Dataset:
    pairs = []
    for _ in range(n_pairs):
        s1 = " ".join(random_tokens(rng, 4, 12))
        s2 = " ".join(random_tokens(rng, 4, 12))
        pairs.append(SentencePair(RawSentence(s1), RawSentence(s2), float(rng.random())))
    return Dataset(name, tuple(pairs))


def random_dag(rng: np.random.Generator, n_nodes: int) -> list[tuple[str, str]]:
    """Random rooted DAG: node i > 0 links to 1-2 parents with smaller index."""
    edges = []
    for i in range(1, n_nodes):
        n_parents = 1 if n_nodes == 2 else int(rng.integers(1, 3))
        parents = rng.choice(i, size=min(n_parents, i), replace=False)
        for p in parents:
            edges.append((f"c{i}", f"c{p}"))
    return edges


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
