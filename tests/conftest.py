import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stsbench import preprocess as _pipeline
from stsbench import strsim
from stsbench.core import Dataset, RawSentence, SentencePair
from stsbench.stats import (_NON_FINITE, _ZERO_VARIANCE, DegenerateDataError, _as_pair, _harmonic_error,
                            average_ranks)
from stsbench.vecsim import VectorModel

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


# One pair, one sentence or one run at a time, as the program's table kernels
# compute it: the references of the tests. The kernels are looked up in their
# modules at each call, so that a wrapper set there sees the calls.

def pair_scores(s1, s2) -> dict[str, float]:
    """The five token measures of one pair of token sequences, as
    ``strsim.token_pair_scores`` scores them."""
    scores = strsim.token_pair_scores(*id_table([s1, s2], list(dict.fromkeys((*s1, *s2)))), [(0, 1)])
    return {m: float(s[0]) for m, s in scores.items()}


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance of two strings, as the bit-vector kernel computes it."""
    return int(strsim._edit_distances([a, b], np.array([len(a), len(b)]), np.array([0]), np.array([1]))[0])


def levenshtein_sim(s1, s2) -> float:
    """Levenshtein similarity of the space-joined token sequences, as
    ``strsim.levenshtein_pair_scores`` scores it."""
    return float(strsim.levenshtein_pair_scores([" ".join(s1), " ".join(s2)], [(0, 1)])[0])


def preprocess(sentence: RawSentence, cfg) -> tuple[str, ...]:
    """The full pipeline run on one sentence: its whitespace split, then each
    stage of ``cfg`` on the tokens in order. An all-filtered sentence yields
    an empty sequence."""
    tokens = list(_pipeline.tokenize(_pipeline._text(sentence, cfg.ner), "whitespace"))
    for _, stage in filter(None, _pipeline._stages(cfg)):
        tokens = [out for outs in stage(tokens) for out in outs]
    return tuple(tokens)


def raw_scores_text(scores) -> str:
    """The raw-score CSV of a run's scores: 17 significant digits, CRLF line ends."""
    return "pair_index,score\r\n" + "".join([f"{i},{score:.17g}\r\n" for i, score in enumerate(scores)])


# One row at a time: the oracles of stats.row_correlations, which gives every
# row of a score matrix these values and errors bit for bit.

def _finite_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa, ya = _as_pair(x, y)
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise DegenerateDataError(_NON_FINITE)
    return xa, ya


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length samples; a non-finite
    value or zero variance raises :class:`DegenerateDataError`.

    A constant sample has zero variance even where its float mean is not
    exactly its value (``[0.1] * 3``) and the deviations are a rounding
    residue, so it is caught by ``max == min``.
    """
    xa, ya = _finite_pair(x, y)
    if xa.max() == xa.min() or ya.max() == ya.min():
        raise DegenerateDataError(_ZERO_VARIANCE)
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    denom = np.sqrt(np.sum(xd * xd)) * np.sqrt(np.sum(yd * yd))
    if denom == 0.0:  # deviations that underflow
        raise DegenerateDataError(_ZERO_VARIANCE)
    return float(np.sum(xd * yd) / denom)


def spearman(x, y) -> float:
    """Rank correlation: Pearson over average-ranked values.

    Coincides with the 1 - 6*sum(d^2)/(n(n^2-1)) closed form when there
    are no ties.
    """
    xa, ya = _finite_pair(x, y)
    return pearson(average_ranks(xa), average_ranks(ya))


def harmonic(r: float, rho: float) -> float:
    """Harmonic combination 2*r*rho / (r + rho) of the two correlations.

    Undefined, and raised as degenerate, when r or rho is not finite, when
    they have opposite signs (the formula would leave [-1, 1]) or when they
    sum to zero.
    """
    error = _harmonic_error(r, rho)
    if error is not None:
        raise DegenerateDataError(error)
    return 2.0 * r * rho / (r + rho)


# The writers of the tests' input files, in the formats that the program reads.

def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as canonical TSV (sentence1, sentence2, score)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for p in dataset.pairs:
            fh.write(f"{p.s1.text}\t{p.s2.text}\t{p.human_score:.17g}\n")


def write_vectors(model: VectorModel, path: str | Path) -> None:
    """Write a model in the text format, header first; round-trips through
    ``vecsim.load_vectors``."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(model.table)} {model.dim}\n")
        for token, vec in model.table.items():
            rendered = " ".join(format(v, ".17g") for v in vec)
            fh.write(f"{token} {rendered}\n")


# The per-pair token kernels: the oracles of strsim.token_pair_scores, which
# scores them bit for bit. Each is defined on non-empty operands only.

def token_profile(tokens) -> Counter:
    """Token -> frequency map; total mass equals the sequence length."""
    return Counter(tokens)


def block_distance_sim(s1, s2) -> float:
    """1 - sum_w |fr(w, s1) - fr(w, s2)| / sum_w fr(w, s1 + s2) over the joint dictionary."""
    p1, p2 = token_profile(s1), token_profile(s2)
    diff = sum(abs(p1[w] - p2[w]) for w in p1.keys() | p2.keys())
    return 1.0 - diff / (len(s1) + len(s2))


def li_adapted_sim(set1, set2) -> float:
    """Cosine of the binary indicator vectors of two word sets, clamped to 1."""
    set1, set2 = set(set1), set(set2)
    # norms multiplied separately so the result is bit-identical to an
    # explicit binary-vector cosine over the joint dictionary
    return min(1.0, len(set1 & set2) / (math.sqrt(len(set1)) * math.sqrt(len(set2))))


def liblock_sim(s1, s2) -> float:
    """Mean of the block and binary-cosine scores; block alone on disjoint word sets."""
    block = block_distance_sim(s1, s2)
    liad = li_adapted_sim(s1, s2)
    if liad == 0.0:
        return block
    return 0.5 * block + 0.5 * liad


def jaccard_sim(set1, set2) -> float:
    """|S1 & S2| / |S1 | S2|."""
    set1, set2 = set(set1), set(set2)
    return len(set1 & set2) / len(set1 | set2)


def _shingles(tokens) -> Counter:
    """Token trigrams; a sequence of 1 or 2 tokens is one shingle of its full length."""
    if len(tokens) < 3:
        return Counter([tuple(tokens)]) if tokens else Counter()
    return Counter(tuple(tokens[i : i + 3]) for i in range(len(tokens) - 2))


def qgram_sim(s1, s2) -> float:
    """Dice coefficient over the multisets of token trigram shingles."""
    q1, q2 = _shingles(s1), _shingles(s2)
    inter = sum(min(q1[s], q2[s]) for s in q1.keys() & q2.keys())
    return 2.0 * inter / (sum(q1.values()) + sum(q2.values()))


def overlap_sim(set1, set2) -> float:
    """|S1 & S2| / min(|S1|, |S2|)."""
    set1, set2 = set(set1), set(set2)
    return len(set1 & set2) / min(len(set1), len(set2))


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


def pairs_table(pairs) -> tuple[tuple[np.ndarray, np.ndarray, int], np.ndarray]:
    """Pairs of sequences of ``VOCAB`` tokens as one id table, pair i being
    sequences 2i and 2i + 1, and its (n, 2) pair index."""
    table = [s for pair in pairs for s in pair]
    return id_table(table, VOCAB), np.arange(len(table)).reshape(-1, 2)


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
