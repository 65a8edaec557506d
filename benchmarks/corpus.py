"""Seeded synthetic corpus for the benchmark workloads.

Everything here depends only on the seed, never on the package under test,
so the same seed gives byte-identical input files on every commit. The word
lists and the ontology resources come from fixed streams; the seed draws
the sentences.

Sentences are shaped so that every pre-processing stage has work to do:
10-35 tokens, about 40% stop words, Zipf-distributed content words with
capitals, hyphen-digit gene symbols (``IL-6``, ``miR-146a``), commas and
parentheses. The second sentence of a pair reuses part of the first's
words; the human score follows the share it reuses. Nothing filters the
sentences, so a sentence that a configuration empties stays in the corpus.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Function words from the shipped stop-word lists; most are in both, a few
# in one only, so the two lists filter differently.
STOP_WORDS = (
    "the of and in to a is was with for by that on as at from are be this which "
    "were an or have has not been these its it their we than can but just now it's between "
    "after more all may both into such only other those there when while "
    "during through under over most some no each our they he she had do does"
).split()

_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "ch", "cr", "ph", "pr", "st", "tr", "th", "gl", "hy", "my")
_VOWELS = ("a", "e", "i", "o", "u", "y", "ae", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "x", "t", "m")
_SUFFIXES = ("", "", "", "", "", "", "ase", "in", "ic", "osis", "ide", "al")

STOP_FRAC = 0.4
GENE_FRAC = 0.05
COMMA_FRAC = 0.08
PAREN_FRAC = 0.3
VOCAB_SIZE = 4000
GENES = 300
ZIPF_S = 1.1
ANNOTATE_FRAC = 0.5  # share of covered content words given an annotation
VOCAB_SEED = 2022
RESOURCE_SEED = 2205


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n_syll = 1 + int(rng.random() < 0.6) + int(rng.random() < 0.1)
        w = "".join(_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                    + _CODAS[rng.integers(len(_CODAS))] for _ in range(n_syll))
        w += _SUFFIXES[rng.integers(len(_SUFFIXES))]
        if len(w) >= 3 and w not in seen and w not in STOP_WORDS:
            seen.add(w)
            words.append(w)
    # frequent words tend to be short (Zipf's law of abbreviation)
    noise = rng.uniform(0.0, 5.0, size=len(words))
    return [w for _, w in sorted(zip(noise + [len(w) for w in words], words))]


def _gene_symbols(rng: np.random.Generator, size: int) -> list[str]:
    letters = "ABCDEFGHIKLMNPRSTVWXY"
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < size:
        if rng.random() < 0.2:
            prefix = "miR"
        else:
            prefix = "".join(letters[rng.integers(len(letters))] for _ in range(int(rng.integers(2, 5))))
        sym = f"{prefix}-{int(rng.integers(1, 300))}"
        if rng.random() < 0.3:
            sym += "abcd"[rng.integers(4)]
        if sym not in seen:
            seen.add(sym)
            out.append(sym)
    return out


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return w / w.sum()


class SentenceGenerator:
    """Draws BIOSSES-like sentence pairs from one seeded stream."""

    def __init__(self, rng: np.random.Generator):
        # The word lists come from a fixed stream so that every seed draws
        # from the same Zipf ranks; a seed-dependent vocabulary would change
        # the mean word length, and with it the work, from seed to seed.
        words_rng = np.random.default_rng(VOCAB_SEED)
        self.vocab = _vocabulary(words_rng, VOCAB_SIZE)
        self.genes = _gene_symbols(words_rng, GENES)
        self.rng = rng
        self._vocab_cdf = np.cumsum(_zipf_weights(len(self.vocab)))
        self._gene_cdf = np.cumsum(_zipf_weights(len(self.genes)))

    def _draw(self, cdf: np.ndarray, items: list[str]) -> str:
        return items[min(int(np.searchsorted(cdf, self.rng.random())), len(items) - 1)]

    def word(self) -> tuple[str, str]:
        """One bare token and its kind: ``stop``, ``gene`` or ``content``."""
        u = self.rng.random()
        if u < STOP_FRAC:
            return STOP_WORDS[self.rng.integers(len(STOP_WORDS))], "stop"
        if u < STOP_FRAC + GENE_FRAC:
            return self._draw(self._gene_cdf, self.genes), "gene"
        w = self._draw(self._vocab_cdf, self.vocab)
        v = self.rng.random()
        if v < 0.05:
            w = w.upper()
        elif v < 0.25:
            w = w.capitalize()
        return w, "content"

    def words(self) -> list[tuple[str, str]]:
        return [self.word() for _ in range(int(self.rng.integers(10, 36)))]

    def paraphrase(self, words: list[tuple[str, str]]) -> tuple[list[tuple[str, str]], float]:
        """A second sentence keeping a random share of the first's words."""
        keep = float(self.rng.uniform(0.2, 0.95))
        out = [w if self.rng.random() < keep else self.word() for w in words]
        for _ in range(int(self.rng.integers(0, 4))):  # local reordering
            i = int(self.rng.integers(len(out) - 1))
            out[i], out[i + 1] = out[i + 1], out[i]
        target = min(35, max(10, len(out) + int(self.rng.integers(-4, 5))))
        out = out[:target] + [self.word() for _ in range(target - len(out))]
        score = min(1.0, max(0.0, keep + float(self.rng.normal(0.0, 0.1))))
        return out, score

    def render(self, words: list[tuple[str, str]]) -> tuple[str, list[tuple[int, int, str]]]:
        """Sentence text plus the character span and word of each content token."""
        n = len(words)
        paren = None
        if n > 6 and self.rng.random() < PAREN_FRAC:
            start = int(self.rng.integers(1, n - 3))
            paren = (start, start + int(self.rng.integers(0, 3)))
        pieces: list[str] = []
        spans: list[tuple[int, int, str]] = []
        pos = 0
        for i, (w, kind) in enumerate(words):
            if i == 0:
                w = w[0].upper() + w[1:]
            lead = "(" if paren and i == paren[0] else ""
            trail = ")" if paren and i == paren[1] else ""
            if i == n - 1:
                trail += "."
            elif self.rng.random() < COMMA_FRAC:
                trail += ","
            begin = pos + len(lead)
            if kind == "content":
                spans.append((begin, begin + len(w), w.lower()))
            token = lead + w + trail
            pieces.append(token)
            pos += len(token) + 1
        return " ".join(pieces), spans


def _write_dataset(path: Path, rows: list[tuple[str, str, float]]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for s1, s2, score in rows:
            fh.write(f"{s1}\t{s2}\t{score:.4f}\n")


def string_corpus(out: Path, seed: int, sizes: dict[str, int]) -> dict[str, Path]:
    """Datasets named after ``sizes`` (name -> pair count); returns their paths."""
    gen = SentenceGenerator(np.random.default_rng(seed))
    paths = {}
    for name, n_pairs in sizes.items():
        rows = []
        for _ in range(n_pairs):
            w1 = gen.words()
            w2, score = gen.paraphrase(w1)
            rows.append((gen.render(w1)[0], gen.render(w2)[0], score))
        paths[name] = out / f"{name}.tsv"
        _write_dataset(paths[name], rows)
    return paths


def random_dag(rng: np.random.Generator, n_nodes: int) -> list[tuple[int, int]]:
    """Rooted DAG on 0..n-1: node i > 0 links to 1-2 distinct earlier parents."""
    edges = []
    for i in range(1, n_nodes):
        p1 = int(rng.integers(i))
        edges.append((i, p1))
        if i > 1 and rng.random() < 0.5:
            p2 = int(rng.integers(i - 1))
            edges.append((i, p2 if p2 < p1 else p2 + 1))
    return edges


def onto_corpus(out: Path, seed: int, n_pairs: int, n_nodes: int, lexicon_words: int,
                n_vectors: int, dim: int) -> dict[str, Path]:
    """Dataset, annotation sidecar, taxonomy, lexicon and word vectors.

    The lexicon maps the ``lexicon_words`` most frequent content words, and
    the concept code of each, to taxonomy concepts; only those words are
    annotated. That coverage sets how many distinct concept pairs the
    ontology measures must path-search.
    """
    rng = np.random.default_rng(seed)
    gen = SentenceGenerator(rng)
    # The resources are fixed, as real ones are; only the sentences and
    # their annotations follow the seed. Path-search cost depends on where
    # the covered concepts sit in the taxonomy, so seeded resources would
    # change the work from seed to seed.
    res_rng = np.random.default_rng(RESOURCE_SEED)
    edges = random_dag(res_rng, n_nodes)
    covered = gen.vocab[:lexicon_words]
    concept_of = {w: int(res_rng.integers(1, n_nodes)) for w in covered}
    # every third word is ambiguous, with a second concept
    second = {w: int(res_rng.integers(1, n_nodes)) for w in covered[2::3]}

    rows, ann_lines = [], []
    for row in range(n_pairs):
        w1 = gen.words()
        w2, score = gen.paraphrase(w1)
        texts = []
        for side, words in (("s1", w1), ("s2", w2)):
            text, spans = gen.render(words)
            texts.append(text)
            for start, end, w in spans:
                if w in concept_of and rng.random() < ANNOTATE_FRAC:
                    ann_lines.append(f"{row}\t{side}\t{start}\t{end}\tC{concept_of[w]}\n")
        rows.append((texts[0], texts[1], score))

    paths = {name: out / name for name in
             ("onto.tsv", "onto_annotations.tsv", "taxonomy.tsv", "lexicon.tsv", "vectors.txt")}
    _write_dataset(paths["onto.tsv"], rows)
    paths["onto_annotations.tsv"].write_text("".join(ann_lines), encoding="utf-8")
    paths["taxonomy.tsv"].write_text("".join(f"c{c}\tc{p}\n" for c, p in edges), encoding="utf-8")
    with paths["lexicon.tsv"].open("w", encoding="utf-8", newline="\n") as fh:
        for w in covered:
            extra = f",c{second[w]}" if w in second else ""
            fh.write(f"{w}\tc{concept_of[w]}{extra}\n")
        for code in sorted(set(concept_of.values())):
            fh.write(f"c{code}\tc{code}\n")
    tokens = list(dict.fromkeys(gen.vocab + STOP_WORDS + [g.lower() for g in gen.genes]))
    tokens += [f"w{i}" for i in range(max(0, n_vectors - len(tokens)))]
    table = res_rng.standard_normal((len(tokens), dim))
    with paths["vectors.txt"].open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for tok, vec in zip(tokens, table):
            fh.write(tok + " " + " ".join(f"{v:.5f}" for v in vec.tolist()) + "\n")
    return {name.split(".")[0]: path for name, path in paths.items()}
