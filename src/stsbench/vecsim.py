"""Sentence similarity from pre-trained word vectors via simple pooling.

The text vector format is one token per line, ``token v1 ... vd``, with an
optional ``count dim`` header. Out-of-vocabulary tokens are skipped rather
than zero-imputed. A sentence with no in-vocabulary token pools to None and
scores as an empty sequence does under the benchmark's empty-input rule
(see ``bench``): 1 against another such sentence, itself included, and 0
against one that pools to a vector, which the benchmark reports as 0.5
(``rescale_signed``) without a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from .core import read_lines

POOLING_MODES = ("mean", "min", "max", "sum")


class VectorFormatError(ValueError):
    """Malformed word-vector file."""


@dataclass
class VectorModel:
    dim: int
    table: dict[str, np.ndarray]


def load_vectors(path: str | Path) -> VectorModel:
    """Load a text-format word-vector file.

    Duplicate tokens keep their first occurrence with a warning; ragged
    rows, rows or a header with no components, and non-finite components
    are errors.
    """
    path = Path(path)
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    declared_count: int | None = None
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2 and not table:
            try:
                declared_count, header_dim = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if header_dim < 1:
                    raise VectorFormatError(f"{path}:{lineno}: header declares {header_dim} components")
                dim = header_dim
                continue
        token, values = parts[0], parts[1:]
        if not values:
            raise VectorFormatError(f"{path}:{lineno}: token {token!r} has no components")
        try:
            vec = np.array([float(v) for v in values], dtype=float)
        except ValueError as exc:
            raise VectorFormatError(f"{path}:{lineno}: {exc}") from None
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise VectorFormatError(
                f"{path}:{lineno}: expected {dim} components, got {len(vec)}")
        if not np.all(np.isfinite(vec)):
            raise VectorFormatError(f"{path}:{lineno}: non-finite component")
        if token in table:
            warnings.warn(f"{path}:{lineno}: duplicate token {token!r}, keeping first")
            continue
        table[token] = vec
    if dim is None:
        raise VectorFormatError(f"{path}: no vectors found")
    if declared_count is not None and declared_count != len(table):
        warnings.warn(f"{path}: header declares {declared_count} vectors, found {len(table)}")
    return VectorModel(dim, table)


def write_vectors(model: VectorModel, path: str | Path) -> None:
    """Write a model in the text format, header first; round-trips through load_vectors."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(model.table)} {model.dim}\n")
        for token, vec in model.table.items():
            rendered = " ".join(format(v, ".17g") for v in vec)
            fh.write(f"{token} {rendered}\n")


def pool(tokens: Sequence[str], model: VectorModel, mode: str) -> np.ndarray | None:
    """Component-wise pooling over in-vocabulary token vectors."""
    if mode not in POOLING_MODES:
        raise ValueError(f"mode must be one of {POOLING_MODES}, got {mode!r}")
    vectors = [model.table[t] for t in tokens if t in model.table]
    if not vectors:
        return None
    return getattr(np.stack(vectors), mode)(axis=0)  # every pooling mode is an ndarray method


def swem_sim(s1: Sequence[str], s2: Sequence[str], model: VectorModel, mode: str = "mean") -> float:
    """Cosine of the pooled sentence vectors, clamped to [-1, 1], which
    rounding exceeds for equal or opposite vectors.

    Returns 1 when both sides pool to None, as two empty sequences score,
    and 0 when one does or either pools to a zero vector. The benchmark
    rescales with (x + 1) / 2, for measures declared signed.
    """
    v1 = pool(s1, model, mode)
    v2 = pool(s2, model, mode)
    if v1 is None or v2 is None:
        return 1.0 if v1 is None and v2 is None else 0.0
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return min(1.0, max(-1.0, float(np.dot(v1, v2) / (n1 * n2))))


def rescale_signed(x: float) -> float:
    """Map a signed cosine in [-1, 1] onto [0, 1]."""
    return (x + 1.0) / 2.0
