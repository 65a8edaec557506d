import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_vectors
from stsbench.vecsim import (
    VectorFormatError,
    VectorModel,
    load_vectors,
    pool,
    rescale_signed,
    swem_sim,
)


@pytest.fixture
def model():
    return VectorModel(3, {
        "cat": np.array([1.0, 0.0, 0.0]),
        "dog": np.array([0.0, 1.0, 0.0]),
        "pet": np.array([1.0, 1.0, 0.0]),
        "anti": np.array([-1.0, 0.0, 0.0]),
    })


def _write(tmp_path, text, name="vec.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_with_header(tmp_path):
    p = _write(tmp_path, "2 3\ncat 1 0 0\ndog 0 1 0\n")
    m = load_vectors(p)
    assert m.dim == 3
    assert set(m.table) == {"cat", "dog"}


def test_load_with_bom_and_header(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("2 3\ncat 1 0 0\ndog 0 1 0\n", encoding="utf-8-sig")
    m = load_vectors(p)
    assert m.dim == 3
    assert set(m.table) == {"cat", "dog"}


def test_load_without_header(tmp_path):
    m = load_vectors(_write(tmp_path, "cat 1 0\ndog 0 1\n"))
    assert m.dim == 2


def test_header_count_mismatch_warns(tmp_path):
    p = _write(tmp_path, "5 2\ncat 1 0\n")
    with pytest.warns(UserWarning, match="declares 5"):
        load_vectors(p)


def test_duplicate_token_keeps_first(tmp_path):
    p = _write(tmp_path, "cat 1 0\ncat 9 9\n")
    with pytest.warns(UserWarning, match="duplicate"):
        m = load_vectors(p)
    assert m.table["cat"][0] == 1.0


def test_format_errors(tmp_path):
    with pytest.raises(VectorFormatError, match=":2"):
        load_vectors(_write(tmp_path, "cat 1 0\ndog 1\n", "ragged.txt"))
    with pytest.raises(VectorFormatError, match="non-finite"):
        load_vectors(_write(tmp_path, "cat 1 nan\n", "nan.txt"))
    with pytest.raises(VectorFormatError, match="no vectors"):
        load_vectors(_write(tmp_path, "", "empty.txt"))
    with pytest.raises(VectorFormatError, match=":1: token 'cat' has no components"):
        load_vectors(_write(tmp_path, "cat\ndog\n", "tokens-only.txt"))
    with pytest.raises(VectorFormatError, match=":1: header declares 0 components"):
        load_vectors(_write(tmp_path, "2 0\ncat\ndog\n", "zero-dim.txt"))


def test_round_trip(tmp_path, model):
    p = tmp_path / "out.txt"
    write_vectors(model, p)
    back = load_vectors(p)
    assert back.dim == model.dim
    assert set(back.table) == set(model.table)
    for k in model.table:
        assert np.array_equal(back.table[k], model.table[k])


def test_pool_modes(model):
    tokens = ("cat", "dog", "oov")
    assert np.allclose(pool(tokens, model, "mean"), [0.5, 0.5, 0.0])
    assert np.allclose(pool(tokens, model, "sum"), [1.0, 1.0, 0.0])
    assert np.allclose(pool(tokens, model, "min"), [0.0, 0.0, 0.0])
    assert np.allclose(pool(tokens, model, "max"), [1.0, 1.0, 0.0])


def test_pool_all_oov_and_bad_mode(model):
    assert pool(("nope", "nada"), model, "mean") is None
    with pytest.raises(ValueError):
        pool(("cat",), model, "median")


def test_swem_sim(model):
    assert swem_sim(("cat",), ("cat",), model) == pytest.approx(1.0)
    assert swem_sim(("cat",), ("dog",), model) == pytest.approx(0.0)
    assert swem_sim(("cat",), ("pet",), model) == pytest.approx(1 / np.sqrt(2))
    assert swem_sim(("cat",), ("anti",), model) == pytest.approx(-1.0)
    # a side with no in-vocabulary token scores as an empty sequence does:
    # zero against a side with a vector, one against another such side
    assert swem_sim(("oov",), ("cat",), model) == 0.0
    assert swem_sim(("cat",), ("oov",), model) == 0.0
    assert swem_sim(("oov", "nope"), ("oov", "nope"), model) == 1.0
    assert swem_sim(("oov",), ("nope",), model, mode="max") == 1.0
    # opposite vectors cancel under sum pooling
    assert swem_sim(("cat", "anti"), ("dog",), model, mode="sum") == 0.0


_COMPONENTS = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda x: abs(x) > 1e-3)


@given(st.lists(_COMPONENTS, min_size=1, max_size=8))
def test_swem_sim_of_equal_and_opposite_vectors_stays_in_range(v):
    # for many vectors, rounding puts the raw cosine of v with v at
    # 1 + 2**-52, and of v with -v at -(1 + 2**-52)
    model = VectorModel(len(v), {"a": np.array(v), "b": -np.array(v)})
    assert 1.0 - 1e-12 < swem_sim(("a",), ("a",), model) <= 1.0
    assert -1.0 <= swem_sim(("a",), ("b",), model) < -1.0 + 1e-12
    assert 0.0 <= rescale_signed(swem_sim(("a",), ("b",), model))


def test_rescale_signed():
    assert rescale_signed(-1.0) == 0.0
    assert rescale_signed(0.0) == 0.5
    assert rescale_signed(1.0) == 1.0
