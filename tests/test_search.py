import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djunta import (
    BitString,
    FunctionOracle,
    binary_search,
    block_binary_search,
    ceil_log2,
    mask_of,
    rand_bits,
)
from djunta.errors import ContractError, DimensionError


def _literal(n, i):
    return FunctionOracle.from_junta(n, (i,), 0b10)


def test_binary_search_frozen_trace():
    # coordinate-3 literal on 4 variables, endpoints all-ones / all-zeros
    f = _literal(4, 3)
    res = binary_search(f, BitString.from_str("1111"), BitString.from_str("0000"))
    assert res.pair.x == BitString.from_str("0011")
    assert res.pair.y == BitString.from_str("0001")
    assert res.pair.block == frozenset({3})
    assert res.coord == 3
    assert (res.fx, res.fy) == (1, 0)
    assert res.queries == 2
    # the starting label is peeked, not bought: callers have already paid for it
    assert f.counter.snapshot() == (2, 0)


def test_binary_search_prepaid_label():
    f = _literal(4, 3)
    res = binary_search(f, BitString.from_str("1111"), BitString.from_str("0000"), fx=1)
    assert res.coord == 3
    assert f.counter.snapshot() == (2, 0)


def test_binary_search_one_coordinate_apart():
    f = _literal(5, 2)
    res = binary_search(f, BitString.from_str("01000"), BitString.from_str("00000"), fx=1)
    assert res.queries == 0
    assert res.coord == 2


def test_binary_search_rejects_equal_points():
    f = _literal(3, 1)
    x = BitString.from_str("101")
    with pytest.raises(ContractError):
        binary_search(f, x, x)


def test_binary_search_dim_mismatch():
    f = _literal(3, 1)
    with pytest.raises(DimensionError):
        binary_search(f, BitString.from_str("1010"), BitString.from_str("0000"))


@given(st.integers(2, 12), st.data())
@settings(max_examples=150)
def test_binary_search_contract(n, data):
    # any function, any disagreeing endpoints: lands on a real sensitive edge
    table = data.draw(st.integers(0, (1 << (1 << n)) - 1)) if n <= 4 else None
    if table is None:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        table = rand_bits(rng, 1 << n)
    f = FunctionOracle.from_truth_table(n, table)
    xb = data.draw(st.integers(0, (1 << n) - 1))
    yb = data.draw(st.integers(0, (1 << n) - 1))
    if xb == yb or f.peek_bits(xb) == f.peek_bits(yb):
        return
    x, y = BitString(n, xb), BitString(n, yb)
    res = binary_search(f, x, y)
    (i,) = res.pair.block
    assert res.pair.x.bits ^ res.pair.y.bits == 1 << (i - 1)
    assert f.peek(res.pair.x) != f.peek(res.pair.y)
    assert f.peek(res.pair.x) == f.peek(x)  # x side keeps the original label
    assert res.queries <= ceil_log2((xb ^ yb).bit_count())


def test_block_search_frozen_trace():
    g = _literal(6, 5)
    blocks = [frozenset({1, 2}), frozenset({3}), frozenset({4, 5}), frozenset({6})]
    res = block_binary_search(
        g, BitString.from_str("111111"), BitString.from_str("000000"), blocks
    )
    assert res.index == 2
    assert res.pair.block == frozenset({4, 5})
    assert res.pair.x == BitString.from_str("000111")
    assert res.pair.y == BitString.from_str("000001")
    assert (res.fx, res.fy) == (1, 0)
    assert res.queries == 2


def test_block_search_single_block():
    g = _literal(4, 1)
    res = block_binary_search(
        g, BitString.from_str("1100"), BitString.from_str("0000"), [frozenset({1, 2})], fx=1
    )
    assert res.index == 0
    assert res.queries == 0


def test_block_search_validation():
    g = _literal(4, 2)
    x, y = BitString.from_str("1111"), BitString.from_str("0000")
    with pytest.raises(ContractError):
        block_binary_search(g, x, y, [])
    with pytest.raises(ContractError):
        block_binary_search(g, x, y, [frozenset({1, 2}), frozenset({2, 3, 4})])
    with pytest.raises(ContractError):
        # blocks miss coordinate 4 of the difference
        block_binary_search(g, x, y, [frozenset({1, 2}), frozenset({3})])
    with pytest.raises(ContractError):
        block_binary_search(g, x, x, [frozenset({1})])


def test_block_search_refuses_empty_block():
    g = _literal(4, 2)
    x, y = BitString.from_str("1111"), BitString.from_str("0000")
    with pytest.raises(ContractError, match="nonempty"):
        block_binary_search(g, x, y, [frozenset(), frozenset({1, 2, 3, 4})])


@given(st.data())
@settings(max_examples=100)
def test_block_search_contract(data):
    n = data.draw(st.integers(3, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    f = FunctionOracle.from_truth_table(n, rand_bits(rng, 1 << n))
    xb = data.draw(st.integers(0, (1 << n) - 1))
    yb = data.draw(st.integers(0, (1 << n) - 1))
    if xb == yb or f.peek_bits(xb) == f.peek_bits(yb):
        return
    # random partition of all coordinates into nonempty blocks
    r = data.draw(st.integers(1, n))
    assign = [data.draw(st.integers(0, r - 1)) for _ in range(n)]
    groups = {}
    for c, g in zip(range(1, n + 1), assign):
        groups.setdefault(g, set()).add(c)
    blocks = [frozenset(s) for s in groups.values()]
    res = block_binary_search(f, BitString(n, xb), BitString(n, yb), blocks)
    assert blocks[res.index] == res.pair.block
    m = mask_of(res.pair.block, n)
    assert (res.pair.x.bits ^ res.pair.y.bits) & ~m == 0
    assert (res.pair.x.bits ^ res.pair.y.bits) != 0
    assert f.peek(res.pair.x) != f.peek(res.pair.y)
    assert res.queries <= ceil_log2(len(blocks))
