from fractions import Fraction

import numpy as np
import pytest

from djunta import (
    BitFeed,
    BitString,
    FunctionOracle,
    UniformTesterConfig,
    ceil_log2,
    gen_no,
    literal_distance_uniform,
    rand_bits,
    uniform_junta,
    verify_witness,
)
from djunta import uniform as uniform_module
from djunta.errors import ContractError, SizeError


def _parity(k):
    return sum((z.bit_count() & 1) << z for z in range(1 << k))


def test_config_defaults():
    cfg = UniformTesterConfig(k=3, epsilon=0.25)
    assert cfg.num_blocks == 90
    assert cfg.rounds == 256  # 16 * 4 / (1/4)
    assert cfg.query_ceiling() == 2 * 256 + 4 * ceil_log2(90)


def test_config_exact_round_arithmetic():
    # 1/3 is not a binary float; the budget must still be a fixed integer
    a = UniformTesterConfig(k=2, epsilon=1 / 3)
    b = UniformTesterConfig(k=2, epsilon=1 / 3)
    assert a.rounds == b.rounds
    assert UniformTesterConfig(k=2, epsilon=0.5).rounds == 96


def test_config_validation():
    with pytest.raises(ContractError):
        UniformTesterConfig(k=0, epsilon=0.5)
    with pytest.raises(ContractError):
        UniformTesterConfig(k=2, epsilon=0.0)
    with pytest.raises(ContractError):
        UniformTesterConfig(k=2, epsilon=1.5)
    with pytest.raises(TypeError):
        UniformTesterConfig(k=3, epsilon=0.5, num_blocks=90)  # budgets are derived


def test_accepts_juntas():
    cfg = UniformTesterConfig(k=2, epsilon=0.5)
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(4, 20))
        vars = sorted(rng.choice(n, size=2, replace=False) + 1)
        f = FunctionOracle.from_junta(n, [int(v) for v in vars], int(rand_bits(rng, 4)))
        v = uniform_junta(f, cfg, np.random.default_rng(int(rng.integers(2**32))))
        assert v.outcome == "accept"
        assert v.witness == ()


def test_rejects_parity_with_verified_witness():
    # parity of k+1 variables is 1/2-far from every k-junta
    k = 3
    f = FunctionOracle.from_junta(12, (2, 5, 7, 11), _parity(4))
    cfg = UniformTesterConfig(k=k, epsilon=0.25)
    rejections = 0
    for s in range(20):
        g = f.fork()
        v = uniform_junta(g, cfg, np.random.default_rng(s))
        if v.is_reject:
            rejections += 1
            assert len(v.witness) == k + 1
            assert verify_witness(g, v.witness)
            blocks = [p.block for p in v.witness]
            union = set()
            for b in blocks:
                assert not union & b
                union |= b
    assert rejections >= 17


def test_query_budget_respected():
    cfg = UniformTesterConfig(k=2, epsilon=0.5)
    rng = np.random.default_rng(0)
    for s in range(10):
        n = int(rng.integers(6, 30))
        f = FunctionOracle.from_truth_table(8, rand_bits(rng, 256)) if n == 8 else None
        f = f or FunctionOracle.from_junta(n, (1, 2, 3), rand_bits(rng, 8))
        v = uniform_junta(f, cfg, np.random.default_rng(s))
        assert f.counter.total <= cfg.query_ceiling()
        assert v.queries <= cfg.query_ceiling()
        assert v.samples == 0


def test_seeded_run_deterministic():
    f = FunctionOracle.from_junta(10, (1, 4, 9), _parity(3))
    cfg = UniformTesterConfig(k=2, epsilon=0.5)
    a = uniform_junta(f.fork(), cfg, np.random.default_rng(21))
    b = uniform_junta(f.fork(), cfg, np.random.default_rng(21))
    assert a == b


# ---------------------------------------------------------------------------
# exhaustive one-variable fits


def _maj3():
    return FunctionOracle.from_truth_table(3, sum((1 if bin(z).count("1") >= 2 else 0) << z for z in range(8)))


def test_fit_majority():
    fit = literal_distance_uniform(_maj3())
    assert fit.literal_distance == Fraction(1, 4)
    assert fit.junta_distance == Fraction(1, 4)


def test_fit_parity_two():
    f = FunctionOracle.from_truth_table(2, _parity(2))
    fit = literal_distance_uniform(f)
    assert fit.literal_distance == Fraction(1, 2)
    assert fit.junta_distance == Fraction(1, 2)


def test_fit_and_two():
    f = FunctionOracle.from_truth_table(2, 0b1000)
    fit = literal_distance_uniform(f)
    assert fit.literal_distance == Fraction(1, 4)
    assert fit.junta_distance == Fraction(1, 4)


def test_fit_constant():
    f = FunctionOracle.from_truth_table(3, 0xFF)
    fit = literal_distance_uniform(f)
    assert fit.literal_distance == Fraction(1, 2)
    assert fit.junta_distance == Fraction(0)
    assert fit.junta == ("const", 1)


def test_fit_exact_literal():
    f = FunctionOracle.from_junta(5, (4,), 0b10)
    fit = literal_distance_uniform(f)
    assert fit.literal_distance == Fraction(0)
    assert fit.literal == (4, 1)


def test_fit_size_guard():
    f = FunctionOracle.from_junta(21, (1,), 0b10)
    with pytest.raises(SizeError):
        literal_distance_uniform(f)


# ---------------------------------------------------------------------------
# batched rounds against the round-by-round loop


def _xor_and_table(width):
    """x1 xor (x2 and ... and x_width): x1 is found at once, the rest late."""
    ones = (1 << (width - 1)) - 1
    return sum(((z & 1) ^ (z >> 1 == ones)) << z for z in range(1 << width))


def _batch_cases():
    rng = np.random.default_rng(17)
    hard = gen_no(300, 3, np.random.default_rng(3))
    wide = FunctionOracle.from_junta(300, (5, 77, 290), 0b10010110)
    # x1 xor (x2 and ... and x8) where x9..x20 are all 0, and 0 elsewhere
    tt = FunctionOracle.from_truth_table(20, _xor_and_table(8))
    fixed = list(range(9, 21))
    yield wide.fork, UniformTesterConfig(k=3, epsilon=1 / 3)  # crosses feed chunks
    yield FunctionOracle.from_junta(64, range(1, 9), _xor_and_table(8)).fork, UniformTesterConfig(
        k=1, epsilon=1 / 8
    )
    # every coordinate ends up relevant: the run stops on an empty open union
    yield lambda: tt.fork().restrict(fixed, BitString(12, 0)), UniformTesterConfig(k=10, epsilon=1 / 8)
    # constant: every round runs, most of them in batches
    yield lambda: tt.fork().restrict(fixed, BitString(12, 5)), UniformTesterConfig(k=1, epsilon=1 / 24)
    for _ in range(3):
        free = sorted(int(c) + 1 for c in rng.choice(300, size=int(rng.integers(5, 150)), replace=False))
        pinned = [c for c in range(1, 301) if c not in free]
        w = BitString(len(pinned), rand_bits(rng, len(pinned)))
        yield lambda w=w, pinned=pinned: hard.oracle().restrict(pinned, w), UniformTesterConfig(
            k=1, epsilon=1 / 24
        )


def test_batched_rounds_match_scalar_rounds(monkeypatch):
    """Verdicts, witnesses, counts and the feed's state after the call are
    those of the round-by-round loop, which runs when batching is off."""

    def run(make, cfg, seed):
        feed = BitFeed(np.random.default_rng(seed))
        f = make()
        v = uniform_junta(f, cfg, feed)
        return v, f.counter.snapshot(), feed.take(100), feed.rng.bit_generator.state

    cases = list(_batch_cases())
    batched = [run(make, cfg, s) for s in range(3) for make, cfg in cases]
    monkeypatch.setattr(uniform_module, "_SCALAR_ROUNDS", 10**9)
    scalar = [run(make, cfg, s) for s in range(3) for make, cfg in cases]
    assert batched == scalar
