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
    rand_bits,
    uniform_junta,
    verify_witness,
)
from djunta import uniform as uniform_module
from djunta.boolfn import JuntaBackend, RestrictionBackend, TruthTableBackend
from djunta.errors import ContractError
from djunta.lbgen import _HardLabelBackend, _HardLabelView


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
        assert f.counter.queries + f.counter.samples <= cfg.query_ceiling()
        assert v.queries <= cfg.query_ceiling()
        assert v.samples == 0


def test_seeded_run_deterministic():
    f = FunctionOracle.from_junta(10, (1, 4, 9), _parity(3))
    cfg = UniformTesterConfig(k=2, epsilon=0.5)
    a = uniform_junta(f.fork(), cfg, np.random.default_rng(21))
    b = uniform_junta(f.fork(), cfg, np.random.default_rng(21))
    assert a == b


# ---------------------------------------------------------------------------
# batched rounds against the round-by-round loop


def _xor_and_table(width):
    """x1 xor (x2 and ... and x_width): x1 is found at once, the rest late."""
    ones = (1 << (width - 1)) - 1
    return sum(((z & 1) ^ (z >> 1 == ones)) << z for z in range(1 << width))


def _batch_cases():
    rng = np.random.default_rng(18)
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
    # Narrow points, as `literal` vets blocks: the arity-1 tester at
    # epsilon = gamma = 1/(8k) on a junta view collapsed to its free block,
    # and on a block of gen_no(14, 2), the README pipeline's instance.
    junta = FunctionOracle.from_junta(64, (3, 10, 20, 40), rand_bits(rng, 16))
    for free in ((3, 7), (3, 10, 11), (1, 2, 20, 30), (10, 12, 13, 50, 60), (4, 5, 6, 40, 41, 42)):
        pinned = [c for c in range(1, 65) if c not in free]
        w = BitString(len(pinned), rand_bits(rng, len(pinned)))
        yield lambda w=w, pinned=pinned: junta.fork().restrict(pinned, w), UniformTesterConfig(
            k=1, epsilon=Fraction(1, 24)
        )
    small = gen_no(14, 2, np.random.default_rng(1))
    for free in ((2, 5, 9), (1, 4, 6, 8, 13, 14)):
        pinned = [c for c in range(1, 15) if c not in free]
        w = BitString(len(pinned), rand_bits(rng, len(pinned)))
        yield lambda w=w, pinned=pinned: small.oracle().restrict(pinned, w), UniformTesterConfig(
            k=1, epsilon=Fraction(1, 16)
        )
    # one coordinate, constant: nothing is ever found, so every round runs
    yield FunctionOracle.from_truth_table(1, 0b11).fork, UniformTesterConfig(k=1, epsilon=1 / 8)


def test_batched_rounds_match_scalar_rounds(monkeypatch):
    """Verdicts, witnesses, counts and the feed's state after the call are
    those of the round-by-round loop, which runs when batching is off.  A
    spy on every backend's `values` checks that each case reaches the
    batched path, and that the reference never does."""
    batched_rows = []
    for cls in (
        TruthTableBackend, JuntaBackend, RestrictionBackend, _HardLabelBackend, _HardLabelView
    ):
        def spy(self, X, _values=cls.values):
            batched_rows.append(len(X))
            return _values(self, X)

        monkeypatch.setattr(cls, "values", spy)

    def run(make, cfg, seed):
        feed = BitFeed(np.random.default_rng(seed))
        f = make()
        v = uniform_junta(f, cfg, feed)
        return v, f.counter.snapshot(), feed.take(100), feed.rng.bit_generator.state

    cases = list(_batch_cases())
    batched = []
    for i, (make, cfg) in enumerate(cases):
        batched_rows.clear()
        batched += [run(make, cfg, s) for s in range(3)]
        assert batched_rows, f"case {i} never reached the batched path"
    monkeypatch.setattr(uniform_module, "_SCALAR_ROUNDS", 10**9)
    batched_rows.clear()
    scalar = [run(make, cfg, s) for make, cfg in cases for s in range(3)]
    assert not batched_rows
    assert batched == scalar


class _CountingFeed(BitFeed):
    """A BitFeed that counts the bits take() and skip() consume, and notes
    each peek_block's ask next to the rounds consumed before it."""

    def __init__(self, rng):
        super().__init__(rng)
        self.used = 0
        self.asks = []

    def take(self, nbits):
        self.used += nbits
        return super().take(nbits)

    def skip(self, nbits):
        self.used += nbits
        super().skip(nbits)

    def peek_block(self, width, rows):
        self.asks.append((rows // 2, self.used // (2 * width)))
        return super().peek_block(width, rows)


@pytest.mark.parametrize(
    "make, cfg",
    [
        (
            lambda: FunctionOracle.from_junta(64, (1,), 0),
            UniformTesterConfig(k=1, epsilon=Fraction(1, 24)),
        ),
        (
            gen_no(14, 2, np.random.default_rng(1)).oracle,
            UniformTesterConfig(k=1, epsilon=Fraction(1, 16)),
        ),
    ],
    ids=["constant n64", "gen_no n14"],
)
def test_batches_read_no_more_rounds_than_already_run(make, cfg):
    """A batch asks for at most as many rounds as the call has run, so the
    rows it evaluates past a disagreement never outnumber those rounds."""
    asks = []
    for seed in range(5):
        feed = _CountingFeed(np.random.default_rng(seed))
        uniform_junta(make(), cfg, feed)
        asks += feed.asks
    assert asks
    for asked, run in asks:
        assert asked <= run
