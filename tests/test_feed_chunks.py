"""The feed's chunk size is a pure speed knob: whole runs do not see it.

Each tester runs on one BitFeed per run, and influence_lemma_estimate on a
fresh Generator, with BitFeed._CHUNK_WORDS patched to several sizes.  A
chunk of one word makes every multi-word take() cross chunks and leaves
the batches almost nothing buffered, so they cut short or fall back to
scalar rounds; 1024 is the default.  Verdicts, witnesses, counts,
estimates and the next 100 bits of each feed must not move.
"""

import numpy as np

from djunta import (
    BitFeed,
    DFTesterConfig,
    FiniteDistribution,
    FunctionOracle,
    UniformTesterConfig,
    gen_no,
    influence_lemma_estimate,
    main_djunta,
    rand_bits,
    simple_djunta,
    uniform_junta,
)

CHUNKS = (1, 3, 17, 1024)
SEEDS = (0, 1)


def _cases():
    """The tester runs, as (name, oracle factory, distribution or None for
    the uniform tester, tester, config), and the influence estimates, as
    (oracle, distribution, I)."""
    rng = np.random.default_rng(5)
    wide = FunctionOracle.from_junta(70, (2, 40, 66), 0b01101001)
    j30 = FunctionOracle.from_junta(30, (4, 17), 0b1000)
    pts = sorted({rand_bits(rng, 30) for _ in range(40)})
    w = rng.random(len(pts)) + 0.01
    weighted = FiniteDistribution.support(30, pts, [float(v) for v in w / w.sum()])
    hard = gen_no(30, 2, np.random.default_rng(30))
    df = DFTesterConfig(k=2, epsilon=0.5)
    u2, u3 = (UniformTesterConfig(k=k, epsilon=0.5) for k in (2, 3))
    cases = [
        ("uniform/junta70", wide.fork, None, uniform_junta, u3),
        ("uniform/gen_no30", hard.oracle, None, uniform_junta, u2),
    ]
    for tester in (main_djunta, simple_djunta):
        cases += [
            (f"{tester.__name__}/junta70 cube", wide.fork, FiniteDistribution.uniform_cube(70),
             tester, DFTesterConfig(k=3, epsilon=0.5)),
            (f"{tester.__name__}/junta30 support", j30.fork, FiniteDistribution.support(30, pts),
             tester, df),
            (f"{tester.__name__}/junta30 weighted", j30.fork, weighted, tester, df),
            (f"{tester.__name__}/gen_no30", hard.oracle, hard.D, tester, df),
        ]
    estimates = [
        (wide, FiniteDistribution.uniform_cube(70), (2, 40)),
        (hard.oracle(), hard.D, hard.J),
    ]
    return cases, estimates


def _runs(cases, estimates):
    out = {}
    for name, make, D, tester, cfg in cases:
        for seed in SEEDS:
            feed = BitFeed(np.random.default_rng(seed))
            f = make()
            v = tester(f, cfg, feed) if D is None else tester(f, D, cfg, feed)
            out[name, seed] = (v.outcome, v.witness, v.queries, v.samples, feed.take(100))
    for i, (f, D, I) in enumerate(estimates):
        for seed in SEEDS:
            out["influence", i, seed] = influence_lemma_estimate(
                f, D, I, 200, np.random.default_rng(seed)
            )
    return out


def test_chunk_size_is_a_pure_speed_knob(monkeypatch):
    cases, estimates = _cases()
    runs = {}
    for words in CHUNKS:
        monkeypatch.setattr(BitFeed, "_CHUNK_WORDS", words)
        runs[words] = _runs(cases, estimates)
    want = runs[1024]
    # Both verdicts occur, so the check covers rejecting runs' witnesses.
    assert {r[0] for k, r in want.items() if k[0] != "influence"} == {"accept", "reject"}
    for words in CHUNKS:
        moved = [k for k in want if runs[words][k] != want[k]]
        assert not moved, (words, moved)
