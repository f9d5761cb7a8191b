import gc
import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djunta import (
    BitString,
    FiniteDistribution,
    NoInstance,
    YesInstance,
    gather_bits,
    gen_no,
    gen_yes,
    instance_from_json,
    instance_to_json,
    is_kjunta,
    is_scattered,
    neighbor_radius,
    num_support_points,
)
from djunta.boolfn import rand_bits, rows_of
from djunta.cli import main
from djunta.tester import DFTesterConfig, simple_djunta
from djunta.errors import ContractError, DimensionError, SizeError
from djunta.lbgen import MAX_SUPPORT_POINTS


def test_support_size_formula():
    assert num_support_points(14, 2) == 381
    assert num_support_points(1200, 6) == 16336


def test_radius_formula():
    assert neighbor_radius(14) == 5
    assert neighbor_radius(1200) == 480
    assert neighbor_radius(10) == 4


def test_shared_prefix_same_seed():
    # both generators consume randomness in the same order up to the table,
    # so a shared seed plants the same hidden structure in both families
    y = gen_yes(14, 2, np.random.default_rng(123))
    n = gen_no(14, 2, np.random.default_rng(123))
    assert y.J == n.J
    assert y.D.points == n.D.points
    assert y.junta_table == n.junta_table


def test_yes_instance_shape():
    inst = gen_yes(14, 2, np.random.default_rng(7))
    assert isinstance(inst, YesInstance)
    assert len(inst.J) == 2 and all(1 <= c <= 14 for c in inst.J)
    assert len(inst.D.points) == 381
    assert len(set(inst.D.points)) == 381
    assert all(0 <= p < 1 << 14 for p in inst.D.points)
    assert inst.D.support_size() == 381
    assert inst.D.mass(inst.D.points[0]) == Fraction(1, 381)
    assert is_kjunta(inst.oracle(), 2)


def test_no_instance_shape():
    inst = gen_no(14, 2, np.random.default_rng(7))
    assert isinstance(inst, NoInstance)
    assert len(inst.labels) == len(inst.D.points) == 381
    assert set(inst.labels) <= {0, 1}
    assert inst.radius == 5


def test_no_oracle_matches_reference_rule():
    inst = gen_no(10, 1, np.random.default_rng(5))
    f = inst.oracle()
    jc = sorted(inst.J)
    by_bits = dict(zip(inst.D.points, inst.labels))
    for x in range(1 << 10):
        if x in by_bits:
            want = by_bits[x]
        else:
            near = [
                lab
                for p, lab in zip(inst.D.points, inst.labels)
                if gather_bits(p, jc) == gather_bits(x, jc)
                and bin(p ^ x).count("1") <= inst.radius
            ]
            if near:
                want = 1 if any(near) else 0
            else:
                want = (inst.junta_table >> gather_bits(x, jc)) & 1
        assert f.peek_bits(x) == want


def test_no_oracle_counts_queries():
    inst = gen_no(14, 2, np.random.default_rng(2))
    f = inst.oracle()
    f.eval_bits(0)
    f.sample_eval_bits(1)
    f.peek_bits(2)
    assert f.counter.snapshot() == (1, 1)
    # every oracle of an instance shares one backend, each with its own counter
    g = inst.oracle()
    assert g.backend is f.backend
    assert g.counter.snapshot() == (0, 0)


def test_gen_no_memory():
    # An instance holds its support once, as D.points.  Retained by
    # gen_no(1200, 6): 5.71 MiB with a BitString tuple S and a point index
    # in the distribution beside D.points, 3.85 MiB without them; keeping
    # either copy alone reads 4.62 or 4.74 MiB.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = gen_no(1200, 6, np.random.default_rng(5000))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(inst.D.points) == 16336
    assert retained < 4.25 * 2**20


def test_simple_runs_build_no_view_state():
    # The support matrix, keys and labels behind block views and batched
    # calls (about 2.4 MiB at n = 1200) wait for the first batched call:
    # neither gen_no, oracle(), scalar evaluation nor simple_djunta, which
    # uses only the scalar path, builds them, nor a view's scalar calls.
    rng = np.random.default_rng(6)
    inst = gen_no(1200, 6, rng)
    f = inst.oracle()
    for x in list(inst.D.points[:20]) + [rand_bits(rng, 1200) for _ in range(20)]:
        f.eval_bits(x)
    simple_djunta(f, inst.D, DFTesterConfig(k=6, epsilon=1 / 3), rng)
    assert inst.oracle().backend is f.backend
    g = f.restrict(range(1, 1001), BitString(1000, 0))
    g.eval_bits(5)
    assert f.backend._support is None
    g.backend.values(rows_of([5], 200))
    assert f.backend._support is not None


def test_generation_validation():
    with pytest.raises(DimensionError):
        gen_yes(5, 6, np.random.default_rng(0))
    with pytest.raises(SizeError):
        # needs 200 distinct strings in a 16-point cube
        gen_no(4, 2, np.random.default_rng(0))


def test_support_size_cap_fires_before_drawing():
    # 156,992,580 points: refused from the formula, with nothing drawn
    assert num_support_points(64, 20) > MAX_SUPPORT_POINTS
    assert num_support_points(1200, 6) <= MAX_SUPPORT_POINTS
    for gen in (gen_yes, gen_no):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(SizeError, match="cap"):
            gen(64, 20, rng)
        assert rng.bit_generator.state == before


def test_is_scattered():
    J = frozenset({1, 3})
    a = [BitString.from_str("0000"), BitString.from_str("1000"), BitString.from_str("0010")]
    assert is_scattered(a, J)
    b = a + [BitString.from_str("0100")]  # same (x1, x3) as the first point
    assert not is_scattered(b, J)
    assert is_scattered([], J)


def test_json_round_trip_yes():
    inst = gen_yes(14, 2, np.random.default_rng(31))
    doc = instance_to_json(inst)
    assert doc["kind"] == "yes_instance"
    back = instance_from_json(doc)
    assert back == inst


def test_json_round_trip_no():
    inst = gen_no(14, 2, np.random.default_rng(31))
    doc = instance_to_json(inst)
    assert doc["kind"] == "no_instance"
    back = instance_from_json(doc)
    assert back == inst


def test_json_seed_form():
    doc = {"kind": "no_instance", "n": 14, "k": 2, "seed": 99}
    a = instance_from_json(doc)
    b = gen_no(14, 2, np.random.default_rng(99))
    assert a == b


def test_json_unknown_kind():
    with pytest.raises(ContractError):
        instance_from_json({"kind": "mystery", "n": 4, "k": 1})


# ---------------------------------------------------------------------------
# the random stream: blocked draws against the point-at-a-time loop


def _reference_gen(n, k, rng, no):
    """gen_yes/gen_no's draws as one rand_bits call per support point and a
    per-bit label decode, the loops the blocked draw replaced, verbatim.
    Returns (J, support bits, table, labels or None)."""
    m = num_support_points(n, k)
    J = frozenset(int(c) + 1 for c in rng.choice(n, size=k, replace=False))
    seen = set()
    pts = []
    while len(pts) < m:
        b = rand_bits(rng, n)
        if b not in seen:
            seen.add(b)
            pts.append(b)
    table = rand_bits(rng, 1 << k)
    if not no:
        return J, pts, table, None
    lab = rand_bits(rng, m)
    return J, pts, table, tuple((lab >> i) & 1 for i in range(m))


_STREAM_CASES = st.one_of(
    # dense: n = 10, k = 3 keeps 664 of 1024 points, so repeats force refills
    st.tuples(st.integers(8, 12), st.integers(1, 3)).filter(
        lambda c: num_support_points(*c) <= 1 << c[0]
    ),
    # byte and word boundaries of the row width
    st.tuples(st.sampled_from([15, 16, 17, 31, 32, 33, 64, 65, 300]), st.integers(1, 3)),
    # several blocks a support at n = 1200 (k = 3: 2,042 points)
    st.tuples(st.just(1200), st.integers(1, 3)),
)


@settings(max_examples=60, deadline=None)
@given(case=_STREAM_CASES, seed=st.integers(0, 2**32 - 1), no=st.booleans())
def test_generators_match_point_loop(case, seed, no):
    n, k = case
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    inst = (gen_no if no else gen_yes)(n, k, rng)
    J, pts, table, labels = _reference_gen(n, k, ref, no)
    assert inst.J == J
    assert list(inst.D.points) == pts
    assert inst.junta_table == table
    assert getattr(inst, "labels", None) == labels
    assert rng.bit_generator.state == ref.bit_generator.state


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_generated_files_pinned(tmp_path):
    # Both digests were taken with the point-at-a-time generators.
    doc = instance_to_json(gen_no(1200, 6, np.random.default_rng(5000)))
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert _sha256(text) == "c25363f3d0db47083ac3478911deb6727c7e16d96690053eca24949118bb9852"
    out = tmp_path / "hard.json"
    assert main(["gen-no", "--n", "14", "--k", "2", "--seed", "1", "--out", str(out)]) == 0
    assert _sha256(out.read_text()) == "1e276879e56538984d00cc5fa23118e2e21b6b095846e558731805a693308f2c"
