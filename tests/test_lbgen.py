from fractions import Fraction

import numpy as np
import pytest

from djunta import (
    BitString,
    FiniteDistribution,
    NoInstance,
    YesInstance,
    eval_no,
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
    assert y.S == n.S
    assert y.junta_table == n.junta_table


def test_yes_instance_shape():
    inst = gen_yes(14, 2, np.random.default_rng(7))
    assert isinstance(inst, YesInstance)
    assert len(inst.J) == 2 and all(1 <= c <= 14 for c in inst.J)
    assert len(inst.S) == 381
    assert len({p.bits for p in inst.S}) == 381
    assert all(p.n == 14 for p in inst.S)
    assert inst.D.support_size() == 381
    assert inst.D.mass(inst.S[0]) == Fraction(1, 381)
    assert is_kjunta(inst.oracle(), 2)


def test_no_instance_shape():
    inst = gen_no(14, 2, np.random.default_rng(7))
    assert isinstance(inst, NoInstance)
    assert len(inst.labels) == len(inst.S) == 381
    assert set(inst.labels) <= {0, 1}
    assert inst.radius == 5


def test_no_oracle_matches_reference_rule():
    inst = gen_no(10, 1, np.random.default_rng(5))
    f = inst.oracle()
    jc = sorted(inst.J)
    by_bits = {p.bits: lab for p, lab in zip(inst.S, inst.labels)}
    for x in range(1 << 10):
        if x in by_bits:
            want = by_bits[x]
        else:
            near = [
                lab
                for p, lab in zip(inst.S, inst.labels)
                if gather_bits(p.bits, jc) == gather_bits(x, jc)
                and bin(p.bits ^ x).count("1") <= inst.radius
            ]
            if near:
                want = 1 if any(near) else 0
            else:
                want = (inst.junta_table >> gather_bits(x, jc)) & 1
        assert f.peek_bits(x) == want
        assert eval_no(inst, BitString(10, x)) == want


def test_no_oracle_counts_queries():
    inst = gen_no(14, 2, np.random.default_rng(2))
    f = inst.oracle()
    f.eval_bits(0)
    f.sample_eval_bits(1)
    f.peek_bits(2)
    assert f.counter.snapshot() == (1, 1)


def test_eval_no_dim_check():
    inst = gen_no(14, 2, np.random.default_rng(2))
    with pytest.raises(DimensionError):
        eval_no(inst, BitString(13, 0))


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
