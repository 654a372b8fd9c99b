"""Tests for branch direction predictors and the BTB."""

import random

import pytest

from repro.frontend.btb import BTB
from repro.frontend.direction import Bimodal, Gshare, HybridPredictor


class TestBimodal:
    def test_learns_bias(self):
        predictor = Bimodal(1024)
        for _ in range(4):
            predictor.update(0x100, True)
        assert predictor.predict(0x100)

    def test_hysteresis(self):
        predictor = Bimodal(1024)
        for _ in range(4):
            predictor.update(0x100, True)
        predictor.update(0x100, False)  # one anomaly
        assert predictor.predict(0x100)  # still predicts taken

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            Bimodal(1000)


class TestGshare:
    def test_learns_alternating_pattern(self):
        """Bimodal cannot learn T/NT alternation; gshare can."""
        predictor = Gshare(4096, history_bits=8)
        outcome = True
        correct = 0
        for i in range(400):
            prediction = predictor.predict(0x200)
            if prediction == outcome and i >= 200:
                correct += 1
            predictor.update(0x200, outcome)
            outcome = not outcome
        assert correct > 180  # near-perfect once warmed


class TestHybrid:
    def test_chooser_picks_working_component(self):
        predictor = HybridPredictor(4096)
        outcome = True
        for i in range(600):
            predictor.predict_and_update(0x300, outcome)
            outcome = not outcome
        # After warm-up the hybrid should track the alternation.
        hits = sum(
            predictor.predict_and_update(0x300, bool(i % 2)) for i in range(100)
        )
        assert hits > 90

    def test_biased_branches_near_perfect(self):
        predictor = HybridPredictor(8192)
        rng = random.Random(1)
        miss = 0
        for i in range(2000):
            taken = rng.random() < 0.95
            if not predictor.predict_and_update(0x40 + (i % 16) * 4, taken):
                if i > 500:
                    miss += 1
        assert miss / 1500 < 0.15

    def test_mispredict_rate_statistic(self):
        predictor = HybridPredictor(1024)
        predictor.predict_and_update(0x10, True)
        assert 0.0 <= predictor.mispredict_rate <= 1.0


class TestBTB:
    def test_hit_after_allocate(self):
        btb = BTB(256, 2)
        assert not btb.lookup_and_update(0x400)
        assert btb.lookup_and_update(0x400)

    def test_lru_within_set(self):
        btb = BTB(4, 2)  # 2 sets x 2 ways
        set_stride = 2 * 4  # pcs mapping to the same set
        a, b, c = 0x0, set_stride, 2 * set_stride
        btb.lookup_and_update(a)
        btb.lookup_and_update(b)
        btb.lookup_and_update(a)  # refresh a
        btb.lookup_and_update(c)  # evicts b
        assert btb.lookup_and_update(a)
        assert not btb.lookup_and_update(b)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BTB(10, 3)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("entries,assoc", [(64, 2), (32, 4), (16, 1)])
    def test_lazy_sets_match_eager_reference(self, seed, entries, assoc):
        """Sets allocated on first touch behave exactly like an eagerly
        allocated table: same hits and misses, same victims."""
        btb = BTB(entries, assoc)
        sets = entries // assoc
        eager: list[list[int]] = [[] for _ in range(sets)]
        rng = random.Random(seed)
        pcs = [rng.randrange(1 << 16) * 4 for _ in range(3 * entries)]
        hits = 0
        for _ in range(2000):
            pc = rng.choice(pcs)
            ways, tag = eager[(pc >> 2) % sets], pc >> 2
            hit = tag in ways
            if hit:
                ways.remove(tag)
                hits += 1
            elif len(ways) >= assoc:
                ways.pop(0)
            ways.append(tag)
            assert btb.lookup_and_update(pc) == hit
            assert {i: w for i, w in btb._table.items() if w} == {
                i: w for i, w in enumerate(eager) if w
            }
        assert btb.lookups - btb.misses == hits
