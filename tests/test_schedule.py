import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pfge.errors import ConfigurationError, InvalidArgumentError
from pfge.schedule import BudgetSpec, LrSchedule, lr_at, validate_budget


class TestLrSchedule:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            LrSchedule(alpha1=0.01, alpha2=0.05, cycle_len=4)

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ConfigurationError):
            LrSchedule(alpha1=0.05, alpha2=0.0, cycle_len=4)

    def test_rejects_short_cycle(self):
        with pytest.raises(ConfigurationError):
            LrSchedule(alpha1=0.05, alpha2=0.005, cycle_len=1)


class TestLrAt:
    def test_cycle_end_hits_floor_exactly(self):
        sched = LrSchedule(1.0, 0.2, 4)
        assert lr_at(sched, 4) == 0.2
        assert lr_at(sched, 8) == 0.2
        assert lr_at(sched, 400) == 0.2

    def test_mid_cycle_interpolation(self):
        # Phase 0.5 within the cycle: 1.0 + (0.2 - 1.0) * 0.5.
        sched = LrSchedule(1.0, 0.2, 4)
        assert lr_at(sched, 2) == pytest.approx(0.6, abs=1e-15)

    def test_periodicity(self):
        sched = LrSchedule(0.05, 0.0005, 7)
        for i in range(1, 30):
            assert lr_at(sched, i) == lr_at(sched, i + 7)
            assert lr_at(sched, i) == lr_at(sched, i + 5 * 7)

    def test_bounds_and_floor_instants(self):
        sched = LrSchedule(0.05, 0.0005, 6)
        for i in range(1, 100):
            alpha = lr_at(sched, i)
            assert sched.alpha2 <= alpha <= sched.alpha1
            assert (alpha == sched.alpha2) == (i % 6 == 0)

    def test_resets_near_top_after_cycle(self):
        sched = LrSchedule(1.0, 0.2, 4)
        assert lr_at(sched, 5) == lr_at(sched, 1) > lr_at(sched, 4)

    def test_rejects_nonpositive_index(self):
        sched = LrSchedule(1.0, 0.2, 4)
        with pytest.raises(InvalidArgumentError):
            lr_at(sched, 0)


class TestValidateBudget:
    def test_epoch_style_structure_accepted(self):
        # c = 2 epochs, P = 10 epochs, n = 40 epochs at 5 iterations/epoch.
        sched = LrSchedule(0.05, 0.0005, 10)
        budget = BudgetSpec(total_iters=200, record_period=50)
        assert validate_budget(sched, budget) is budget

    def test_period_not_multiple_of_cycle(self):
        sched = LrSchedule(0.05, 0.0005, 3)
        with pytest.raises(ConfigurationError, match="record_period"):
            validate_budget(sched, BudgetSpec(total_iters=30, record_period=10))

    def test_total_not_multiple_of_period(self):
        sched = LrSchedule(0.05, 0.0005, 5)
        with pytest.raises(ConfigurationError, match="total_iters"):
            validate_budget(sched, BudgetSpec(total_iters=25, record_period=10))

    def test_total_not_multiple_of_cycle(self):
        sched = LrSchedule(0.05, 0.0005, 4)
        with pytest.raises(ConfigurationError, match="cycle_len"):
            validate_budget(sched, BudgetSpec(total_iters=10))

    def test_plain_budget_accepted(self):
        sched = LrSchedule(0.05, 0.0005, 4)
        budget = BudgetSpec(total_iters=12)
        assert validate_budget(sched, budget) is budget


class TestProperties:
    @given(alpha1=st.floats(1e-12, 1e3), alpha2=st.floats(1e-12, 1e3),
           cycle_len=st.integers(2, 60), i=st.integers(1, 10_000))
    def test_lr_hits_floor_exactly_at_cycle_ends(self, alpha1, alpha2, cycle_len, i):
        assume(alpha1 > alpha2)
        rate = lr_at(LrSchedule(alpha1, alpha2, cycle_len), i)
        if i % cycle_len == 0:
            assert rate == alpha2
        else:
            assert alpha2 <= rate < alpha1

    @given(cycle_len=st.integers(2, 12), period=st.one_of(st.none(), st.integers(1, 60)),
           total=st.integers(1, 400))
    def test_budget_accepted_exactly_when_c_divides_p_divides_n(self, cycle_len, period,
                                                                total):
        sched = LrSchedule(0.05, 0.0005, cycle_len)
        budget = BudgetSpec(total, period)
        if period is None:
            holds = total % cycle_len == 0
        else:
            holds = period % cycle_len == 0 and total % period == 0
        if holds:
            assert validate_budget(sched, budget) is budget
        else:
            with pytest.raises(ConfigurationError):
                validate_budget(sched, budget)
