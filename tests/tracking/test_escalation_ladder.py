"""Tests for the shared precision-ladder loop of tracking/escalation.py.

Both solve routes, in process and sharded, hand their rung runs to
``run_escalation_ladder``; these tests drive it with a scripted rung
callback so the bookkeeping is checked apart from any tracking.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.tracking.escalation import RungOutcome, run_escalation_ladder

LADDER = (SimpleNamespace(name="cheap"), SimpleNamespace(name="wide"))


def scripted_rungs(successes, resumed_mid_ts=None, at_infinity=()):
    """A rung callback that succeeds on the path indices in
    ``successes[level]``, retires those in ``at_infinity`` as diverging,
    leaves checkpoint ``(level, index)`` for every path it ran, and
    records what each call received."""
    calls = []

    def run_rung(level, rung, pending, checkpoints_by_index):
        calls.append((level, list(pending), dict(checkpoints_by_index)))
        return RungOutcome(
            results=[SimpleNamespace(success=index in successes[level],
                                     at_infinity=index in at_infinity)
                     for index, _ in pending],
            checkpoints=[(level, index) for index, _ in pending],
            resumed_mid_ts=[] if resumed_mid_ts is None
            else resumed_mid_ts[level])

    return run_rung, calls


class TestLadderLoop:
    def test_failed_paths_move_up_with_their_checkpoints(self):
        run_rung, calls = scripted_rungs({0: {0, 2}, 1: {3}})
        state = run_escalation_ladder(LADDER, "pqrs", run_rung)

        assert [level for level, _, _ in calls] == [0, 1]
        _, pending, checkpoints = calls[1]
        assert pending == [(1, "q"), (3, "s")]
        assert checkpoints[1] == (0, 1) and checkpoints[3] == (0, 3)

        assert sorted(state.solved) == [0, 2, 3]
        assert sorted(state.still_failing) == [1]
        assert state.recovered == 1
        assert state.checkpoints_by_index == {0: (0, 0), 1: (1, 1),
                                              2: (0, 2), 3: (1, 3)}
        assert state.paths_by_context == {"cheap": 4, "wide": 2}
        assert state.converged_by_context == {"cheap": 2, "wide": 1}

    def test_resumed_and_restarted_paths_are_counted_per_rung(self):
        run_rung, _ = scripted_rungs({0: set(), 1: {0, 1}},
                                     resumed_mid_ts={0: [], 1: [0.375]})
        state = run_escalation_ladder(LADDER, "pq", run_rung)

        assert state.resumed_by_context == {"cheap": 0, "wide": 1}
        assert state.restarted_by_context == {"cheap": 2, "wide": 1}
        assert state.resume_t_by_context == {"cheap": [], "wide": [0.375]}
        assert state.recovered == 2
        assert state.still_failing == {}

    def test_ladder_stops_once_every_path_converged(self):
        run_rung, calls = scripted_rungs({0: {0, 1}, 1: set()})
        state = run_escalation_ladder(LADDER, "pq", run_rung)

        assert [level for level, _, _ in calls] == [0]
        assert state.paths_by_context == {"cheap": 2}
        assert state.recovered == 0
        assert [result.success for result in state.converged_results()] \
            == [True, True]

    def test_paths_at_infinity_stay_failed_and_never_move_up(self):
        run_rung, calls = scripted_rungs({0: {0}, 1: {2}}, at_infinity={1, 3})
        state = run_escalation_ladder(LADDER, "pqrs", run_rung)

        _, pending, _ = calls[1]
        assert pending == [(2, "r")]
        assert sorted(state.solved) == [0, 2]
        assert sorted(state.still_failing) == [1, 3]
        assert all(result.at_infinity for result in state.failed_results())
        assert state.paths_by_context == {"cheap": 4, "wide": 1}
        assert state.checkpoints_by_index[3] == (0, 3)
