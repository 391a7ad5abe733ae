"""Store-backed execution: the resumable-sweep acceptance criteria.

The headline contract (ISSUE 3): a sweep run twice against the same
store performs **zero replays** on the second pass — verified through
the store's hit counters and the miss-stream cache's filter counters —
and yields a ResultSet **bit-identical** to the cold run, under both
serial and ``workers=N`` execution and under both replay engines.
"""

import pytest

from repro.analysis.experiments import ExperimentContext
from repro.errors import ConfigurationError
from repro.run import MissStreamCache, Runner, RunSpec
from repro.store import ExperimentStore

SCALE = 0.05


def spec_of(app="galgel", mechanism="DP", **kwargs):
    kwargs.setdefault("scale", SCALE)
    return RunSpec.of(app, mechanism, **kwargs)


def sweep_specs(engine="auto"):
    return [
        spec_of(app, mechanism, engine=engine)
        for app in ("galgel", "swim")
        for mechanism in ("DP", "RP", "ASP", "MP")
    ]


class TestResumableSweeps:
    @pytest.mark.parametrize("engine", ["auto", "reference", "fast"])
    def test_second_pass_zero_replays_bit_identical(self, tmp_path, engine):
        store = ExperimentStore(tmp_path / "store")
        runner = Runner(cache=MissStreamCache(), store=store)
        specs = sweep_specs(engine)

        cold = runner.run(specs)
        after_cold = store.stats()
        assert after_cold["result_misses"] == len(specs)
        assert after_cold["result_hits"] == 0

        warm_cache = MissStreamCache()
        warm = Runner(cache=warm_cache, store=store).run(specs)
        after_warm = store.stats()
        assert after_warm["result_hits"] == len(specs)  # 100% store hits
        assert after_warm["result_misses"] == len(specs)  # unchanged
        assert warm_cache.misses == 0  # zero TLB filters => zero replays
        assert warm.to_json() == cold.to_json()  # bit-identical

    def test_second_pass_parallel_bit_identical(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        specs = sweep_specs()
        cold = Runner(workers=2, cache=MissStreamCache(), store=store).run(specs)
        before = store.stats()
        warm = Runner(workers=2, cache=MissStreamCache(), store=store).run(specs)
        after = store.stats()
        assert after["result_hits"] - before["result_hits"] == len(specs)
        assert after["result_misses"] == before["result_misses"]
        assert warm.to_json() == cold.to_json()

    def test_cold_parallel_equals_cold_serial_and_stores_once(self, tmp_path):
        specs = sweep_specs()
        serial_store = ExperimentStore(tmp_path / "serial")
        serial = Runner(cache=MissStreamCache(), store=serial_store).run(specs)
        parallel_store = ExperimentStore(tmp_path / "parallel")
        parallel = Runner(
            workers=4, cache=MissStreamCache(), store=parallel_store
        ).run(specs)
        assert parallel.to_json() == serial.to_json()
        assert parallel_store.stats()["result_entries"] == len(specs)

    def test_engines_share_store_entries(self, tmp_path):
        """Engine is execution metadata: a run stored by the compiled
        engine is a hit for the same spec on the reference engine (and the row
        is identical, by the differential-tested contract)."""
        store = ExperimentStore(tmp_path / "store")
        fast = Runner(cache=MissStreamCache(), store=store).run(sweep_specs("fast"))
        before = store.stats()
        reference = Runner(cache=MissStreamCache(), store=store).run(
            sweep_specs("reference")
        )
        after = store.stats()
        assert after["result_misses"] == before["result_misses"]
        assert reference.to_json() == fast.to_json()

    def test_duplicates_one_compute_one_copy(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        results = Runner(cache=MissStreamCache(), store=store).run(
            [spec, spec, spec]
        )
        assert len(results) == 3
        assert results[0] == results[1] == results[2]
        stats = store.stats()
        assert stats["result_entries"] == 1
        assert stats["result_misses"] == 1  # one lookup per unique key

    def test_fresh_process_reuses_streams_for_new_mechanisms(self, tmp_path):
        """A new process extending a sweep loads stored *streams* instead
        of re-filtering, even when the specs themselves are new."""
        store_dir = tmp_path / "store"
        Runner(cache=MissStreamCache(), store=ExperimentStore(store_dir)).run(
            [spec_of(mechanism="DP")]
        )
        fresh_store = ExperimentStore(store_dir)
        before = fresh_store.stats()
        Runner(cache=MissStreamCache(), store=fresh_store).run(
            [spec_of(mechanism="RP")]  # new spec, same stream
        )
        after = fresh_store.stats()
        assert after["stream_hits"] - before["stream_hits"] == 1

    def test_store_accepts_a_path(self, tmp_path):
        runner = Runner(cache=MissStreamCache(), store=tmp_path / "store")
        assert isinstance(runner.store, ExperimentStore)
        runner.run([spec_of()])
        assert runner.store.stats()["result_entries"] == 1


class TestExperimentContextResumption:
    def test_figure_resumes_from_store(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        cold_context = ExperimentContext(scale=SCALE, store=store)
        cold = cold_context.run_figure(["galgel"])
        before = store.stats()
        assert before["result_misses"] > 0

        warm_cache = MissStreamCache()
        warm_context = ExperimentContext(
            scale=SCALE, runner=Runner(cache=warm_cache, store=store)
        )
        warm = warm_context.run_figure(["galgel"])
        after = store.stats()
        assert warm == cold
        assert after["result_misses"] == before["result_misses"]
        assert warm_cache.misses == 0  # no filtering on resumption

    def test_partial_sweep_only_missing_specs_replay(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        context = ExperimentContext(scale=SCALE, store=store)
        context.run_figure(["galgel"])
        before = store.stats()
        context.run_figure(["galgel", "swim"])  # extends the sweep
        after = store.stats()
        new_specs = after["result_entries"] - before["result_entries"]
        assert new_specs > 0  # swim rows computed...
        assert after["result_misses"] - before["result_misses"] == new_specs
        assert after["result_hits"] - before["result_hits"] == before["result_entries"]

    def test_runner_and_store_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="either runner= or store="):
            ExperimentContext(
                runner=Runner(cache=MissStreamCache()),
                store=ExperimentStore(tmp_path / "store"),
            )
