"""Tests of the benchmark's own arithmetic. Run from the repository root:

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import statistics
import unittest

import run


def step(**fields):
    """A probe report with zeroed defaults for the fields a test ignores."""
    base = {
        "job_s": 0.0, "job_cpu_s": 0.0, "proc_cpu_s": 0.0, "threads": 2,
        "runner_hits": 0, "runner_misses": 0, "runner_jobs": 0,
        "websim_intervals": 0, "websim_requests_completed": 0,
        "agent_sweep_updates": 0, "agent_sweep_passes": 0,
        "ckpt_writes": 0, "ckpt_bytes": 0, "ckpt_write_s": 0.0, "ckpt_decode_s": 0.0,
        "lineup_s": 0.0, "tune_rac_s": 0.0, "tune_tae_s": 0.0, "tune_default_s": 0.0,
        "rac_mean_response_ms": 380.0, "rac_sla_violation_rate": 0.0,
    }
    base.update(fields)
    return base


class Quartiles(unittest.TestCase):
    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([4.2]), (4.2, 4.2, 4.2))
        self.assertEqual(run.spread([4.2]), 0.0)

    def test_small_counts_match_statistics(self):
        for values in ([1.0, 3.0], [3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0], [9, 1, 5, 3, 7]):
            self.assertEqual(run.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        # Exclusive method on 1..5: q1 = 1.5, median 3, q3 = 4.5.
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertAlmostEqual(run.spread([10, 10, 10, 10]), 0.0)
        self.assertEqual(run.spread([0, 0, 0]), 0.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.quartiles([])


class Subtractions(unittest.TestCase):
    def test_fit_sweep_is_train_minus_sample(self):
        untraced = step(job_s=35.0, cold_start_s=33.0)
        traced = step(job_s=36.5, init_train_s=32.0, init_sample_s=18.5, init_samples=486,
                      init_sweep_passes=2210, cache_bytes=28e6, cache_store_s=0.03,
                      cache_load_s=0.001, lineup_s=2.0, tune_rac_s=1.25,
                      runner_hits=10, runner_misses=30, job_cpu_s=58.4)
        m = run.cold_start_layers(untraced, traced)
        self.assertAlmostEqual(m["init.fit_sweep_s"], 13.5)
        self.assertAlmostEqual(m["trace.overhead_s"], 1.5)
        self.assertAlmostEqual(m["websim.simulate_s"], 0.75)
        self.assertAlmostEqual(m["runner.hit_ratio"], 0.25)
        self.assertAlmostEqual(m["runner.busy_ratio"], 0.8)
        self.assertEqual(m["cold_start_s"], 33.0)

    def test_persist_encode_and_replay(self):
        plain = step(job_s=2.0)
        plain_traced = step(job_s=2.25, lineup_s=2.25, tune_rac_s=1.0, tune_tae_s=0.25,
                            cache_bytes=28e6, cache_load_s=0.2)
        full = step(job_s=14.25, ckpt_writes=15, ckpt_bytes=15 * 28e6, ckpt_write_s=1.5)
        stop = step(job_s=7.0, proc_cpu_s=7.2)
        resume = step(job_s=7.5, proc_cpu_s=7.8, restore_read_s=0.125,
                      restore_parse_s=0.375, ckpt_decode_s=0.25, resume_s=1.25)
        m = run.checkpointed_layers(plain, plain_traced, full, stop, resume)
        self.assertAlmostEqual(m["ckpt.persist_s"], 12.0)
        self.assertAlmostEqual(m["ckpt.encode_s"], 10.5)
        self.assertAlmostEqual(m["ckpt.bytes_per_snapshot"], 28e6)
        self.assertAlmostEqual(m["ckpt.restore_s"], 0.75)
        self.assertAlmostEqual(m["ckpt.replay_s"], 0.5)
        self.assertAlmostEqual(m["websim.simulate_s"], 1.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.25)
        self.assertAlmostEqual(m["proc.cpu_s"], 15.0)

    def test_no_writes_means_no_bytes_per_snapshot(self):
        cached = step(cache_bytes=0, cache_load_s=0.0)
        m = run.checkpointed_layers(step(), cached, step(), step(),
                                    step(restore_read_s=0, restore_parse_s=0, resume_s=0))
        self.assertEqual(m["ckpt.bytes_per_snapshot"], 0.0)

    def test_tournament_counts_matchup_tasks_as_runner_jobs(self):
        traced = step(job_s=10.0, job_cpu_s=19.0, runner_tasks=48, lineup_s=19.0,
                      tune_rac_s=14.0)
        m = run.tournament_layers(step(job_s=9.5), traced)
        self.assertEqual(m["runner.jobs"], 48)
        self.assertAlmostEqual(m["runner.busy_ratio"], 0.95)
        self.assertAlmostEqual(m["websim.simulate_s"], 5.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.5)


if __name__ == "__main__":
    unittest.main()
