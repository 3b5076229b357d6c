"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def cli():
    # A plain import, not run.setup(), which would reload modules other
    # tests in the same session already hold.
    import biquadrates.cli
    return biquadrates.cli


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert jobs.job_list(workload, 7) == jobs.job_list(workload, 7)
    assert jobs.job_list(workload, 7) != jobs.job_list(workload, 8)


def test_expected_files_match_default_job_lists():
    for workload in jobs.WORKLOADS:
        expected = run.load_expected(workload, jobs.DEFAULT_SEED)
        assert [argv for argv, _, _ in expected] == jobs.job_list(workload, jobs.DEFAULT_SEED)


def test_search_windows_have_equal_work():
    for windows in (jobs.SQUARE_WINDOWS, jobs.TALL_WINDOWS):
        work = [jobs.window_work(bx, by) for bx, by in windows]
        assert max(work) <= 1.08 * min(work)


def test_small_jobs_reach_the_digit_limit():
    job_list = jobs.job_list("small-jobs", jobs.DEFAULT_SEED)
    assert any(j[:2] == ["pell", "--k"] and int(j[2]) > 1900 for j in job_list)
    assert any(j[:3] == ["curve", "--n", "24"] for j in job_list)


def test_speedometer_scales_by_probe_speed():
    sm = speed.Speedometer()
    nominal = speed.NOMINAL_PROBE_S
    # Probes twice as slow as nominal at 0.0 and 1.0; one inside [0.5, 0.9].
    sm.starts = [0.0, 0.6, 1.0, 5.0]
    sm.durations = [2 * nominal, 2 * nominal, 2 * nominal, nominal]
    assert sm.scaled(0.5, 0.9) == pytest.approx((0.4 - 2 * nominal) / 2)
    assert sm.scaled(4.9, 5.1) == pytest.approx(0.2 - nominal)
    with speed.Speedometer() as sm:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
    assert len(sm.starts) >= 3 and sm.starts == sorted(sm.starts)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_corrupted_solution_line_fails(cli):
    argv = ["search", "--bx", "14", "--by", "29"]
    good = run.run_job(cli, argv)
    assert checks.classify(argv, good.rc, good.out, good.err, good.crashed)[0] == checks.OK
    lines = good.out.splitlines()
    x1, x2, y1, y2, z1, z2 = lines[0].split()
    lines[0] = " ".join((x1, x2, y1, y2, z1, str(int(z2) + 1)))
    bad = "\n".join(lines) + "\n"
    status, reason = checks.classify(argv, 0, bad, "", False)
    assert status == checks.FAIL and "equation" in reason
    duplicate = good.out + good.out.splitlines()[0] + "\n"
    assert checks.classify(argv, 0, duplicate, "", False)[0] == checks.FAIL


def test_corrupted_record_and_family_fail(cli):
    argv = ["family", "eq20", "--param", "2/3"]
    good = run.run_job(cli, argv)
    assert checks.classify(argv, good.rc, good.out, good.err, good.crashed)[0] == checks.OK
    bad = good.out.replace("source: family_eq20", "source: family_eq21")
    assert checks.classify(argv, 0, bad, "", False)[0] == checks.FAIL

    argv = ["family", "eq22", "--symbolic"]
    good = run.run_job(cli, argv)
    assert checks.classify(argv, good.rc, good.out, good.err, good.crashed)[0] == checks.OK
    bad = good.out.replace("residual: 0", "residual: nonzero")
    assert checks.classify(argv, 0, bad, "", False)[0] == checks.FAIL
    x1 = [line for line in good.out.splitlines() if line.startswith("x1 = ")][0]
    bad = good.out.replace(x1, x1 + " + 1")
    assert checks.classify(argv, 0, bad, "", False)[0] == checks.FAIL


def test_digit_limit_failures_are_known_defects(cli):
    for argv in (["curve", "--n", "19", "--m", "3/5"], ["pell", "--k", "3000"]):
        r = run.run_job(cli, argv)
        assert r.rc == 1
        assert checks.classify(argv, r.rc, r.out, r.err, r.crashed)[0] == checks.KNOWN_DEFECT


def test_expected_digest_mismatch_fails(cli):
    argv = ["verify", "1", "2", "5", "6", "8", "13"]
    r = run.run_job(cli, argv)
    outcomes = run.Outcomes([(argv, 0, "0" * 64)])
    outcomes.add_round([r])
    assert outcomes.counts[checks.FAIL] == 1


def test_traced_and_untraced_digests_match(cli):
    job_list = jobs.job_list("small-jobs", 3)[:40] + [["curve", "--n", "3", "--symbolic"],
                                                      ["search", "--bx", "8", "--by", "12"]]
    _, plain = run.run_round(cli, job_list)
    tr, _, traced = run._traced_round(cli, job_list)
    assert [checks.digest(r.out) for r in traced] == [checks.digest(r.out) for r in plain]
    assert [r.rc for r in traced] == [r.rc for r in plain]
    metrics = tr.metrics()
    assert metrics["families.residual_calls"] >= 2
    assert metrics["search.decompose_fourth_calls"] > 0
    assert metrics["poly.mul_calls"] > 0
    assert cli.search.__name__ == "search"


def test_tracer_restores_every_patch(cli):
    import biquadrates.identity as identity
    import biquadrates.poly as poly
    before = (poly.IPoly.__mul__, poly.IPoly.__rmul__, poly.poly_gcd,
              dict(identity.ALL_VERIFIERS), cli.search)
    tr = tracer.Tracer()
    tr.install()
    assert poly.IPoly.__mul__ is poly.IPoly.__rmul__ is not before[0]
    assert identity.ALL_VERIFIERS["brahmagupta"] is not before[3]["brahmagupta"]
    tr.uninstall()
    after = (poly.IPoly.__mul__, poly.IPoly.__rmul__, poly.poly_gcd,
             dict(identity.ALL_VERIFIERS), cli.search)
    assert after == before


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == tracer.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "job_p50_s", "job_p90_s", "peak_rss_mb"}
