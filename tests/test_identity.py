import math

from sncsim.harness import SimConfig, chunk_length
from tests import identity

SRC = identity.ROOT / "src"


def test_working_tree_is_identical_to_itself(capsys):
    # two small configs, each tree and worker count in its own interpreter
    names = ["k2n1_snc_real_s0", "k2_cf_q2_r1_s0"]
    assert identity.main(["--base-src", str(SRC), "--config", *names]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"identical  {name} (workers {w})"
                          for name in names for w in identity.WORKERS]
    assert lines[-1] == "4 of 4 config runs identical"


def test_first_four_pooled_sweeps_span_several_chunks():
    # so that they start a pool at 2 workers
    for name in list(identity.POOLED)[:4]:
        cfg = SimConfig(**identity.POOLED[name])
        assert chunk_length(cfg) < cfg.trials, name


def test_differences_name_each_field_and_its_relative_difference():
    base = {"csv": "scheme,mean_sum_rate\nsnc,2.0\n", "sidecar": {"dof_slopes": {"snc": 1.5}},
            "points": [{"mean_sum_rate": 2.0, "trials": 4}], "dof_slopes": {"snc": 1.5},
            "aborted_trials": 0, "warning": None}
    assert identity.differences(base, base) == []
    head = dict(base, csv="scheme,mean_sum_rate\nsnc,2.5\n", points=[{"mean_sum_rate": -0.0,
                                                                       "trials": 4}],
                dof_slopes={"snc": 1.5 * (1 + 2**-52)}, warning="aborted")
    found = dict(identity.differences(base, head))
    assert list(found) == ["csv.rows[0].mean_sum_rate", "points[0].mean_sum_rate",
                           "dof_slopes.snc", "warning"]
    assert found["csv.rows[0].mean_sum_rate"] == 0.5 / 2.5
    assert found["points[0].mean_sum_rate"] == 1.0
    assert 0 < found["dof_slopes.snc"] < 1e-15 and found["warning"] == math.inf
    # -0.0 against 0.0 differs in repr, NaN against NaN does not
    signed = dict(base, points=[{"mean_sum_rate": math.nan, "trials": 4}])
    assert identity.differences(signed, dict(signed)) == []
    zero = dict(base, aborted_trials=0.0)
    assert identity.differences(zero, dict(zero, aborted_trials=-0.0)) == [
        ("aborted_trials", 0.0)]
    # bytes that no cell explains, and a field only one side has
    assert identity.differences(base, dict(base, csv=base["csv"] + "\r\n"))[0][0] == "csv"
    assert ("sidecar.run", math.inf) in identity.differences(
        base, dict(base, sidecar={**base["sidecar"], "run": 1}))


def test_speed_verdicts_follow_the_pairs_medians_and_bound():
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    # higher is better: every pair won by far more than the base's spread
    assert identity.verdict(base, [b + 10 for b in base], "higher", 0.15) == "gain"
    # a lower-is-better metric moving up by 10 % is within a 0.15 bound
    assert identity.verdict(base, [b + 10 for b in base], "lower", 0.15) == "no change"
    assert identity.verdict(base, [b * 0.8 for b in base], "higher", 0.15) == "regression"
    assert identity.verdict(base, [b * 1.2 for b in base], "lower", 0.15) == "regression"
    # a base spread wider than the bound resolves nothing ...
    wide = [80.0, 81.0, 119.0, 120.0]
    assert identity.verdict(wide, [119.0, 120.0, 80.0, 81.0], "higher", 0.15) == "unresolved"
    # ... unless every head run beats every base run
    assert identity.verdict(wide, [121.0] * 4, "higher", 0.15) == "no change"
    # fewer than PAIRS pairs never make a gain, however far the head is ahead
    assert identity.verdict([100.0], [200.0], "higher", 0.15) == "no change"
    assert identity.verdict(base[:9], [b + 10 for b in base[:9]], "higher", 0.15) == "no change"


def test_speed_ties_count_for_neither_side():
    base = [46.0] * 10
    assert identity.head_wins(base, base, "lower") == 0
    assert identity.verdict(base, base, "lower", 0.1) == "no change"
    # 9 wins and a tie is a gain, 8 wins and two ties is not
    assert identity.verdict(base, [45.0] * 9 + [46.0], "lower", 0.1) == "gain"
    assert identity.head_wins(base, [45.0] * 8 + [46.0] * 2, "lower") == 8
    assert identity.verdict(base, [45.0] * 8 + [46.0] * 2, "lower", 0.1) == "no change"


def test_speed_report_prints_each_metric_of_each_workload():
    metrics = [{"name": "evals_per_s", "better": "higher", "bound": 0.15},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    pairs = [({"evals_per_s": 100.0 + i, "peak_rss_mb": 46.0},
              {"evals_per_s": 70.0 + i, "peak_rss_mb": 46.0}) for i in range(4)]
    lines, verdicts = identity.speed_report({"w": pairs, "none": []}, metrics)
    assert verdicts == ["regression", "no change"]
    assert lines[0] == "w (4 pairs)" and lines[-1] == "none (0 pairs)"
    # quartiles by statistics.quantiles' default (exclusive) method, as bench/suite.py's
    assert lines[1].split() == ["evals_per_s", "base", "101.5", "[100.25,", "102.75]",
                                "head", "71.5", "[70.25,", "72.75]", "-29.56", "%",
                                "head", "better", "0/4", "regression"]
    assert lines[2].endswith("+0.00 %  head better 0/4  no change")
