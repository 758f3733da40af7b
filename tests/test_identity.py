import math

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
