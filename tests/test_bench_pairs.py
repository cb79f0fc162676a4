"""The summary of ``tests/bench_pairs.py`` on fixed runs: medians, ranges,
ratios and pairs won, each metric in its own direction, a tie won by
neither side."""

from bench_pairs import summary

SPEC = [{"name": "ops_per_s", "better": "higher"},
        {"name": "op_p50_s", "better": "lower"}]


def test_summary_of_fixed_pairs():
    base = [{"ops_per_s": v, "op_p50_s": t} for v, t in
            [(700, 1.4), (690, 1.38), (705, 1.39)]]
    change = [{"ops_per_s": v, "op_p50_s": t} for v, t in
              [(770, 1.22), (680, 1.21), (705, 1.5)]]
    assert summary(base, change, SPEC) == [
        "ops_per_s     base 700 [690, 705]  change 705 [680, 770]  ratio 1.007  won 1/3",
        "op_p50_s      base 1.39 [1.38, 1.4]  change 1.22 [1.21, 1.5]  ratio 0.878  won 2/3",
    ]
