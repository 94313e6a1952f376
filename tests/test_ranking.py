"""Ranking tests (§9): generic criteria, severity stratification, the
z-statistic, statistical rule ranking, and code ranking."""

import math

from repro.cfront.source import Location
from repro.engine.errors import ErrorLog
from repro.reports.model import Report
from repro.ranking import (
    generic_rank,
    rank_by_rule_reliability,
    rank_functions_by_code,
    stratify,
    z_statistic,
)
from repro.ranking.generic import CONDITIONAL_WEIGHT, difficulty_score
from repro.ranking.severity import group_by_rule, suppress_rule
from repro.ranking.statistical import rule_reliability_table, rule_z_score


def report(message="m", line=10, origin_line=None, conditionals=0,
           synonym_chain=0, call_chain=0, severity=None, rule_id=None,
           checker="c"):
    return Report(
        checker=checker,
        message=message,
        location=Location("f.c", line, 1),
        function="fn",
        origin_location=Location("f.c", origin_line, 1)
        if origin_line is not None
        else None,
        conditionals=conditionals,
        synonym_chain=synonym_chain,
        call_chain=call_chain,
        severity=severity,
        rule_id=rule_id,
    )


class TestGenericRanking:
    def test_distance(self):
        near = report("near", line=10, origin_line=9)
        far = report("far", line=300, origin_line=10)
        assert generic_rank([far, near]) == [near, far]

    def test_conditionals_weighted_ten_lines(self):
        # "Each conditional is arbitrarily weighted as ten lines."
        assert difficulty_score(report(origin_line=10, line=10, conditionals=3)) == (
            3 * CONDITIONAL_WEIGHT
        )
        few_conds = report("a", line=10, origin_line=10, conditionals=1)
        much_distance = report("b", line=21, origin_line=10, conditionals=0)
        # 1 conditional (10) < 11 lines distance
        assert generic_rank([much_distance, few_conds]) == [few_conds, much_distance]

    def test_synonyms_rank_below(self):
        direct = report("direct", line=100, origin_line=0)
        synonym = report("syn", line=10, origin_line=9, synonym_chain=1)
        assert generic_rank([synonym, direct]) == [direct, synonym]

    def test_synonym_chain_length_orders(self):
        short = report("short", synonym_chain=1)
        long = report("long", synonym_chain=3)
        assert generic_rank([long, short]) == [short, long]

    def test_local_over_interprocedural(self):
        local = report("local", line=500, origin_line=0, conditionals=9)
        inter = report("inter", line=10, origin_line=9, call_chain=1)
        assert generic_rank([inter, local]) == [local, inter]

    def test_call_chain_length_orders(self):
        shallow = report("shallow", call_chain=1)
        deep = report("deep", call_chain=4)
        assert generic_rank([deep, shallow]) == [shallow, deep]


class TestSeverity:
    def test_stratification_order(self):
        security = report("s", severity="SECURITY", line=999, origin_line=0)
        error = report("e", severity="ERROR")
        plain = report("p")
        minor = report("m2", severity="MINOR")
        ranked = stratify([minor, plain, error, security])
        assert [r.message for r in ranked] == ["s", "e", "p", "m2"]

    def test_group_by_rule(self):
        a1 = report("a1", rule_id="kfree")
        a2 = report("a2", rule_id="kfree")
        b = report("b", rule_id="vfree")
        groups = group_by_rule([a1, a2, b])
        assert len(groups["kfree"]) == 2
        assert len(groups["vfree"]) == 1

    def test_suppress_rule(self):
        a = report("a", rule_id="bad_rule")
        b = report("b", rule_id="good_rule")
        assert suppress_rule([a, b], "bad_rule") == [b]


class TestZStatistic:
    def test_formula(self):
        # z(n, e) = (e/n - p0) / sqrt(p0 (1-p0) / n)
        n, e, p0 = 100, 90, 0.5
        expected = (e / n - p0) / math.sqrt(p0 * (1 - p0) / n)
        assert abs(z_statistic(n, e) - expected) < 1e-12

    def test_zero_n(self):
        assert z_statistic(0, 0) == 0.0

    def test_always_followed_is_high(self):
        assert z_statistic(100, 99) > z_statistic(100, 60)

    def test_random_rule_is_zero(self):
        assert abs(z_statistic(100, 50)) < 1e-12

    def test_more_evidence_is_stronger(self):
        assert z_statistic(1000, 900) > z_statistic(10, 9)

    def test_rule_z_score(self):
        assert rule_z_score(9, 1) == z_statistic(10, 9)


class TestStatisticalRanking:
    def test_reliable_rules_float_up(self):
        # The §9 anecdote: functions the analysis mishandles violate "their"
        # rule ~half the time; real rules are followed almost always.
        log = ErrorLog()
        for i in range(95):
            log.count_example("real_rule", ("f.c", i, 0))
        for i in range(5):
            log.count_violation("real_rule", ("f.c", 1000 + i, 0))
        for i in range(50):
            log.count_example("broken_rule", ("g.c", i, 0))
        for i in range(50):
            log.count_violation("broken_rule", ("g.c", 1000 + i, 0))

        real = report("real", rule_id="real_rule")
        noise = report("noise", rule_id="broken_rule")
        ranked = rank_by_rule_reliability([noise, real], log)
        assert ranked[0] is real

    def test_reliability_table_sorted(self):
        log = ErrorLog()
        log.count_example("good", ("a", 1, 0))
        log.count_example("good", ("a", 2, 0))
        log.count_example("good", ("a", 3, 0))
        log.count_violation("good", ("a", 4, 0))
        log.count_example("bad", ("b", 1, 0))
        log.count_violation("bad", ("b", 2, 0))
        rows = rule_reliability_table(log)
        assert rows[0][0] == "good"
        assert rows[0][3] > rows[-1][3]

    def test_distinct_site_counting(self):
        log = ErrorLog()
        site = ("a", 1, 0)
        log.count_example("r", site)
        log.count_example("r", site)  # same site: counted once
        assert log.rule_counts("r") == (1, 0)


class TestCodeRanking:
    def test_wrappers_sink_users_float(self):
        # §9: wrapper functions have ~100% mismatch rate; users with many
        # correct pairs and one error rank highest.
        counts = {
            "helper_acquire": (0, 10),  # always "mismatched": a wrapper
            "user_with_bug": (20, 1),
            "clean_user": (20, 0),
        }
        rows = rank_functions_by_code(counts)
        names = [row[0] for row in rows]
        assert names[0] == "user_with_bug"
        assert "clean_user" not in names  # nothing to inspect
        assert names[-1] == "helper_acquire"
