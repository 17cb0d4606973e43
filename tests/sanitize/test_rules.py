"""Must-pass / must-fail fixtures for every lvm-san rule.

Each rule gets snippets that must be flagged (with exactly the
intended rule id) and close-but-legal snippets that must pass — the
acceptance bar for the linter is that a seeded violation is caught by
exactly the rule that owns the invariant.
"""

from __future__ import annotations

import textwrap

from repro.sanitize.engine import lint_source
from repro.sanitize.rules import FaultSiteRule, all_rules, rules_by_id

#: module path used for fixtures that must be inside the cycle domain
CYCLE_MOD = "repro/hw/fixture.py"
#: and one that is not
PLAIN_MOD = "repro/analysis/fixture.py"

#: registry injected into LVM005 so fixtures don't depend on the real one
KNOWN_SITES = frozenset({"rvm.commit.log", "fifo.overflow"})


def run(source, module_path=CYCLE_MOD):
    rules = all_rules()
    for rule in rules:
        if isinstance(rule, FaultSiteRule):
            rule.known_sites = KNOWN_SITES
    return lint_source(textwrap.dedent(source), module_path, rules)


def rule_ids(source, module_path=CYCLE_MOD):
    return [f.rule_id for f in run(source, module_path)]


class TestLVM001WallClock:
    def test_time_time_flagged(self):
        src = """\
            import time
            def step(cpu):
                start = time.time()
                return start
            """
        assert rule_ids(src) == ["LVM001"]

    def test_aliased_import_flagged(self):
        src = """\
            from time import monotonic as mono
            def step():
                return mono()
            """
        assert rule_ids(src) == ["LVM001"]

    def test_datetime_now_flagged(self):
        src = """\
            from datetime import datetime
            def stamp():
                return datetime.now()
            """
        assert rule_ids(src) == ["LVM001"]

    def test_sleep_flagged(self):
        src = """\
            import time
            def wait():
                time.sleep(1)
            """
        assert rule_ids(src) == ["LVM001"]

    def test_cycle_counters_pass(self):
        src = """\
            def step(cpu, clock):
                now = cpu.now
                return clock.timestamp(now)
            """
        assert rule_ids(src) == []

    def test_outside_cycle_domain_passes(self):
        src = """\
            import time
            def wall():
                return time.time()
            """
        assert rule_ids(src, PLAIN_MOD) == []

    def test_unrelated_time_attribute_passes(self):
        src = """\
            def elapsed(machine):
                return machine.time()
            """
        assert rule_ids(src) == []


class TestLVM002Randomness:
    def test_module_level_random_flagged(self):
        src = """\
            import random
            def pick(items):
                return random.choice(items)
            """
        assert rule_ids(src) == ["LVM002"]

    def test_unseeded_random_instance_flagged(self):
        src = """\
            import random
            def make_rng():
                return random.Random()
            """
        assert rule_ids(src) == ["LVM002"]

    def test_secrets_flagged(self):
        src = """\
            import secrets
            def token():
                return secrets.token_bytes(8)
            """
        assert rule_ids(src) == ["LVM002"]

    def test_os_urandom_flagged(self):
        src = """\
            import os
            def noise():
                return os.urandom(4)
            """
        assert rule_ids(src) == ["LVM002"]

    def test_seeded_random_instance_passes(self):
        src = """\
            import random
            def make_rng(seed):
                return random.Random(seed)
            """
        assert rule_ids(src) == []

    def test_instance_methods_pass(self):
        src = """\
            import random
            def roll(seed):
                rng = random.Random(seed)
                return rng.randint(0, 5)
            """
        assert rule_ids(src) == []


class TestLVM003IntegerCycles:
    def test_true_division_flagged(self):
        src = """\
            def split(total, n):
                cycles = total / n
                return cycles
            """
        assert rule_ids(src) == ["LVM003"]

    def test_float_literal_flagged(self):
        src = """\
            def pad(base):
                wait_cycles = base + 1.5
                return wait_cycles
            """
        assert rule_ids(src) == ["LVM003"]

    def test_float_call_flagged(self):
        src = """\
            def widen(n):
                cycle = float(n)
                return cycle
            """
        assert rule_ids(src) == ["LVM003"]

    def test_augmented_division_flagged(self):
        src = """\
            def halve(cycles):
                cycles /= 2
                return cycles
            """
        assert rule_ids(src) == ["LVM003"]

    def test_attribute_target_flagged(self):
        src = """\
            def charge(self, n):
                self.stall_cycles = n / 2
            """
        assert rule_ids(src) == ["LVM003"]

    def test_float_annotation_flagged(self):
        src = """\
            def f(n):
                cycles: float = 0
                return cycles
            """
        assert rule_ids(src) == ["LVM003"]

    def test_floor_division_passes(self):
        src = """\
            def split(total, n):
                cycles = total // n
                return cycles
            """
        assert rule_ids(src) == []

    def test_non_cycle_ratio_passes(self):
        src = """\
            def rate(records, cycles):
                per_cycle = records / cycles
                return per_cycle
            """
        assert rule_ids(src) == []

    def test_suppression_works(self):
        src = """\
            def report(total, n):
                cycles = total / n  # lvm-san: ignore[LVM003]
                return cycles
            """
        assert rule_ids(src) == []


class TestLVM004GatePattern:
    def test_truthiness_flagged(self):
        src = """\
            _ACTIVE = None
            def gate():
                if _ACTIVE:
                    return 1
                return 0
            """
        assert rule_ids(src) == ["LVM004"]

    def test_equality_with_none_flagged(self):
        src = """\
            _ACTIVE = None
            def gate():
                return _ACTIVE == None
            """
        assert rule_ids(src) == ["LVM004"]

    def test_not_operator_flagged(self):
        src = """\
            _ACTIVE = None
            def gate():
                return not _ACTIVE
            """
        assert rule_ids(src) == ["LVM004"]

    def test_unguarded_member_access_flagged(self):
        src = """\
            from repro import probe
            def emit():
                probe._ACTIVE.inc("x", 1)
            """
        assert rule_ids(src, "repro/core/fixture.py") == ["LVM004"]

    def test_spine_gate_truthiness_flagged(self):
        src = """\
            from repro import probe
            def emit():
                sp = probe._ACTIVE
                if probe._ACTIVE:
                    sp.inc("x", 1)
            """
        assert rule_ids(src, "repro/core/fixture.py") == ["LVM004"]

    def test_is_none_gate_passes(self):
        src = """\
            _ACTIVE = None
            def gate():
                if _ACTIVE is None:
                    return 0
                return 1
            """
        assert rule_ids(src) == []

    def test_guarded_chained_use_passes(self):
        src = """\
            from repro.faults import plan as faultplan
            def hit(site, cycle):
                if faultplan._ACTIVE is not None:
                    faultplan._ACTIVE.hit("rvm.commit.log", cycle=cycle)
            """
        assert rule_ids(src, "repro/core/fixture.py") == []

    def test_capture_to_local_passes(self):
        src = """\
            from repro import probe
            def emit():
                sp = probe._ACTIVE
                if sp is not None:
                    sp.inc("x", 1)
            """
        assert rule_ids(src, "repro/core/fixture.py") == []


class TestLVM005FaultSites:
    def test_unknown_site_flagged(self):
        src = """\
            from repro.faults import plan as faultplan
            def commit(cycle):
                faultplan.hit("rvm.comit.log", cycle=cycle)
            """
        assert rule_ids(src, "repro/rvm/fixture.py") == ["LVM005"]

    def test_nonliteral_site_outside_faults_flagged(self):
        src = """\
            from repro.faults import plan as faultplan
            def commit(site, cycle):
                faultplan.hit(site, cycle=cycle)
            """
        assert rule_ids(src, "repro/rvm/fixture.py") == ["LVM005"]

    def test_crashspec_unknown_site_flagged(self):
        src = """\
            from repro.faults.plan import CrashSpec
            SPEC = CrashSpec("no.such.site", 1, "before")
            """
        assert rule_ids(src, "repro/rvm/fixture.py") == ["LVM005"]

    def test_keyword_site_checked(self):
        src = """\
            from repro.faults import plan as faultplan
            def commit(cycle):
                faultplan.hit(site="bogus.site", cycle=cycle)
            """
        assert rule_ids(src, "repro/rvm/fixture.py") == ["LVM005"]

    def test_registered_site_passes(self):
        src = """\
            from repro.faults import plan as faultplan
            def commit(cycle):
                faultplan.hit("rvm.commit.log", cycle=cycle)
            """
        assert rule_ids(src, "repro/rvm/fixture.py") == []

    def test_faults_package_may_forward_site_variables(self):
        src = """\
            def hit(site, cycle):
                pass
            def forward(site, cycle):
                hit(site, cycle)
            """
        assert rule_ids(src, "repro/faults/fixture.py") == []

    def test_real_registry_is_used_when_not_injected(self):
        src = """\
            from repro.faults import plan as faultplan
            def commit(cycle):
                faultplan.hit("rvm.commit.log", cycle=cycle)
            """
        findings = lint_source(
            textwrap.dedent(src), "repro/rvm/fixture.py", [FaultSiteRule()]
        )
        assert findings == []


class TestLVM006FastPathFallback:
    def test_bare_fast_path_flagged(self):
        src = """\
            def copy_fast(dst, src):
                dst[:] = src
            def caller(dst, src):
                copy_fast(dst, src)
            """
        assert rule_ids(src) == ["LVM006"]

    def test_guard_in_function_passes(self):
        src = """\
            from repro import probe
            from repro.faults import plan as faultplan
            def copy_fast(dst, src):
                sp = probe._ACTIVE
                if faultplan._ACTIVE is not None or (sp is not None and sp.detail):
                    return False
                dst[:] = src
                return True
            """
        assert rule_ids(src) == []

    def test_guard_in_all_callers_passes(self):
        src = """\
            from repro import probe
            from repro.faults import plan as faultplan
            def _drain_fast(entries):
                entries.clear()
            def drain(entries):
                sp = probe._ACTIVE
                if faultplan._ACTIVE is not None or (sp is not None and sp.detail):
                    return None
                return _drain_fast(entries)
            """
        assert rule_ids(src) == []

    def test_one_unguarded_caller_flags(self):
        src = """\
            from repro import probe
            from repro.faults import plan as faultplan
            def _drain_fast(entries):
                entries.clear()
            def drain(entries):
                sp = probe._ACTIVE
                if faultplan._ACTIVE is not None or (sp is not None and sp.detail):
                    return None
                return _drain_fast(entries)
            def sneaky(entries):
                return _drain_fast(entries)
            """
        assert rule_ids(src) == ["LVM006"]

    def test_trace_detail_guard_counts(self):
        # The detail half is required: a fault-plan-only guard would let
        # a tracer watch the fused loop skip its per-record spans.
        src = """\
            from repro.faults import plan as faultplan
            def write_fast(dst, src):
                if faultplan._ACTIVE is not None:
                    return False
                dst[:] = src
                return True
            """
        assert rule_ids(src) == ["LVM006"]

    def test_detail_flag_alone_is_not_the_condition(self):
        src = """\
            from repro import probe
            def write_fast(dst, src):
                sp = probe._ACTIVE
                if sp is not None and sp.detail:
                    return False
                dst[:] = src
                return True
            """
        assert rule_ids(src) == ["LVM006"]


class TestRuleInventory:
    def test_rule_ids_are_unique_and_documented(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids) == 6
        for rule in rules:
            assert rule.title, rule.rule_id
            assert rule.rationale, rule.rule_id

    def test_rules_by_id(self):
        assert set(rules_by_id()) == {
            "LVM001", "LVM002", "LVM003", "LVM004", "LVM005", "LVM006",
        }
