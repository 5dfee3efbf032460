"""Per-rule positive/negative coverage driven by the fixture files.

Every RPR rule gets at least one fixture that must trip it and one that
must stay silent; the fixtures double as readable documentation of each
rule's contract (docs/static-analysis.md).
"""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_source
from repro.analysis.lint.rules import RULES, RULES_BY_CODE

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture stem -> (module path the file is linted under, expected code)
CASES = {
    "rpr001": ("krylov/monitors.py", "RPR001"),
    "rpr002": ("comm/pattern.py", "RPR002"),
    "rpr003": ("factor/sweeps.py", "RPR003"),
    "rpr004": ("utils/perturb.py", "RPR004"),
    "rpr005": ("kernels/rows.py", "RPR005"),
    "rpr006": ("krylov/cg.py", "RPR006"),
    "rpr007": ("sparse/mutate.py", "RPR007"),
    "rpr008": ("core/marcher.py", "RPR008"),
    "rpr009": ("service/queueing.py", "RPR009"),
}


def run_fixture(stem: str, module: str):
    source = (FIXTURES / f"{stem}.py").read_text()
    return lint_source(source, module, path=f"fixtures/{stem}.py")


class TestRuleRegistry:
    def test_every_code_has_a_rule_and_fixture_pair(self):
        assert sorted(RULES_BY_CODE) == sorted(
            code for _, code in CASES.values()
        )
        for stem in CASES:
            assert (FIXTURES / f"{stem}_bad.py").exists()
            assert (FIXTURES / f"{stem}_ok.py").exists()

    def test_rules_have_stable_metadata(self):
        for rule in RULES:
            assert rule.code.startswith("RPR") and len(rule.code) == 6
            assert rule.name and rule.summary


@pytest.mark.parametrize("stem", sorted(CASES))
class TestFixtures:
    def test_bad_fixture_trips_only_its_rule(self, stem):
        module, code = CASES[stem]
        violations, _ = run_fixture(f"{stem}_bad", module)
        codes = {v.code for v in violations}
        assert code in codes, f"{stem}_bad.py did not trip {code}"
        assert codes == {code}, f"unexpected extra codes {codes - {code}}"

    def test_bad_fixture_reports_position_and_snippet(self, stem):
        module, code = CASES[stem]
        violations, _ = run_fixture(f"{stem}_bad", module)
        for v in violations:
            assert v.line >= 1 and v.col >= 0
            assert v.snippet
            assert v.format().startswith(f"fixtures/{stem}_bad.py:{v.line}:")

    def test_ok_fixture_is_clean(self, stem):
        module, code = CASES[stem]
        violations, _ = run_fixture(f"{stem}_ok", module)
        assert [v.format() for v in violations if v.code == code] == []


class TestScoping:
    def test_scoped_rule_silent_outside_its_layers(self):
        # the same unordered iteration is fine in, say, a mesh helper
        source = (FIXTURES / "rpr002_bad.py").read_text()
        violations, _ = lint_source(source, "mesh/helpers.py")
        assert not [v for v in violations if v.code == "RPR002"]

    def test_unscoped_rule_applies_everywhere(self):
        source = (FIXTURES / "rpr001_bad.py").read_text()
        violations, _ = lint_source(source, "mesh/helpers.py")
        assert [v for v in violations if v.code == "RPR001"]

    def test_rpr003_spares_the_resilience_taxonomy_itself(self):
        source = "def f(x):\n    for _ in x:\n        raise ValueError('boom')\n"
        violations, _ = lint_source(source, "factor/foo.py")
        assert [v for v in violations if v.code == "RPR003"]

    def test_rpr006_only_fires_on_documented_entry_points(self):
        source = (FIXTURES / "rpr006_bad.py").read_text()
        violations, _ = lint_source(source, "krylov/helpers.py")
        assert not [v for v in violations if v.code == "RPR006"]

    def test_rpr006_accepts_an_item_of_a_delegated_result(self):
        # fgmres returns its one system's result from the FGMRES cycle
        ok = "def fgmres(a, b):\n    return _cycle(a, b)[1][0]\n"
        bad = "def fgmres(a, b):\n    out = _cycle(a, b)\n    return out[1][0]\n"
        for source, flagged in ((ok, False), (bad, True)):
            violations, _ = lint_source(source, "krylov/fgmres.py")
            assert bool([v for v in violations if v.code == "RPR006"]) is flagged

    def test_rpr009_silent_outside_the_service_layer(self):
        # the same unbounded q.get() is legal in, say, a test helper or the
        # backend layer — only repro.service carries the bounded-wait contract
        source = (FIXTURES / "rpr009_bad.py").read_text()
        violations, _ = lint_source(source, "comm/backends/pool.py")
        assert not [v for v in violations if v.code == "RPR009"]

    def test_rpr009_accepts_positional_and_keyword_bounds(self):
        source = (
            "def f(q, e, t, d, parts):\n"
            "    a = q.get(timeout=1.0)\n"
            "    b = e.wait(0.5)\n"
            "    t.join(2.0)\n"
            "    return a, b, d.get('k'), ','.join(parts)\n"
        )
        violations, _ = lint_source(source, "service/helpers.py")
        assert not [v for v in violations if v.code == "RPR009"]

    def test_rpr009_flags_each_unbounded_call(self):
        source = "def f(q, e):\n    return q.get(), e.wait()\n"
        violations, _ = lint_source(source, "service/helpers.py")
        assert len([v for v in violations if v.code == "RPR009"]) == 2


class TestMultipleHitsPerLine:
    def test_each_comparison_reported(self):
        source = "def f(x, y):\n    return (x == 0.0) | (y == 1.0)\n"
        violations, _ = lint_source(source, "mesh/helpers.py")
        assert len([v for v in violations if v.code == "RPR001"]) == 2
