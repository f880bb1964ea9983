"""The determinism/idiom lint: each rule fires on a minimal repro, stays
quiet on the idiomatic fix, and the shipped sources are clean.  Every
case runs through ``LintPass`` under the analysis driver, so waivers are
the framework's."""

from pathlib import Path

from repro.verify.passes import (Finding, SourceFile, analyze_paths,
                                 analyze_sources)


def lint_source(source, path="<string>"):
    """The ``lint`` pass's findings on one module's source text."""
    report = analyze_sources([SourceFile(path, source)], passes=["lint"])
    return [f for f in report.findings if f.pass_name == "lint"]


def lint_tree(paths):
    """Every finding of ``analyze --passes lint`` over ``paths``."""
    return analyze_paths(paths, passes=["lint"]).findings


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestWallClock:
    def test_time_time_flagged(self):
        findings = lint_source("import time\nstart = time.time()\n")
        assert rules_of(findings) == ["wall-clock"]

    def test_perf_counter_flagged(self):
        findings = lint_source("import time\nt = time.perf_counter()\n")
        assert rules_of(findings) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        findings = lint_source(
            "import datetime\nd = datetime.datetime.now()\n")
        assert rules_of(findings) == ["wall-clock"]

    def test_simulated_time_ok(self):
        assert lint_source("now = events.now\n") == []


class TestGlobalRandom:
    def test_module_level_draw_flagged(self):
        findings = lint_source("import random\nx = random.randint(0, 9)\n")
        assert rules_of(findings) == ["global-random"]

    def test_seeded_generator_ok(self):
        source = ("import random\n"
                  "rng = random.Random(1234)\n"
                  "x = rng.randint(0, 9)\n")
        assert lint_source(source) == []


class TestSetIteration:
    def test_for_over_set_literal_flagged(self):
        findings = lint_source("for x in {3, 1, 2}:\n    print(x)\n")
        assert rules_of(findings) == ["set-iteration"]

    def test_for_over_set_difference_flagged(self):
        # `others` is inferred through the BinOp with a set operand
        findings = lint_source("holders = set()\n"
                               "others = holders - {0}\n"
                               "for other in others:\n    pass\n")
        assert rules_of(findings) == ["set-iteration"]

    def test_comprehension_over_set_flagged(self):
        findings = lint_source("xs = [x for x in {1, 2}]\n")
        assert rules_of(findings) == ["set-iteration"]

    def test_annotated_attribute_flagged(self):
        source = ("from typing import Set\n"
                  "class C:\n"
                  "    def __init__(self):\n"
                  "        self.members: Set[int] = set()\n"
                  "    def walk(self):\n"
                  "        for m in self.members:\n"
                  "            print(m)\n")
        assert "set-iteration" in rules_of(lint_source(source))

    def test_set_returning_method_flagged(self):
        source = ("from typing import Set\n"
                  "class D:\n"
                  "    def holders(self) -> Set[int]:\n"
                  "        return set()\n"
                  "entry = D()\n"
                  "for h in entry.holders():\n"
                  "    print(h)\n")
        assert "set-iteration" in rules_of(lint_source(source))

    def test_sorted_wrapping_ok(self):
        assert lint_source("for x in sorted({3, 1, 2}):\n    pass\n") == []

    def test_order_insensitive_reductions_ok(self):
        assert lint_source("total = sum(x for x in {1, 2, 3})\n") == []
        assert lint_source("biggest = max({1, 2, 3})\n") == []

    def test_building_a_set_from_a_set_ok(self):
        assert lint_source("ys = {y + 1 for y in {1, 2}}\n") == []

    def test_conflicting_attribute_annotations_dropped(self):
        """An attribute name that is a set in one class but an ordered
        container in another must not be flagged: sorting an LRU order
        would be a *worse* bug than the one the rule hunts."""
        source = ("from typing import Set\n"
                  "from collections import OrderedDict\n"
                  "class CPT:\n"
                  "    def __init__(self):\n"
                  "        self._lines: Set[int] = set()\n"
                  "class LRU:\n"
                  "    def __init__(self):\n"
                  "        self._lines: 'OrderedDict[int, object]' = "
                  "OrderedDict()\n"
                  "    def victim(self):\n"
                  "        for line in self._lines:\n"
                  "            return line\n")
        assert lint_source(source) == []


class TestImplicitOptional:
    def test_parameter_default_none_flagged(self):
        findings = lint_source(
            "def f(writer: int = None) -> None:\n    pass\n")
        assert rules_of(findings) == ["implicit-optional"]
        assert "writer" in findings[0].message

    def test_keyword_only_parameter_flagged(self):
        findings = lint_source(
            "def f(*, kind: str = None) -> None:\n    pass\n")
        assert rules_of(findings) == ["implicit-optional"]

    def test_optional_annotation_ok(self):
        source = ("from typing import Optional\n"
                  "def f(writer: Optional[int] = None) -> None:\n"
                  "    pass\n")
        assert lint_source(source) == []

    def test_pep604_union_ok(self):
        assert lint_source(
            "def f(writer: 'int | None' = None) -> None:\n    pass\n") == []

    def test_annotated_assignment_flagged(self):
        findings = lint_source("limit: int = None\n")
        assert rules_of(findings) == ["implicit-optional"]


class TestHotPathSlots:
    HOT = "src/repro/core/pipeline.py"
    COLD = "src/repro/analysis/tables.py"

    def test_slotless_class_on_hot_path_flagged(self):
        findings = lint_source("class Entry:\n    pass\n", path=self.HOT)
        assert rules_of(findings) == ["hot-path-slots"]
        assert "Entry" in findings[0].message

    def test_mem_package_is_hot(self):
        findings = lint_source("class MSHR:\n    pass\n",
                               path="src/repro/mem/cache.py")
        assert rules_of(findings) == ["hot-path-slots"]

    def test_slotted_class_ok(self):
        source = "class Entry:\n    __slots__ = ('a', 'b')\n"
        assert lint_source(source, path=self.HOT) == []

    def test_annotated_slots_ok(self):
        source = ("from typing import Tuple\n"
                  "class Entry:\n"
                  "    __slots__: Tuple[str, ...] = ('a',)\n")
        assert lint_source(source, path=self.HOT) == []

    def test_enum_and_error_classes_exempt(self):
        source = ("import enum\n"
                  "class Kind(enum.Enum):\n    A = 1\n"
                  "class PipelineError(Exception):\n    pass\n")
        assert lint_source(source, path=self.HOT) == []

    def test_decorated_class_exempt(self):
        # dataclasses and friends manage their own layout
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Entry:\n    a: int = 0\n")
        assert lint_source(source, path=self.HOT) == []

    def test_cold_path_not_flagged(self):
        assert lint_source("class Table:\n    pass\n",
                           path=self.COLD) == []


class TestHotPathAllocation:
    def test_list_display_in_hot_function_flagged(self):
        source = ("def tick():  # repro: hot\n"
                  "    scratch = []\n"
                  "    return scratch\n")
        assert rules_of(lint_source(source)) == ["hot-path-allocation"]

    def test_comprehension_and_lambda_flagged(self):
        source = ("def scan(items):  # repro: hot\n"
                  "    picked = [x for x in items if x]\n"
                  "    key = lambda x: x.index\n"
                  "    return picked, key\n")
        assert sorted(rules_of(lint_source(source))) == \
            ["hot-path-allocation", "hot-path-allocation"]

    def test_nested_def_flagged_once(self):
        # the nested def is one finding; its body is not re-scanned
        source = ("def tick():  # repro: hot\n"
                  "    def helper():\n"
                  "        return [1, 2]\n"
                  "    return helper\n")
        findings = lint_source(source)
        assert rules_of(findings) == ["hot-path-allocation"]
        assert findings[0].line == 2

    def test_unmarked_function_not_flagged(self):
        assert lint_source("def tick():\n    return []\n") == []

    def test_calls_and_tuples_ok(self):
        # tuples and constructor calls are allowed: event args and ROB
        # entries are genuine per-event allocations, not scratch state
        source = ("def tick(entry, heap):  # repro: hot\n"
                  "    heap.append((1, 2, entry))\n"
                  "    return dict()\n")
        assert lint_source(source) == []

    def test_waivable(self):
        source = ("def tick(waiters, dep, entry):  # repro: hot\n"
                  "    waiters[dep] = [entry]"
                  "  # repro: allow-hot-path-allocation\n")
        assert lint_source(source) == []

    def test_copy_call_flagged(self):
        source = ("def tick(flags):  # repro: hot\n"
                  "    snapshot = flags.copy()\n"
                  "    return snapshot\n")
        findings = lint_source(source)
        assert rules_of(findings) == ["hot-path-allocation"]
        assert "flags.copy()" in findings[0].message

    def test_slice_copy_flagged(self):
        source = ("def tick(col, head, tail):  # repro: hot\n"
                  "    window = col[head:tail]\n"
                  "    return window\n")
        findings = lint_source(source)
        assert rules_of(findings) == ["hot-path-allocation"]
        assert "slice-copy" in findings[0].message

    def test_slice_store_and_delete_ok(self):
        # compaction writes (``wl[w:] = []``-style del) are in-place
        # mutations of the column, not per-call copies
        source = ("def tick(wl, w):  # repro: hot\n"
                  "    del wl[w:]\n"
                  "    wl[0] = 1\n")
        assert lint_source(source) == []

    def test_dict_view_iteration_flagged(self):
        source = ("def tick(waiters):  # repro: hot\n"
                  "    for dep, entries in waiters.items():\n"
                  "        entries.clear()\n")
        findings = lint_source(source)
        assert rules_of(findings) == ["hot-path-allocation"]
        assert "slot map" in findings[0].message

    def test_dict_attr_iteration_flagged(self):
        # the attribute is known to be a dict from its annotation
        # elsewhere in the linted tree
        source = ("from typing import Dict, List\n"
                  "class Core:\n"
                  "    def __init__(self):\n"
                  "        self._waiters: Dict[int, List[int]] = {}\n"
                  "    def tick(self):  # repro: hot\n"
                  "        for dep in self._waiters:\n"
                  "            pass\n")
        findings = lint_source(source)
        assert rules_of(findings) == ["hot-path-allocation"]
        assert "_waiters" in findings[0].message

    def test_ring_iteration_ok(self):
        # list/ring walks are the supported layout; no dict in sight
        source = ("def tick(ring, qmask, head, tail):  # repro: hot\n"
                  "    for pos in range(head, tail):\n"
                  "        entry = ring[pos & qmask]\n")
        assert lint_source(source) == []

    def test_copy_and_dict_iteration_waivable(self):
        source = ("def tick(flags, waiters):  # repro: hot\n"
                  "    snap = flags.copy()"
                  "  # repro: allow-hot-path-allocation\n"
                  "    for dep in waiters.items():"
                  "  # repro: allow-hot-path-allocation\n"
                  "        pass\n"
                  "    return snap\n")
        assert lint_source(source) == []


class TestWaivers:
    def test_waiver_suppresses_rule_on_its_line(self):
        source = ("import time\n"
                  "t = time.perf_counter()  # repro: allow-wall-clock\n")
        assert lint_source(source) == []

    def test_waiver_is_rule_specific(self):
        source = ("import time\n"
                  "t = time.perf_counter()  # repro: allow-global-random\n")
        assert rules_of(lint_source(source)) == ["wall-clock"]

    def test_waiver_is_line_specific(self):
        source = ("import time\n"
                  "a = time.time()  # repro: allow-wall-clock\n"
                  "b = time.time()\n")
        findings = lint_source(source)
        assert rules_of(findings) == ["wall-clock"]
        assert findings[0].line == 3

    def test_hot_path_slots_waivable(self):
        source = ("class Scratch:  # repro: allow-hot-path-slots\n"
                  "    pass\n")
        assert lint_source(source, path="src/repro/core/x.py") == []


class TestOnTheRepository:
    def test_repro_package_is_clean(self):
        package = Path(__file__).resolve().parent.parent / "src" / "repro"
        findings = lint_tree([package])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_findings_render_with_location(self):
        finding = Finding("lint", "wall-clock", "a.py", 3, 7, "no clocks")
        assert str(finding) == "a.py:3:7: [lint/wall-clock] no clocks"

    def test_cross_file_registry(self, tmp_path):
        (tmp_path / "defs.py").write_text(
            "from typing import Set\n"
            "class DirEntry:\n"
            "    def holders(self) -> Set[int]:\n"
            "        return set()\n")
        (tmp_path / "use.py").write_text(
            "def f(entry):\n"
            "    for h in entry.holders():\n"
            "        print(h)\n")
        findings = lint_tree([tmp_path])
        assert [f.rule for f in findings] == ["set-iteration"]
        assert findings[0].path.endswith("use.py")
