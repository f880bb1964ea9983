"""Exit codes are part of the CLI contract: 0 only on full success,
nonzero on any failure — so CI jobs and scripts can gate on them
without parsing output.  Also covers ``repro chaos --json`` and the new
``serve``/``submit`` argument surfaces."""

import json

import pytest

from repro.cli import main


class TestChaosExitCodes:
    def test_passing_campaign_exits_zero_and_emits_json(self, capsys):
        rc = main(["chaos", "--seeds", "1", "--workloads", "mcf_r",
                   "--schemes", "unsafe", "--instructions", "600",
                   "--threads", "1", "--no-checkpoint-check", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["schemes"] == ["unsafe"]
        assert report["service_url"] is None
        assert report["cells"][0]["seed_runs"][0]["ok"] is True

    def test_json_report_matches_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["chaos", "--seeds", "1", "--workloads", "mcf_r",
                   "--schemes", "unsafe", "--instructions", "600",
                   "--threads", "1", "--no-checkpoint-check", "--json",
                   "--out", str(out)])
        assert rc == 0
        stdout_report = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == stdout_report

    def test_bad_arguments_exit_nonzero(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--seeds", "0", "--workloads", "mcf_r",
                  "--schemes", "unsafe"])
        with pytest.raises(SystemExit):
            main(["chaos", "--workloads", "", "--schemes", "unsafe"])

    def test_unknown_workload_exits_nonzero(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["chaos", "--seeds", "1", "--workloads", "nosuch_r",
                  "--schemes", "unsafe", "--no-checkpoint-check"])


class TestAttackExitCodes:
    """``repro attack``: 0 matrix matches, 1 unexpected leak/block or
    undetected mutant, 2 tool error — distinct codes so CI can tell
    "defense regressed" from "campaign broke"."""

    ARGS = ["attack", "--seeds", "1", "--schemes", "unsafe,stt-comp",
            "--classes", "secret_reg", "--no-self-test"]

    def test_matching_matrix_exits_zero_and_emits_json(self, capsys):
        rc = main(self.ARGS + ["--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["schemes"] == ["unsafe", "stt-comp"]
        cells = {(c["attack"], c["scheme"]): c for c in report["cells"]}
        assert cells[("secret_reg", "unsafe")]["verdict"] == "leaks"
        assert cells[("secret_reg", "stt-comp")]["verdict"] == "leaks"

    def test_out_file_is_the_canonical_matrix_artifact(self, capsys,
                                                       tmp_path):
        out = tmp_path / "matrix.json"
        rc = main(self.ARGS + ["--json", "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        artifact = json.loads(out.read_text())
        assert artifact["format"] == 1
        assert artifact["matrix"]["secret_reg"]["stt-comp"] == "leaks"
        for cell in report["cells"]:
            assert artifact["matrix"][cell["attack"]][cell["scheme"]] \
                == cell["verdict"]

    def test_verdict_drift_is_exit_one(self, capsys, monkeypatch):
        from repro.security import campaign
        monkeypatch.setattr(campaign, "expected_verdict",
                            lambda attack, scheme: "blocks")
        rc = main(self.ARGS)
        assert rc == 1
        assert "expected blocks, observed leaks" \
            in capsys.readouterr().out

    def test_bad_arguments_exit_nonzero(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["attack", "--schemes", "nosuch"])
        with pytest.raises(SystemExit, match="unknown attack"):
            main(["attack", "--classes", "nosuch"])
        with pytest.raises(SystemExit, match="seeds"):
            main(["attack", "--seeds", "0"])

    def test_internal_error_is_exit_two(self, capsys, monkeypatch):
        from repro.security import campaign
        def boom(*_args, **_kwargs):
            raise RuntimeError("worker exploded")
        monkeypatch.setattr(campaign, "run_campaign", boom)
        rc = main(self.ARGS)
        assert rc == 2
        assert "internal error" in capsys.readouterr().err


class TestVerifyExitCodes:
    def test_lint_finding_is_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        assert main(["verify", "lint", str(dirty)]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_lint_clean_is_exit_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["verify", "lint", str(clean)]) == 0

    def test_lint_missing_path_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["verify", "lint", "/no/such/path"])


class TestAnalyzeExitCodes:
    """``repro verify analyze``: 0 clean, 1 findings, 2 internal error —
    distinct codes so CI can tell "contract violated" from "tool broke"."""

    def test_clean_tree_is_exit_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["verify", "analyze", str(clean)]) == 0

    def test_findings_are_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        assert main(["verify", "analyze", str(dirty)]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_internal_error_is_exit_two(self, tmp_path, capsys,
                                        monkeypatch):
        from repro.verify.passes.lint_pass import LintPass

        def boom(self, ctx):
            raise RuntimeError("synthetic pass crash")

        monkeypatch.setattr(LintPass, "run", boom)
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["verify", "analyze", str(clean)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_missing_path_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["verify", "analyze", "/no/such/path"])

    def test_unknown_pass_exits_nonzero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        with pytest.raises(SystemExit, match="unknown pass"):
            main(["verify", "analyze", str(clean),
                  "--passes", "nosuch-pass"])

    def test_json_report_round_trips(self, tmp_path, capsys):
        from repro.verify.passes import Report

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        rc = main(["verify", "analyze", str(dirty), "--json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["summary"]["errors"] >= 1
        report = Report.from_doc(doc)
        assert report.to_doc() == doc
        assert [f.rule for f in report.findings] \
            == [f["rule"] for f in doc["findings"]]

    def test_json_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        main(["verify", "analyze", str(dirty), "--json",
              "--out", str(out)])
        stdout_doc = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == stdout_doc


class TestBenchExitCodes:
    def test_unknown_scheme_exits_nonzero(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["bench", "--apps", "leela_r", "--schemes", "nosuch",
                  "--instructions", "200", "--no-serial", "--out", ""])


class TestSubmitExitCodes:
    def test_invalid_spec_rejected_before_any_network(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["submit", "nosuch_r"])
        with pytest.raises(SystemExit):
            main(["submit", "mcf_r", "--chaos", "{not json"])

    def test_unreachable_service_is_exit_one(self, capsys, monkeypatch):
        # shrink the client's retry schedule so the failure is quick
        from repro.service import client as client_mod
        monkeypatch.setattr(
            client_mod.ServiceClient, "__init__",
            lambda self, base_url="", **_kw: (
                setattr(self, "base_url", base_url.rstrip("/")),
                setattr(self, "retries", 0),
                setattr(self, "backoff_s", 0.01),
                setattr(self, "backoff_cap_s", 0.01),
                setattr(self, "timeout_s", 1.0),
                setattr(self, "_rng", __import__("random").Random(0)),
            ) and None)
        rc = main(["submit", "mcf_r", "--url", "http://127.0.0.1:9",
                   "--instructions", "300"])
        assert rc == 1
        assert "repro submit" in capsys.readouterr().err


class TestBenchCompareExitCodes:
    """``repro bench --compare``: 0 comparable and clean, 1 ran and
    found a regression, 2 records not comparable (disjoint scheme or
    app sets) — so CI can tell "engine regressed" from "wrong sweep"."""

    @staticmethod
    def _record(path, schemes, apps=("mcf_r",), speedups=None):
        per_scheme = {}
        for i, label in enumerate(schemes):
            cells = {app: {"speedup": (speedups or {}).get(
                         (label, app), 2.0 + i)}
                     for app in apps}
            speedup = 1.0
            for cell in cells.values():
                speedup *= cell["speedup"]
            speedup **= 1.0 / len(cells)
            per_scheme[label] = {"apps": cells,
                                 "speedup": round(speedup, 3)}
        path.write_text(json.dumps({
            "bench": "hotloop",
            "hot_loop": {"apps": list(apps),
                         "per_scheme": per_scheme},
        }))
        return str(path)

    def test_identical_records_exit_zero(self, tmp_path, capsys):
        old = self._record(tmp_path / "old.json", ["unsafe", "dom-ep"])
        new = self._record(tmp_path / "new.json", ["unsafe", "dom-ep"])
        assert main(["bench", "--compare", old, new]) == 0
        assert "no per-scheme regressions" in capsys.readouterr().out

    def test_regression_is_exit_one(self, tmp_path, capsys):
        old = self._record(tmp_path / "old.json", ["dom-ep"],
                           speedups={("dom-ep", "mcf_r"): 4.0})
        new = self._record(tmp_path / "new.json", ["dom-ep"],
                           speedups={("dom-ep", "mcf_r"): 2.0})
        assert main(["bench", "--compare", old, new]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_disjoint_schemes_exit_two(self, tmp_path, capsys):
        old = self._record(tmp_path / "old.json", ["dom-ep", "dom-lp"])
        new = self._record(tmp_path / "new.json", ["stt-ep", "stt-lp"])
        assert main(["bench", "--compare", old, new]) == 2
        err = capsys.readouterr().err
        assert "share no hot-loop scheme" in err
        assert "dom-ep" in err and "stt-ep" in err

    def test_disjoint_apps_exit_two(self, tmp_path, capsys):
        old = self._record(tmp_path / "old.json", ["dom-ep"],
                           apps=("mcf_r",))
        new = self._record(tmp_path / "new.json", ["dom-ep"],
                           apps=("xz_r",))
        assert main(["bench", "--compare", old, new]) == 2
        err = capsys.readouterr().err
        assert "share no hot-loop app" in err
        assert "--hot-apps" in err

    def test_missing_hot_loop_section_exit_two(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"bench": "hotloop"}))
        new = self._record(tmp_path / "new.json", ["dom-ep"])
        assert main(["bench", "--compare", str(old), new]) == 2
        assert "hot_loop.per_scheme" in capsys.readouterr().err

    def test_overlapping_apps_compare_shared_subset(self, tmp_path,
                                                    capsys):
        # a broadened sweep (new app added) must not manufacture a
        # phantom regression out of the new app's different mix: the
        # per-scheme ratio is computed over the shared apps only
        old = self._record(tmp_path / "old.json", ["dom-ep"],
                           apps=("mcf_r",),
                           speedups={("dom-ep", "mcf_r"): 4.0})
        new = self._record(tmp_path / "new.json", ["dom-ep"],
                           apps=("mcf_r", "xz_r"),
                           speedups={("dom-ep", "mcf_r"): 4.0,
                                     ("dom-ep", "xz_r"): 1.5})
        assert main(["bench", "--compare", old, new]) == 0
        assert "no per-scheme regressions" in capsys.readouterr().out
