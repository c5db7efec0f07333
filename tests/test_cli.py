import argparse
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest

from mddmine.cli import SCENARIOS, _build_parser, _resolve_theta, main, min_support

from conftest import CLICK_ATTR_TSV, CLICK_SPMF


@pytest.fixture
def click_files(tmp_path):
    spmf = tmp_path / "clicks.spmf"
    attrs = tmp_path / "clicks.tsv"
    spmf.write_text(CLICK_SPMF)
    attrs.write_text(CLICK_ATTR_TSV)
    return spmf, attrs


def run_mine(click_files, tmp_path, *extra):
    spmf, attrs = click_files
    out = tmp_path / "patterns.txt"
    code = main([
        "mine", "--db", str(spmf), "--attrs", str(attrs),
        "--output", str(out), *extra,
    ])
    assert code == 0
    return out.read_text()


class TestMine:
    def test_gap_scenario_two_lines(self, click_files, tmp_path):
        text = run_mine(click_files, tmp_path,
                        "--min-sup", "2", "--constraint", "gap(time)>=3")
        assert text == "1\t#SUP: 2\n2\t#SUP: 2\n"

    def test_all_miners_identical(self, click_files, tmp_path):
        outputs = {
            miner: run_mine(click_files, tmp_path, "--min-sup", "1",
                            "--constraint", "gap(time)<=3", "--miner", miner)
            for miner in ("mpp", "ppcc", "brute")
        }
        assert outputs["mpp"] == outputs["ppcc"] == outputs["brute"]

    def test_fractional_support_uses_ceiling(self, click_files, tmp_path):
        # 0.5 of 3 sequences rounds up to 2
        frac = run_mine(click_files, tmp_path, "--min-sup", "0.5")
        abs2 = run_mine(click_files, tmp_path, "--min-sup", "2")
        assert frac == abs2

    def test_min_sup_zero_is_an_argument_error(self, click_files, tmp_path):
        spmf, attrs = click_files
        with pytest.raises(SystemExit) as err:
            main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                  "--min-sup", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("text", ["1/0", "3/00"])
    def test_zero_denominator_is_an_argument_error(self, click_files, text, capsys):
        spmf, attrs = click_files
        with pytest.raises(SystemExit) as err:
            main(["mine", "--db", str(spmf), "--attrs", str(attrs), "--min-sup", text])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "divides by zero" in stderr and "Traceback" not in stderr

    def test_disable_prop5_identical_output(self, click_files, tmp_path):
        base = run_mine(click_files, tmp_path, "--min-sup", "1")
        off = run_mine(click_files, tmp_path, "--min-sup", "1", "--disable-prop5")
        assert base == off

    def test_emit_stats_report(self, click_files, tmp_path):
        report = tmp_path / "run.tsv"
        run_mine(click_files, tmp_path, "--min-sup", "2",
                 "--report", str(report))
        rows = dict(
            line.split("\t") for line in report.read_text().splitlines()
        )
        for key in ("mdd_build_seconds", "info_prop_seconds", "mining_seconds",
                    "scanned_sequences", "constraint_checks", "patterns_written"):
            assert key in rows
        assert rows["patterns_written"] == "3"

    @pytest.mark.parametrize("miner, rows", [
        ("mpp", ["mdd_build_seconds", "info_prop_seconds", "mining_seconds",
                 "peak_rss_mb_load", "peak_rss_mb_index", "peak_rss_mb_mine",
                 "nodes_visited", "entries_created", "scanned_sequences",
                 "constraint_checks", "info_probes", "patterns_emitted",
                 "peak_entries", "patterns_written"]),
        ("ppcc", ["mining_seconds", "peak_rss_mb_load", "peak_rss_mb_mine",
                  "nodes_visited", "entries_created", "scanned_sequences",
                  "constraint_checks", "info_probes", "patterns_emitted",
                  "peak_entries", "patterns_written"]),
        ("brute", ["mining_seconds", "peak_rss_mb_load", "peak_rss_mb_mine",
                   "patterns_written"]),
    ])
    def test_report_leaves_out_what_the_miner_does_not_measure(
            self, click_files, tmp_path, miner, rows):
        report = tmp_path / "run.tsv"
        run_mine(click_files, tmp_path, "--min-sup", "2", "--miner", miner,
                 "--report", str(report))
        lines = [line.split("\t") for line in report.read_text().splitlines()]
        assert [name for name, _ in lines] == rows
        assert dict(lines)["patterns_written"] == "3"
        peaks = [float(mb) for name, mb in lines if name.startswith("peak_rss_mb_")]
        assert 0 < peaks[0] and peaks == sorted(peaks), peaks  # a peak never falls
        if miner != "brute":
            assert dict(lines)["patterns_emitted"] == "3"

    def test_scenario_preset(self, click_files, tmp_path):
        # severe time constraints: nothing qualifies, but the preset must run
        text = run_mine(click_files, tmp_path, "--min-sup", "1", "--scenario", "1")
        assert text == ""

    def test_repeated_runs_byte_identical(self, click_files, tmp_path):
        first = run_mine(click_files, tmp_path, "--min-sup", "1",
                         "--constraint", "avg(price)<=3")
        second = run_mine(click_files, tmp_path, "--min-sup", "1",
                          "--constraint", "avg(price)<=3")
        assert first == second

    @pytest.mark.parametrize("option", [["--threads", "2"], ["--median-pareto"],
                                        ["--miner", "fast"], ["--max-len", "1"],
                                        ["--emit-stats"]])
    def test_removed_options_are_unknown(self, click_files, option):
        spmf, attrs = click_files
        with pytest.raises(SystemExit) as err:
            main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                  "--min-sup", "1", *option])
        assert err.value.code == 2

    @pytest.mark.parametrize("option, named", [
        (["--disable-prop5", "--miner", "brute"], "--disable-prop5"),
    ])
    def test_ignored_options_are_argument_errors(self, click_files, capsys,
                                                 option, named):
        spmf, attrs = click_files
        with pytest.raises(SystemExit) as err:
            main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                  "--min-sup", "1", *option])
        assert err.value.code == 2
        assert named in capsys.readouterr().err

    def test_length_constraint_caps_the_brute_miner(self, click_files, tmp_path):
        text = run_mine(click_files, tmp_path, "--min-sup", "1",
                        "--miner", "brute", "--constraint", "length<=1")
        assert text == "1\t#SUP: 2\n2\t#SUP: 2\n3\t#SUP: 1\n"

    def test_report_on_stderr_for_a_stdout_run(self, click_files, tmp_path, capfd):
        # a link like /dev/stderr, made here so that a write which renamed
        # over the link instead of writing through it would break nothing
        spmf, attrs = click_files
        err = tmp_path / "stderr"
        err.symlink_to("/proc/self/fd/2")
        assert main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                     "--min-sup", "2", "--report", str(err)]) == 0
        out, stderr = capfd.readouterr()
        assert out == "1\t#SUP: 2\n2\t#SUP: 2\n2 2\t#SUP: 2\n"
        assert stderr.startswith("mdd_build_seconds\t")
        assert stderr.endswith("patterns_written\t3\n")

    @pytest.mark.parametrize("command", [
        ["mine", "--min-sup", "1"], ["stats"], ["export-dot"],
    ])
    def test_ordering_attr_without_attrs_is_an_argument_error(
            self, click_files, capsys, command):
        spmf, _ = click_files
        with pytest.raises(SystemExit) as err:
            main([command[0], "--db", str(spmf), "--ordering-attr", "time",
                  *command[1:]])
        assert err.value.code == 2
        assert "--ordering-attr" in capsys.readouterr().err

    def test_failed_write_keeps_previous_output(self, click_files, tmp_path,
                                                monkeypatch):
        spmf, attrs = click_files
        out = tmp_path / "patterns.txt"
        out.write_text("previous\n")
        real_fdopen = os.fdopen

        class HalfWriter:
            """Writes half of the text, then fails like a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError("no space left on device")

        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: HalfWriter(real_fdopen(fd, mode))
        )
        code = main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                     "--min-sup", "1", "--output", str(out)])
        assert code == 1
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clicks.spmf", "clicks.tsv", "patterns.txt",
        ]

    def test_missing_db_is_runtime_error(self, tmp_path, capsys):
        code = main(["mine", "--db", str(tmp_path / "nope.spmf"), "--min-sup", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestMinSupportParsing:
    def test_absolute(self):
        assert min_support("2") == 2

    def test_fraction_is_exact(self):
        assert _resolve_theta(min_support("0.04"), 50) == 2
        assert _resolve_theta(min_support("0.04"), 49) == 2
        assert _resolve_theta(min_support("0.04"), 51) == 3

    def test_fraction_bounds(self):
        with pytest.raises(argparse.ArgumentTypeError, match=r"must be in \(0, 1\]"):
            min_support("0.0")
        with pytest.raises(argparse.ArgumentTypeError, match=r"must be in \(0, 1\]"):
            min_support("1.5")
        assert min_support("1.0") == Fraction(1)
        assert min_support("1/25") == Fraction(1, 25)
        with pytest.raises(argparse.ArgumentTypeError, match="divides by zero"):
            min_support("1/0")

    @pytest.mark.parametrize("text, message", [
        ("0", "argument --min-sup: absolute minimum support must be at least 1"),
        ("1.5", "argument --min-sup: fractional minimum support must be in (0, 1]"),
        ("two", "argument --min-sup: invalid min_support value: 'two'"),
    ])
    def test_messages_name_the_option(self, click_files, capsys, text, message):
        spmf, _ = click_files
        with pytest.raises(SystemExit) as err:
            main(["mine", "--db", str(spmf), "--min-sup", text])
        assert err.value.code == 2
        assert message in capsys.readouterr().err


class TestOtherCommands:
    def test_gen_attrs_deterministic(self, click_files, tmp_path):
        spmf, _ = click_files
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        for path in (first, second):
            assert main(["gen-attrs", "--db", str(spmf), "--seed", "9",
                         "--output", str(path)]) == 0
        assert first.read_text() == second.read_text()
        header = first.read_text().splitlines()[0]
        assert header == "sid\tpos\ttime\tprice\tquality"

    def test_gen_attrs_feeds_mine(self, click_files, tmp_path):
        spmf, _ = click_files
        attrs = tmp_path / "gen.tsv"
        assert main(["gen-attrs", "--db", str(spmf), "--seed", "3",
                     "--output", str(attrs)]) == 0
        out = tmp_path / "p.txt"
        assert main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                     "--min-sup", "2", "--output", str(out)]) == 0
        assert "2\t#SUP:" in out.read_text()

    def test_stats(self, click_files, tmp_path, capsys):
        spmf, attrs = click_files
        assert main(["stats", "--db", str(spmf), "--attrs", str(attrs)]) == 0
        text = capsys.readouterr().out
        assert "n_sequences\t3" in text
        assert "avg_len\t8/3" in text

    def test_export_dot(self, click_files, tmp_path):
        spmf, attrs = click_files
        out = tmp_path / "m.dot"
        assert main(["export-dot", "--db", str(spmf), "--attrs", str(attrs),
                     "--constraint", "gap(time)>=3", "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph mdd {")
        assert 'n1_2 [label="2@1"];' in text

    @pytest.mark.parametrize("profile, message", [
        ("time:time,time:uniform", "duplicate column name 'time'"),
        ("sid:uniform", "duplicate column name 'sid'"),
        ("", "unknown generation profile kind '' for ''"),
        ("price:gauss", "unknown generation profile kind 'gauss' for 'price'"),
        (":time", "generation profile: empty column name"),
    ])
    def test_gen_attrs_rejects_unreadable_profiles(self, click_files, tmp_path,
                                                   capsys, profile, message):
        spmf, _ = click_files
        out = tmp_path / "gen.tsv"
        assert main(["gen-attrs", "--db", str(spmf), "--profile", profile,
                     "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_ordering_attr_none_skips_the_ordering_check(self, tmp_path, capsys):
        spmf, attrs = tmp_path / "two.spmf", tmp_path / "two.tsv"
        spmf.write_text("1 -1 2 -1 -2\n")
        attrs.write_text("sid\tpos\ttime\n1\t1\t5\n1\t2\t5\n")
        base = ["stats", "--db", str(spmf), "--attrs", str(attrs)]
        assert main(base) == 1
        assert "not strictly increasing" in capsys.readouterr().err
        assert main(base + ["--ordering-attr", "none"]) == 0
        assert "n_sequences\t1" in capsys.readouterr().out

    def test_scenario_table(self):
        assert len(SCENARIOS[1]) == 4
        assert len(SCENARIOS[2]) == 8
        assert len(SCENARIOS[3]) == 12


def test_duplicate_attribute_column_is_rejected(tmp_path, capsys):
    spmf = tmp_path / "one.spmf"
    attrs = tmp_path / "one.tsv"
    spmf.write_text("1 -1 -2\n")
    # kept silently, the last price column (90) would fail max(price)<=50
    attrs.write_text("sid\tpos\tprice\tprice\n1\t1\t5\t90\n")
    code = main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                 "--min-sup", "1", "--constraint", "max(price)<=50",
                 "--output", str(tmp_path / "out.txt")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_unknown_attribute_is_a_runtime_error(click_files, tmp_path, capsys):
    spmf, attrs = click_files
    code = main(["mine", "--db", str(spmf), "--attrs", str(attrs),
                 "--min-sup", "1", "--constraint", "gap(weight)>=3"])
    assert code == 1
    assert "weight" in capsys.readouterr().err


def test_readme_names_only_real_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    subcommands = next(action.choices for action in _build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    known = {option for sub in subcommands.values()
             for option in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert "--min-sup" in named and named <= known, sorted(named - known)
