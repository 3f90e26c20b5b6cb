"""Every output file of a fixed list of commands, byte for byte, and every
report of two comparisons' convex solves, field for field.

``golden_digests.json`` holds the commands and the sha256 of every file each
one writes; ``golden_reports.json`` holds the reports that the convex solves
of two compares return, with the fields no output file holds (iterations,
converged, non_unique, active_constraints). ``make_golden_digests.py``
beside them builds the commands, writes the inputs that no command makes, and
regenerates both fixtures. A change that alters any output byte fails here,
naming the command and the file; one that alters any report field fails
naming the command, the report and the field.
"""
import json
import os

import numpy as np
import pytest

import make_golden_digests as golden


def load(path: str) -> dict:
    with open(path) as fh:
        fixture = json.load(fh)
    if fixture["numpy"] != np.__version__:  # every manifest records the numpy version
        pytest.skip(f"{os.path.basename(path)} was made with numpy {fixture['numpy']}, "
                    f"not {np.__version__}")
    return fixture


def test_every_output_file_matches_its_committed_digest(tmp_path, monkeypatch):
    fixture = load(golden.FIXTURE)
    monkeypatch.chdir(tmp_path)  # the commands' paths are relative
    golden.write_inputs()
    differ = []
    for record in fixture["commands"]:
        command = " ".join(record["argv"])
        code, files = golden.run(record["argv"])
        assert code == 0, f"exit code {code}: portalloc {command}"
        for name in sorted(set(files) | set(record["files"])):
            if files.get(name) != record["files"].get(name):
                differ.append(f"{name} of portalloc {command}")
    assert not differ, "outputs differ from their committed digests:\n" + "\n".join(differ)


def test_every_convex_solve_report_matches_its_committed_fields(tmp_path, monkeypatch):
    fixture = load(golden.REPORTS)
    monkeypatch.chdir(tmp_path)
    golden.write_inputs()
    differ = []
    for record in fixture["commands"]:
        command = " ".join(record["argv"])
        code, reports = golden.reports_of(record["argv"])
        assert code == 0, f"exit code {code}: portalloc {command}"
        assert len(reports) == len(record["reports"]), f"report count of portalloc {command}"
        for i, (got, want) in enumerate(zip(reports, record["reports"])):
            differ += [f"{field} of report {i} ({want['solver']}) of portalloc {command}"
                       for field in want if got[field] != want[field]]
    assert not differ, "reports differ from their committed fields:\n" + "\n".join(differ)
