"""Every output file of a fixed list of commands, byte for byte.

``golden_digests.json`` holds the commands and the sha256 of every file each
one writes; ``make_golden_digests.py`` beside it builds the commands, writes
the one input that no command makes, and regenerates the fixture. A change that alters any output byte of them fails
here, naming the command and the file.
"""
import json

import numpy as np
import pytest

import make_golden_digests as golden


def test_every_output_file_matches_its_committed_digest(tmp_path, monkeypatch):
    with open(golden.FIXTURE) as fh:
        fixture = json.load(fh)
    if fixture["numpy"] != np.__version__:  # every manifest records the numpy version
        pytest.skip(f"digests were made with numpy {fixture['numpy']}, not {np.__version__}")
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
