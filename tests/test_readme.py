"""README's examples print what README shows: the command-line example block,
run command by command in a fresh directory, and the library example."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def fenced_blocks() -> list[tuple[str, str]]:
    """(info string, body) of every fenced block of README, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.M | re.S)


def env() -> dict:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_the_command_line_examples_print_what_readme_shows(tmp_path):
    (examples,) = [body for info, body in fenced_blocks() if "$ hornlearn" in body]
    # Each `$ ` line is a command; the lines up to the next one are its output.
    steps: list[tuple[str, list[str]]] = []
    for line in examples.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    ran = 0
    for command, shown in steps:
        want = "\n".join(shown).strip("\n")
        if command.startswith("printf "):
            done = subprocess.run(command, shell=True, cwd=tmp_path, timeout=20)
        else:
            argv = shlex.split(command)
            assert argv[0] == "hornlearn", command
            done = subprocess.run(
                [sys.executable, "-m", "hornlearn", *argv[1:]],
                cwd=tmp_path, env=env(), capture_output=True, text=True, timeout=60,
            )
            assert done.stdout.strip("\n") == want, command
            ran += 1
        assert done.returncode == 0, command
    assert ran >= 4


def test_the_library_example_prints_what_readme_shows(tmp_path):
    blocks = fenced_blocks()
    (i,) = [i for i, (info, _) in enumerate(blocks) if info == "python"]
    code, shown = blocks[i][1], blocks[i + 1][1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == shown
