"""The README's library quick tour runs as written; its asserts check what it claims. Its CLI
examples parse, and every file it cites exists."""

import re
import shlex
from pathlib import Path

from rowcolproj.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README.name} quick tour", "exec"), {"__name__": "readme_tour"})


def test_readme_cli_examples_parse():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```bash\n(.*?)```", text[text.index("## CLI"):], re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("rowcolproj ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)  # argparse exits on a flag or value it does not accept


def test_readme_citations_exist():
    text = README.read_text(encoding="utf-8")
    paths = set(re.findall(r"(?<![\w/.])(BENCH_\d+\.json|(?:tests|tools)/[\w.-]*\w)", text))
    assert {"BENCH_37.json", "tests/_support.py", "tools/ab.py"} <= paths
    assert [path for path in sorted(paths) if not (ROOT / path).exists()] == []
    lines = len((ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines())
    cited = [int(n) for n in re.findall(r"CHANGES\.md:(\d+)", text)]
    assert cited and [n for n in cited if not 1 <= n <= lines] == []
