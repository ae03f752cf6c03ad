"""Every pointer from the source and README to where an argument lives resolves.

A docstring or comment in ``src/payband`` states a contract and names where
its argument is stated in full: a README section, written ``README "Numerics"``,
or the test that pins it, by its name. README names tests, and README and
CHANGES.md name the committed ``BENCH_<n>.json`` records. A renamed heading,
test or record would leave such a pointer dangling, and these tests say which.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "src" / "payband").glob("*.py"))}


def test_every_readme_section_the_source_names_is_a_heading():
    headings = set(re.findall(r"^## (.+)$", README, re.MULTILINE))
    named = {(name, section) for name, text in SOURCES.items()
             for section in re.findall(r'README "([^"]*)"', text)}
    assert sorted(p for p in named if "\n" in p[1]) == [], "a pointer is split across lines"
    assert sorted(p for p in named if p[1] not in headings) == []


def test_every_test_the_source_or_readme_names_exists():
    known = set()
    for path in [*(ROOT / "tests").glob("test_*.py"), *(ROOT / "perfbench").glob("test_*.py")]:
        known.add(path.stem)
        known.update(node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"))
    named = {(name, test) for name, text in [*SOURCES.items(), ("README.md", README)]
             for test in re.findall(r"\btest_\w+", text)}
    assert sorted(p for p in named if p[1] not in known) == []


def test_every_benchmark_record_readme_or_changes_names_exists():
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bBENCH_\d+\.json\b", README + changes))
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []
