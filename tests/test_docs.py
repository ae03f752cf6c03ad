"""Every pointer from the source and README to where an argument lives resolves.

A docstring or comment in ``src/payband`` states a contract and names where
its argument is stated in full: a README section, written ``README "Numerics"``,
or the test that pins it, by its name. README names tests, and README and
CHANGES.md name the committed ``BENCH_<n>.json`` records. A renamed heading,
test or record would leave such a pointer dangling, and these tests say which.
The run-size numbers README states are checked against the code that counts them.
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


def test_readme_run_size_numbers_equal_the_code():
    # Each re-count of run_cells moves these; README states them in full.
    from payband.cli import MAX_CLASSES
    from payband.harness import load_config_file, preset_config_path, run_cells

    text = " ".join(README.split())
    assert f"must be an integer from 2 to {MAX_CLASSES:,} (otherwise" in text
    assert f"(`class histogram: 0: 1, 1: 1 ({MAX_CLASSES - 2} empty)`)" in text
    stated = re.search(r"The costliest strategy of `fig1` counts about ([\d.]+) M cells over "
                       r"its (\d+) runs, and that of `fig2-like` about ([\d.]+) M;", text)
    assert stated, "the preset cell counts are not stated"
    counted = {}
    for preset in ("fig1", "fig2-like"):
        config, _ = load_config_file(preset_config_path(preset))
        inst = config.instance
        cells = max(run_cells(p.kind, inst.n_arms, inst.dim, inst.horizon)
                    for p in config.policies)
        counted[preset] = config.n_runs, f"{config.n_runs * cells / 1e6:.2g}"
    assert stated.groups() == (counted["fig1"][1], str(counted["fig1"][0]),
                               counted["fig2-like"][1])
