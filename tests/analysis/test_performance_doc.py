"""PERFORMANCE.md quotes the committed BENCH_solver.json, figure for figure.

Every benchmark figure the document quotes is parsed back out of its
section and compared with the artifact, so the two cannot drift apart:
regenerating the artifact without updating the document (or editing a
figure by hand) fails here.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOC = (ROOT / "PERFORMANCE.md").read_text(encoding="utf-8")
ARTIFACT = json.loads((ROOT / "BENCH_solver.json").read_text(encoding="utf-8"))


def _section(number: int) -> str:
    match = re.search(rf"^## {number}\. .*?(?=^## |\Z)", DOC, re.M | re.S)
    assert match, f"PERFORMANCE.md has no section {number}"
    return match.group(0)


def _table(section: str) -> dict[str, list[str]]:
    """Markdown table rows of ``section``: first cell -> remaining cells."""
    rows = {}
    for line in section.splitlines():
        if line.startswith("|") and not set(line) <= set("|-: "):
            cells = [cell.strip().strip("*") for cell in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return rows


def _seconds(cell: str) -> float:
    match = re.fullmatch(r"\**([\d.]+) s\**", cell)
    assert match, f"not a wall-clock cell: {cell!r}"
    return float(match.group(1))


def _ratio(cell: str) -> float:
    match = re.fullmatch(r"\**([\d.]+)×\**", cell)
    assert match, f"not a speedup cell: {cell!r}"
    return float(match.group(1))


def _decimals(cell: str) -> int:
    return len(re.search(r"\.(\d+)", cell).group(1))


def test_schema_mentions_match_artifact():
    mentioned = set(re.findall(r"bench_solver/v\d+", DOC))
    assert mentioned == {ARTIFACT["schema"]}


def test_cache_counts():
    cache = ARTIFACT["cache"]
    assert f"({cache['hits']} hits / {cache['misses']} misses" in _section(3)
    rows = _table(_section(7))
    assert rows["solve-cache hits / misses"] == [
        f"{cache['hits']} / {cache['misses']}"
    ]


def test_suite_total():
    rows = _table(_section(7))
    wall = rows["suite wall (sum of the 27 best-of-3 walls)"][0]
    assert _seconds(wall) == ARTIFACT["total_wall_s"]
    assert len(ARTIFACT["experiments"]) == 27


def test_fleet_table():
    fleet = ARTIFACT["fleet"]
    section = _section(6)
    assert (
        f"({fleet['n_chips']} sampled chips × {fleet['rows_per_chip']} "
        "assignment rows" in section
    )
    rows = _table(section)
    loop_wall, loop_speedup = rows["chip-at-a-time `solve_many` loop"]
    batch_wall, batch_speedup = rows["one `solve_population` batch"]
    assert _seconds(loop_wall) == fleet["chip_loop_wall_s"]
    assert _ratio(loop_speedup) == 1.0
    assert _seconds(batch_wall) == fleet["population_wall_s"]
    assert _ratio(batch_speedup) == round(
        fleet["speedup"], _decimals(batch_speedup)
    )


def test_store_table():
    store = ARTIFACT["store"]
    section = _section(10)
    assert f"({store['n_chips']} chips, trials {store['trials']}" in section
    rows = _table(section)
    cold_wall, cold_speedup = rows["cold (empty store, paying writes)"]
    (warm_label,) = [label for label in rows if label.startswith("warm")]
    warm_wall, warm_speedup = rows[warm_label]
    assert warm_label == (
        f"warm ({store['warm_hits']} hits / {store['warm_misses']} misses)"
    )
    assert _seconds(cold_wall) == store["cold_wall_s"]
    assert _ratio(cold_speedup) == 1.0
    assert _seconds(warm_wall) == store["warm_wall_s"]
    assert _ratio(warm_speedup) == round(store["speedup"], _decimals(warm_speedup))


@pytest.mark.parametrize("number", [6, 7, 10])
def test_quoted_sections_cite_the_artifact(number):
    assert "BENCH_solver.json" in _section(number)
