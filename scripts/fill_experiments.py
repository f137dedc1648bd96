#!/usr/bin/env python3
"""Fill EXPERIMENTS.md placeholders from a `ftmpi-bench figure all` log.

Usage:
    cargo run --release -p ftmpi-bench --bin ftmpi-bench -- figure all > /tmp/figures.log
    python3 scripts/fill_experiments.py /tmp/figures.log

Extracts the printed tables of selected experiments and splices them into
EXPERIMENTS.md at the `<!-- NAME -->` markers, converting the aligned-text
tables to Markdown.
"""

import re
import sys


def sections(log: str):
    """Split the log into {harness_name: text} chunks on its headers."""
    parts = re.split(r"^#{8,} (\w+) #{8,}$", log, flags=re.M)
    out = {}
    for i in range(1, len(parts) - 1, 2):
        out[parts[i]] = parts[i + 1]
    return out


def tables(text: str):
    """Extract (title, header, rows) of each `=== title ===` table."""
    out = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^=== (.+) ===$", lines[i])
        if not m:
            i += 1
            continue
        title = m.group(1)
        header = lines[i + 1].split()
        rows = []
        j = i + 3  # skip the dashes
        while j < len(lines) and lines[j].strip() and not lines[j].startswith(("===", "[", "(")):
            rows.append(lines[j].split())
            j += 1
        out.append((title, header, rows))
        i = j
    return out


def md_table(header, rows):
    head = "| " + " | ".join(header) + " |"
    sep = "|" + "---|" * len(header)
    body = "\n".join("| " + " | ".join(r) + " |" for r in rows)
    return f"{head}\n{sep}\n{body}"


def main():
    log = open(sys.argv[1]).read()
    secs = sections(log)
    exp = open("EXPERIMENTS.md").read()

    def fill(marker: str, content: str):
        nonlocal exp
        exp = exp.replace(f"<!-- {marker} -->", content)

    if "fig6_scaling" in secs:
        tbls = tables(secs["fig6_scaling"])
        chunks = []
        for title, header, rows in tbls:
            keep = [r for r in rows if r[0] in {"4", "64", "144", "169", "196", "256"}]
            chunks.append(f"**{title}**\n\n" + md_table(header, keep))
        fill("FIG6_TABLE", "\n\n".join(chunks))
    if "fig8_myrinet_scaling" in secs:
        t = tables(secs["fig8_myrinet_scaling"])[0]
        fill("FIG8_TABLE", md_table(t[1], t[2]))
    if "fig9_grid400" in secs:
        t = tables(secs["fig9_grid400"])[0]
        fill("FIG9_TABLE", md_table(t[1], t[2]))
    if "fig10_grid_scaling" in secs:
        t = tables(secs["fig10_grid_scaling"])[0]
        fill("FIG10_TABLE", md_table(t[1], t[2]))
    if "calibrate" in secs:
        t = tables(secs["calibrate"])[0]
        fill("CALIBRATION_TABLE", md_table(t[1], t[2]))
    # Extension experiment tables, appended as one block.
    ext = []
    for name in ("recovery_cost", "mttf_period", "ablation_design", "future_work"):
        if name in secs:
            for title, header, rows in tables(secs[name]):
                ext.append(f"**{title}** (`{name}`)\n\n" + md_table(header, rows))
    if ext:
        fill("EXTENSION_RESULTS", "\n\n".join(ext))

    open("EXPERIMENTS.md", "w").write(exp)
    print("filled")


if __name__ == "__main__":
    main()
