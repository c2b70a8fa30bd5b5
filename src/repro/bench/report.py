"""The markdown report of ``repro.bench report`` over result payloads."""

from __future__ import annotations

from collections.abc import Mapping

from repro.bench.scenario import GROUPS


def _format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def render_markdown(results: Mapping[str, Mapping]) -> str:
    """One markdown table over all results, in (group, name) order."""
    if not results:
        return "_no bench results found_"
    header = (
        "| scenario | group | scale | median | IQR | min | repeats | key metrics |\n"
        "|---|---|---|---:|---:|---:|---:|---|"
    )
    order = {group: index for index, group in enumerate(GROUPS)}
    lines = [header]
    for payload in sorted(
        results.values(), key=lambda p: (order.get(p["group"], 99), p["scenario"])
    ):
        stats = payload["stats"]
        metrics = payload.get("metrics", {})
        shown = []
        for key in ("queries", "rows", "speedup", "api_overhead", "identical"):
            if key in metrics:
                value = metrics[key]
                text = f"{value:g}" if key != "speedup" else f"{value:.2f}x"
                shown.append(f"{key}={text}")
        lines.append(
            f"| {payload['scenario']} | {payload['group']} | {payload['scale']} "
            f"| {_format_seconds(stats['median_s'])} "
            f"| {_format_seconds(stats['iqr_s'])} "
            f"| {_format_seconds(stats['min_s'])} "
            f"| {payload['repeats']} "
            f"| {', '.join(shown)} |"
        )
    return "\n".join(lines)
