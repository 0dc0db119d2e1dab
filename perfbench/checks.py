"""Output checks. Every problem found counts the operation as failed."""

from __future__ import annotations

import math

#: Utilities of the same view must agree to this absolute tolerance.
UTILITY_TOLERANCE = 1e-9


def top_k(views) -> list[tuple[str, float]]:
    """``(label, utility)`` pairs of scored views or their JSON form."""
    pairs = []
    for view in views:
        if isinstance(view, dict):
            pairs.append((view["label"], view["utility"]))
        else:
            pairs.append((view.spec.label, float(view.utility)))
    return pairs


def compare_top_k(actual, expected) -> list[str]:
    """Same views in the same order, utilities within :data:`UTILITY_TOLERANCE`."""
    actual, expected = top_k(actual), top_k(expected)
    if [label for label, _ in actual] != [label for label, _ in expected]:
        return [f"top-k {[a for a, _ in actual]} != expected {[e for e, _ in expected]}"]
    problems = []
    for (label, got), (_, want) in zip(actual, expected):
        if got is None or not abs(got - want) <= UTILITY_TOLERANCE:
            problems.append(f"utility of {label!r}: {got!r} != expected {want!r}")
    return problems


def check_views(views, k: int, partial: bool) -> list[str]:
    """A timed reply is whole: not partial, k views, finite utilities."""
    problems = []
    if partial:
        problems.append("partial result")
    pairs = top_k(views)
    if len(pairs) != k:
        problems.append(f"{len(pairs)} views, expected {k}")
    for label, utility in pairs:
        if utility is None or not math.isfinite(utility):
            problems.append(f"non-finite utility for {label!r}: {utility!r}")
    return problems


def check_result(result, k: int) -> list[str]:
    """In-process :class:`RecommendationResult` check."""
    return check_views(result.recommendations, k, result.partial)


def check_reply(body: dict, k: int) -> list[str]:
    """JSON ``/recommend`` reply check."""
    if "error" in body:
        return [f"error reply {body['error']!r}"]
    return check_views(body.get("recommendations", []), k, bool(body.get("partial")))


def check_visualizations(body: dict, k: int) -> list[str]:
    """Every rendered spec validates against the vendored Vega-Lite schema."""
    from repro.viz.vega_schema import validate_vega_lite

    frames = body.get("visualizations")
    if not isinstance(frames, list) or len(frames) != k:
        return [f"expected {k} visualizations, got {frames!r:.80}"]
    problems = []
    for frame in frames:
        errors = validate_vega_lite(frame.get("spec"))
        problems.extend(f"vega-lite: {error}" for error in errors)
    return problems


def check_stream(lines: list[dict], k: int) -> list[str]:
    """NDJSON rounds: no error line, and a whole final round last."""
    if not lines:
        return ["empty stream"]
    for line in lines:
        if "error" in line:
            return [f"error line {line['error']!r}"]
    final = lines[-1]
    if not final.get("is_final") or "result" not in final:
        return ["stream did not end with a final round"]
    problems = check_reply(final["result"], k)
    if top_k(final["recommendations"]) != top_k(final["result"]["recommendations"]):
        problems.append("final round differs from its own result")
    return problems
