"""Roll a cProfile run up into self time per simulator layer.

A layer is a package under ``src/repro/`` (``sim`` is split into its two hot
modules and the rest).  A function defined in a layer's files belongs to it.
A built-in or standard-library function belongs to nobody, so its self time
is charged to whoever called it, in proportion to the self time cProfile
recorded on each caller edge, following edges upward until a layer function
is reached.  What no layer called - the benchmark's own step loop, the few
``repro`` modules outside the list, interpreter start-up - lands in ``pyrt``.

Every second of the profile is charged exactly once: the shares of one
function always sum to 1, so the layers sum to the profile's total self
time (``test_layers.py`` checks this on a checked-in profile).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: Layer names, in report order.  ``pyrt`` is the catch-all.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.network", "sim.other", "crypto", "net", "ledger", "workload",
    "runtime", "core", "protocols.pbft", "protocols.rcc", "protocols.hotstuff",
    "protocols.narwhal", "recovery", "faults", "scenarios", "obs", "pyrt",
)

_PACKAGES = ("crypto", "net", "ledger", "workload", "runtime", "core", "recovery",
             "faults", "scenarios", "obs")

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None for files outside them."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    parts = path[marker + len("/repro/"):].split("/")
    if parts[0] == "sim":
        module = parts[1] if len(parts) > 1 else ""
        return {"engine.py": "sim.engine", "network.py": "sim.network"}.get(module, "sim.other")
    if parts[0] == "protocols" and len(parts) > 2 and f"protocols.{parts[1]}" in LAYERS:
        return f"protocols.{parts[1]}"
    return parts[0] if parts[0] in _PACKAGES else None


def rollup(stats: Dict[Func, Tuple[int, int, float, float, Dict[Func, Tuple[int, int, float, float]]]]
           ) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "self_share", "calls"}}`` from ``pstats.Stats(...).stats``.

    ``calls`` counts calls of functions *defined* in the layer (exact for a
    fixed seed); built-in calls are counted under ``pyrt``.
    """
    own = {func: layer_of(func[0]) for func in stats}
    shares: Dict[Func, Dict[str, float]] = {}

    def resolve(func: Func, stack: Tuple[Func, ...]) -> Dict[str, float]:
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        if not callers or func in stack:
            return {"pyrt": 1.0}
        # Edge weight: self time recorded on the edge; call counts when the
        # profile's clock was too coarse to see any.
        weight = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weight.values()) <= 0.0:
            weight = {caller: float(edge[0]) for caller, edge in callers.items()}
        total = sum(weight.values())
        result: Dict[str, float] = {}
        for caller, value in weight.items():
            if value <= 0.0:
                continue
            for layer_name, share in resolve(caller, stack + (func,)).items():
                result[layer_name] = result.get(layer_name, 0.0) + share * value / total
        if not result:
            result = {"pyrt": 1.0}
        if not stack:
            # Memoise only complete answers: one computed under a cut cycle
            # is right for that path alone.
            shares[func] = result
        return result

    table = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for func, (_cc, ncalls, self_time, _ct, _callers) in stats.items():
        table[own[func] or "pyrt"]["calls"] += ncalls
        for layer, share in resolve(func, ()).items():
            table[layer]["self_s"] += self_time * share
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["self_share"] = row["self_s"] / total if total > 0 else 0.0
    return table


def total_self_time(stats: Dict[Func, Any]) -> float:
    return sum(entry[2] for entry in stats.values())


def total_calls(stats: Dict[Func, Any]) -> int:
    return sum(entry[1] for entry in stats.values())


def format_table(table: Dict[str, Dict[str, float]]) -> str:
    """The layers table, hottest first."""
    lines = [f"{'layer':<20}{'self_s':>10}{'share':>9}{'calls':>12}"]
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"{layer:<20}{row['self_s']:>10.3f}{row['self_share']:>9.1%}{int(row['calls']):>12}")
    return "\n".join(lines)
