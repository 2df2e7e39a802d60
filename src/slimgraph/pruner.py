"""Channel importance scoring, selection, and slim-graph rebuilding.

Importance is the L1 norm of the producing filter row; groups coupled through
residual adds sum the scores of all their producer convolutions. Selection is
deterministic: lowest scores go first, ties keep the lower channel index. The
zero-embedding oracle builds a same-shape dense graph whose forward agrees
with the slim graph on every surviving channel, which is the executable form
of the consistency argument behind structured removal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import modelio
from .depgraph import ChannelGroup, resolve_groups
from .errors import GroupError, PlanError, SlimgraphError
from .executor import forward_arrays
from .graph import Graph, infer_shapes, trainable_items
from .kinds import SPECS


@dataclass
class PrunePlan:
    """Per-group removal index sets, each strictly increasing (``validate_plan``
    rejects any other), plus the requesting config."""
    removals: dict[str, tuple[int, ...]] = field(default_factory=dict)
    channel_fraction: float | None = None
    epoch_trigger: int | None = None


def l1_importance(graph: Graph, group: ChannelGroup) -> np.ndarray:
    """Sum of |w| over each producing filter row, accumulated across producers."""
    scores = np.zeros(group.length, dtype=np.float64)
    found = False
    for (nid, side, _), (local, chans) in group.index.items():
        n = graph.nodes[nid]
        for name in SPECS[n.kind].filters if side == "out" else ():
            w = n.params[name]
            norms = np.abs(w).reshape(len(w), -1).sum(axis=1, dtype=np.float64)
            if chans is local:  # channel k is local index k: one add per score
                scores += norms[:group.length]
            else:  # unbuffered and in member order: each score adds its rows lowest channel first
                np.add.at(scores, local, norms[chans])
            found = True
    if not found:
        raise GroupError(f"group {group.gid} has no conv producer to score")
    return scores


def select_channels(scores, fraction: float) -> tuple[int, ...]:
    """Indices of the floor(fraction*L) lowest-scoring channels.

    Ties remove the higher index first so lower indices survive; the removal
    count is capped so at least one channel remains. ``build_plan`` rejects a
    NaN score, which has no place in this order.
    """
    if not (0.0 <= fraction < 1.0):
        raise PlanError(f"channel fraction must be in [0, 1), got {fraction}")
    scores = np.asarray(scores, dtype=np.float64)
    L = len(scores)
    m = min(int(np.floor(fraction * L)), L - 1)
    if m <= 0:
        return ()
    order = np.lexsort((-np.arange(L), scores))
    return tuple(np.sort(order[:m]).tolist())


def build_plan(graph: Graph, fraction: float, groups=None,
               epoch_trigger: int | None = None) -> PrunePlan:
    """Uniform-fraction plan over every free group."""
    groups = groups or resolve_groups(graph)
    plan = PrunePlan(channel_fraction=fraction, epoch_trigger=epoch_trigger)
    for g in groups:
        if g.protected:
            continue
        scores = l1_importance(graph, g)
        if np.isnan(scores).any():
            raise PlanError(f"group {g.gid} has a NaN importance score: a weight it sums is NaN")
        removal = select_channels(scores, fraction)
        if removal:
            plan.removals[g.gid] = removal
    return plan


def validate_plan(groups, plan: PrunePlan) -> None:
    """Raise ``PlanError`` unless each removal set names a group of ``groups``, free
    when the set is not empty, by strictly increasing indices in range that leave it
    a channel."""
    by_gid = {g.gid: g for g in groups}
    for gid, idxs in plan.removals.items():
        g = by_gid.get(gid)
        if g is None:
            raise PlanError(f"plan references stale group id {gid!r}")
        if g.protected and idxs:
            raise PlanError(f"plan removes channels from protected group {gid!r}")
        if len(set(idxs)) != len(idxs):
            raise PlanError(f"plan has duplicate indices for group {gid!r}")
        if list(idxs) != sorted(idxs):
            raise PlanError(f"plan indices for group {gid!r} are not in increasing order")
        if idxs and not (0 <= idxs[0] and idxs[-1] < g.length):  # the ends bound the rest
            i = next(i for i in idxs if not 0 <= i < g.length)
            raise PlanError(f"plan index {i} out of range [0, {g.length}) for group {gid!r}")
        if len(idxs) > g.length - 1:
            raise PlanError(f"plan would remove every channel of group {gid!r}")


def _removed_channels(graph: Graph, plan: PrunePlan, groups=None) -> dict:
    """Validate the plan against ``groups`` (resolved when none are given) and map
    each (node, side, port) of a group the plan names to the channels it loses,
    ascending per group. A port whose channels are its group's local indices takes
    the plan's indices as they are; only a port that several groups touch concatenates."""
    groups = groups or resolve_groups(graph)
    validate_plan(groups, plan)
    by_gid = {g.gid: g for g in groups}
    removed: dict[tuple, list] = {}
    for gid, idxs in plan.removals.items():
        g = by_gid[gid]
        idxs = np.asarray(idxs, dtype=np.intp)
        gone = None
        for port, (local, chans) in g.index.items():
            if chans is local:
                removed.setdefault(port, []).append(idxs)
                continue
            if gone is None:
                gone = np.zeros(g.length, dtype=bool)
                gone[idxs] = True
            removed.setdefault(port, []).append(chans[gone[local]])
    return {port: parts[0] if len(parts) == 1 else np.concatenate(parts)
            for port, parts in removed.items()}


def apply_prune(graph: Graph, plan: PrunePlan, groups=None) -> Graph:
    """Rebuild the graph with the planned channels removed everywhere.

    Producer filter rows, bias entries, normalization and scale entries, and
    every consumer's input columns are deleted consistently; surviving weights
    are copied bit-exactly into C-contiguous arrays. Protected (head) tensors
    are untouched.
    """
    removed = _removed_channels(graph, plan, groups)
    slim = graph.clone(copy_params=False)
    for nid, n in slim.nodes.items():
        spec = SPECS[n.kind]
        keep = {}  # side -> the indices it keeps, shared by every tensor axis on that side
        params = {}
        for name, arr in n.params.items():
            kept = arr
            for axis, side in enumerate(spec.params[name]):
                if (nid, side, 0) in removed:  # take, unlike np.delete, gives C order
                    if side not in keep:
                        mask = np.ones(kept.shape[axis], dtype=bool)
                        mask[removed[(nid, side, 0)]] = False
                        keep[side] = np.flatnonzero(mask)
                    kept = kept.take(keep[side], axis)
            params[name] = arr.copy() if kept is arr else kept
        n.params = params
        if spec.resize is not None:
            n.attrs = spec.resize(n.attrs, lambda p, width, nid=nid: width - len(
                removed.get((nid, "out", p), ())))
    if plan.removals:
        slim.meta["stage"] = "pruned"
    try:
        infer_shapes(slim)
    except Exception as e:  # inconsistent rebuild is an internal invariant violation
        raise GroupError(f"post-prune shape inference failed: {e}") from e
    return slim


def zero_embed_oracle(graph: Graph, plan: PrunePlan, groups=None) -> Graph:
    """Same-shape dense graph with removed channels neutralized.

    Every consumer conv/linear input column at a removed index is zeroed;
    producer weights stay untouched. Restricted to surviving channels, its
    forward equals the slim graph's forward.
    """
    removed = _removed_channels(graph, plan, groups)
    dense = graph.clone(copy_params=True)
    for (nid, side, _), chans in removed.items():
        n = dense.nodes[nid]
        for name, template in SPECS[n.kind].params.items() if side == "in" else ():
            if "in" in template and name in n.params:
                n.params[name][(slice(None),) * template.index("in") + (chans,)] = 0.0
    return dense


def verify(dense: Graph, slim: Graph, plan: PrunePlan, inputs) -> float:
    """The worst relative deviation of ``slim``'s outputs from those of ``dense``'s
    zero-embedding oracle under ``plan``, over every input batch and output: the largest
    absolute difference over the oracle's largest magnitude (at least 1e-12); 0.0 for
    no input. A plan that does not fit ``dense`` raises ``PlanError``; a ``slim`` whose
    trainable parameter count is not ``apply_prune(dense, plan)``'s, an output that one
    side lacks or has in another shape, and a deviation that is not finite each raise
    ``SlimgraphError``."""
    groups = resolve_groups(dense)
    embedded = zero_embed_oracle(dense, plan, groups)  # validates the plan
    expected = apply_prune(dense, plan, groups)
    if len({sum(a.size for _, a in trainable_items(g)) for g in (expected, slim)}) > 1:
        raise SlimgraphError("verify: slim model parameter count does not match the plan")
    worst = 0.0
    for x in inputs:
        ya, yb = forward_arrays(embedded, x), forward_arrays(slim, x)
        for k in dict.fromkeys([*ya, *yb]):
            want, got = (f"shape {y[k].shape}" if k in y else "missing" for y in (ya, yb))
            if want != got:
                raise SlimgraphError(
                    f"verify: output {k!r} does not match: dense {want}, slim {got}")
            rel = float(np.abs(ya[k] - yb[k]).max()) / max(float(np.abs(ya[k]).max()), 1e-12)
            if not np.isfinite(rel):  # max() would silently keep the finite worst
                raise SlimgraphError(
                    f"verify: output {k!r} is not finite (relative deviation {rel})")
            worst = max(worst, rel)
    return worst


def achieved_ratio(dense_params: int, slim_params: int) -> float:
    """Fraction of trainable parameters removed: 1 - slim/dense."""
    if dense_params < 1 or slim_params < 1:
        raise PlanError("parameter counts must be >= 1")
    if slim_params > dense_params:
        raise PlanError(
            f"slim graph has more parameters ({slim_params}) than dense ({dense_params})")
    return 1.0 - slim_params / dense_params


def ratio_percent(dense_params: int, slim_params: int) -> float:
    """Achieved ratio as a percentage rounded to one decimal."""
    return round(100.0 * achieved_ratio(dense_params, slim_params), 1)


# ---------------------------------------------------------------------------
# plan sidecar file
# ---------------------------------------------------------------------------

def write_plan(plan: PrunePlan, path) -> None:
    """Write the plan sidecar, UTF-8, through ``modelio.save_bytes``."""
    lines = ["# slimgraph prune plan v1"]
    if plan.channel_fraction is not None:
        lines.append(f"fraction {plan.channel_fraction}")
    if plan.epoch_trigger is not None:
        lines.append(f"epoch {plan.epoch_trigger}")
    for gid in sorted(plan.removals):
        idxs = ",".join(str(i) for i in plan.removals[gid])
        lines.append(f"group {gid} remove {idxs}")
    modelio.save_bytes(("\n".join(lines) + "\n").encode("utf-8"), path)


def read_plan(path) -> PrunePlan:
    """Parse a plan sidecar; a line that does not parse raises PlanError naming it."""
    plan = PrunePlan()
    try:
        with open(path, encoding="utf-8") as f:
            for raw in f:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    _read_plan_line(plan, line.split())
                except ValueError:
                    raise PlanError(f"malformed plan line: {line!r}") from None
    except UnicodeDecodeError as e:
        raise PlanError(f"plan file is not UTF-8 text: {e}") from None
    return plan


def _read_plan_line(plan: PrunePlan, parts: list[str]) -> None:
    if parts[0] == "fraction" and len(parts) == 2:
        plan.channel_fraction = float(parts[1])
    elif parts[0] == "epoch" and len(parts) == 2:
        plan.epoch_trigger = int(parts[1])
    elif parts[0] == "group" and len(parts) == 4 and parts[2] == "remove":
        plan.removals[parts[1]] = tuple(int(x) for x in parts[3].split(","))
    else:
        raise ValueError(parts[0])
