"""Register allocation as spill-cost modelling.

The VM runs on virtual registers, so allocation here does not rename — it
*injects spill code* wherever a real allocator of the modelled quality would
have gone to memory.  Two models:

* :func:`allocate_local` — Mono's allocator circa the paper: no global
  allocation, so any value live across a basic-block boundary lives in
  memory, except for a small set of pinned loop variables.  On x86's six
  GPRs this spills heavily; on PowerPC's 32 much less — reproducing the
  Figure 5 asymmetry ("Lack of global register allocation affects PowerPC
  code as well, but to a lesser degree").
* :func:`allocate_linear_scan` — the gcc4cli/native-quality allocator:
  values stay in registers unless true pressure exceeds the file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..targets.base import Target
from .mir import FPR, GPR, VEC, MFunction, MInstr, VReg

__all__ = ["allocate_local", "allocate_linear_scan", "AllocStats"]

_BOUNDARY_OPS = {"label", "br", "brtrue", "brfalse"}
_slot_ids = itertools.count()


@dataclass
class AllocStats:
    """Spill accounting, used by tests and compile-time experiments."""

    spilled_values: int = 0
    spill_loads: int = 0
    spill_stores: int = 0


def _file_size(target: Target, rclass: str) -> int:
    return {GPR: target.gpr_count, FPR: target.fpr_count, VEC: target.vec_count}[
        rclass
    ]


def _positions(mf: MFunction):
    """defs[reg] -> list of instr indices; uses[reg] -> list; boundaries."""
    defs: dict[int, list[int]] = {}
    uses: dict[int, list[int]] = {}
    regs: dict[int, VReg] = {}
    boundaries: list[int] = []
    for i, ins in enumerate(mf.instrs):
        if ins.op in _BOUNDARY_OPS:
            boundaries.append(i)
        if ins.dst is not None:
            defs.setdefault(ins.dst.id, []).append(i)
            regs[ins.dst.id] = ins.dst
        for s in ins.srcs:
            uses.setdefault(s.id, []).append(i)
            regs[s.id] = s
    # Parameters are defined at entry.
    for _, _, reg in mf.scalar_params:
        defs.setdefault(reg.id, []).insert(0, -1)
        regs[reg.id] = reg
    return defs, uses, regs, boundaries


def _crosses_boundary(span: tuple[int, int], boundaries: list[int]) -> bool:
    lo, hi = span
    import bisect

    k = bisect.bisect_right(boundaries, lo)
    return k < len(boundaries) and boundaries[k] < hi


def _insert_spill_code(mf: MFunction, victim_ids: set[int]) -> AllocStats:
    """Insert spill_st after defs and spill_ld before uses of victims."""
    stats = AllocStats(spilled_values=len(victim_ids))
    slots: dict[int, int] = {}
    new_instrs: list[MInstr] = []
    for ins in mf.instrs:
        reloads = []
        for s in ins.srcs:
            if s.id in victim_ids and s.id in slots:
                reloads.append(s)
        for s in reloads:
            new_instrs.append(
                MInstr("spill_ld", s, [], {"slot": slots[s.id]})
            )
            stats.spill_loads += 1
        new_instrs.append(ins)
        if ins.dst is not None and ins.dst.id in victim_ids:
            slot = slots.setdefault(ins.dst.id, next(_slot_ids))
            new_instrs.append(
                MInstr("spill_st", None, [ins.dst], {"slot": slot})
            )
            stats.spill_stores += 1
    # Spill parameters at entry if victimized.
    prologue: list[MInstr] = []
    for _, _, reg in mf.scalar_params:
        if reg.id in victim_ids:
            slot = slots.setdefault(reg.id, next(_slot_ids))
            prologue.append(MInstr("spill_st", None, [reg], {"slot": slot}))
            stats.spill_stores += 1
    mf.instrs = prologue + new_instrs
    return stats


def allocate_local(mf: MFunction, target: Target) -> AllocStats:
    """Mono-style local allocation.

    Values whose live range crosses a basic-block boundary are spilled,
    except for up to half of each register file pinned in creation order
    (loop induction variables and carried values are created first by the
    flattener, so they win the pins — Mono similarly kept loop locals in
    registers when it could).
    """
    defs, uses, regs, boundaries = _positions(mf)
    pinned_budget = {
        GPR: max(_file_size(target, GPR) // 2, 1),
        FPR: max(_file_size(target, FPR) // 2, 1),
        VEC: max(_file_size(target, VEC) // 2, 0),
    }
    # Explicit pin candidates (loop control and carried values), deepest
    # loops first — Mono kept hot loop locals in registers when it could.
    pin_list = sorted(
        mf.meta.get("pinned", ()), key=lambda t: (-t[0], t[1])
    )
    pin_rank = {rid: i for i, (_, rid, _) in enumerate(pin_list)}
    chosen: set[int] = set()
    counts = {GPR: 0, FPR: 0, VEC: 0}
    ordered = sorted(
        regs.values(),
        key=lambda r: (pin_rank.get(r.id, 1 << 30), r.id),
    )
    for reg in ordered:
        if counts[reg.rclass] < pinned_budget[reg.rclass]:
            chosen.add(reg.id)
            counts[reg.rclass] += 1
    victims: set[int] = set()
    for rid, reg in regs.items():
        if rid in chosen:
            continue
        d = defs.get(rid, [])
        u = uses.get(rid, [])
        if not d or not u:
            continue
        span = (min(d), max(u))
        if _crosses_boundary(span, boundaries):
            victims.add(rid)
    return _insert_spill_code(mf, victims)


def allocate_linear_scan(mf: MFunction, target: Target) -> AllocStats:
    """Linear-scan allocation: spill only under true register pressure."""
    defs, uses, regs, _ = _positions(mf)
    intervals: list[tuple[int, int, VReg]] = []
    for rid, reg in regs.items():
        d = defs.get(rid, [])
        u = uses.get(rid, [])
        if not d:
            continue
        end = max(u) if u else min(d)
        intervals.append((min(d), end, reg))
    victims: set[int] = set()
    for rclass in (GPR, FPR, VEC):
        k = _file_size(target, rclass)
        if k <= 0:
            continue
        cls_ints = sorted(
            (iv for iv in intervals if iv[2].rclass == rclass),
            key=lambda iv: iv[0],
        )
        active: list[tuple[int, int, VReg]] = []
        for start, end, reg in cls_ints:
            active = [a for a in active if a[1] >= start and a[2].id not in victims]
            active.append((start, end, reg))
            if len(active) > k:
                # Spill the interval with the furthest end (classic choice).
                active.sort(key=lambda a: a[1])
                victim = active.pop()
                victims.add(victim[2].id)
    if not victims:
        return AllocStats()
    return _insert_spill_code(mf, victims)
