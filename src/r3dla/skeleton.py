"""Skeleton construction: profiling, seed selection, backward closure, versions.

A skeleton is the subset of the program the look-ahead thread executes:
control instructions plus selected memory/value instructions plus everything
they transitively depend on.  Selection is profile driven; the closure is an
iterative backward dataflow over the static CFG (reaching definitions), with
store-to-load dependences approximated by matching (base register, offset)
pairs within a 1000-instruction static window preceding the load.

Six fixed version recipes are generated; a controller (recycle module) picks
among them at run time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import uisa
from .memsys import MemorySystem, CacheConfig, MT

STORE_LOAD_WINDOW = 1000
L1_SEED_THRESHOLD = 0.01
L2_SEED_THRESHOLD = 0.001
SLOW_LATENCY_CYCLES = 20
DEFAULT_BIAS_THRESHOLD = 0.999
NUM_VERSIONS = 6

EXEC_LATENCY = {"MUL": 3}  # non-memory ops default to 1 cycle


@dataclass
class PcProfile:
    exec_count: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    latency_sum: int = 0
    taken_count: int = 0
    backward_taken: bool = False
    last_addr: int | None = None
    stride_votes: dict = field(default_factory=dict)
    consumer_pcs: set = field(default_factory=set)

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.exec_count if self.exec_count else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.exec_count if self.exec_count else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.exec_count if self.exec_count else 0.0

    @property
    def branch_bias(self) -> float:
        return self.taken_count / self.exec_count if self.exec_count else 0.0

    def detected_stride(self) -> int | None:
        """Dominant non-zero address delta, if it covers >=90% of instances."""
        total = sum(self.stride_votes.values())
        if total < 2:
            return None
        delta, votes = max(self.stride_votes.items(), key=lambda kv: kv[1])
        if delta != 0 and votes >= 0.9 * total:
            return delta
        return None


@dataclass
class ProfileStats:
    per_pc: dict[int, PcProfile]
    instructions: int
    partial: bool = False

    def strided_pcs(self) -> set[int]:
        return {pc for pc, p in self.per_pc.items() if p.detected_stride() is not None}


def profile(program: uisa.StaticProgram, train_limit: int = 200_000,
            cache_config: CacheConfig | None = None) -> ProfileStats:
    """Run a training input through the memory model and collect statistics."""
    mem = MemorySystem(cache_config)
    state = uisa.ArchState.initial(program)
    per_pc: dict[int, PcProfile] = {}
    last_writer: dict[int, int] = {}
    now = 0
    seq = 0
    partial = True
    while seq < train_limit:
        ins = program.instrs[state.pc]
        if ins.opcode == "HALT":
            partial = False
            break
        ev = uisa.step(state, program, seq)
        seq += 1
        p = per_pc.get(ev.pc)
        if p is None:
            p = per_pc[ev.pc] = PcProfile()
        p.exec_count += 1
        lat = 1
        if ins.is_mem:
            res = mem.access(ev.eff_addr, "load" if ins.opcode == "LOAD" else "store",
                             MT, now)
            lat = res.latency
            if res.hit_level != "L1":
                p.l1_misses += 1
            if res.hit_level in ("L3", "DRAM"):
                p.l2_misses += 1
            if p.last_addr is not None:
                d = ev.eff_addr - p.last_addr
                p.stride_votes[d] = p.stride_votes.get(d, 0) + 1
            p.last_addr = ev.eff_addr
        else:
            lat = EXEC_LATENCY.get(ins.opcode, 1)
        p.latency_sum += lat
        now += lat
        if ins.opcode == "BR_COND":
            if ev.taken:
                p.taken_count += 1
                if ins.target <= ev.pc:
                    p.backward_taken = True
        for r in ins.read_regs():
            w = last_writer.get(r)
            if w is not None:
                per_pc[w].consumer_pcs.add(ev.pc)
        if ins.dst is not None:
            last_writer[ins.dst] = ev.pc
    return ProfileStats(per_pc=per_pc, instructions=seq, partial=partial)


@dataclass
class SeedVector:
    control: frozenset[int]
    l2_targets: frozenset[int]
    l1_targets: frozenset[int]
    value_reuse_targets: frozenset[int]
    t1_targets: frozenset[int]
    biased_branch_conversions: frozenset[int]


def select_seeds(program: uisa.StaticProgram, prof: ProfileStats,
                 bias_threshold: float = DEFAULT_BIAS_THRESHOLD) -> SeedVector:
    """Classify static instructions into the skeleton seed classes."""
    converted = set()
    for pc, p in prof.per_pc.items():
        ins = program.instrs[pc]
        if ins.opcode == "BR_COND" and p.exec_count > 0:
            if max(p.branch_bias, 1.0 - p.branch_bias) >= bias_threshold:
                converted.add(pc)
    control = {i.index for i in program.instrs if i.is_control} - converted
    l1, l2, t1 = set(), set(), set()
    vr = set()
    for pc, p in prof.per_pc.items():
        ins = program.instrs[pc]
        if ins.is_mem:
            if p.l1_miss_rate > L1_SEED_THRESHOLD:
                l1.add(pc)
            if p.l2_miss_rate > L2_SEED_THRESHOLD:
                l2.add(pc)
            if p.detected_stride() is not None:
                t1.add(pc)
        if p.mean_latency > SLOW_LATENCY_CYCLES and len(p.consumer_pcs) > 1:
            vr.add(pc)
    return SeedVector(control=frozenset(control), l2_targets=frozenset(l2),
                      l1_targets=frozenset(l1), value_reuse_targets=frozenset(vr),
                      t1_targets=frozenset(t1),
                      biased_branch_conversions=frozenset(converted))


@dataclass(frozen=True)
class SkeletonMask:
    version_id: int
    bits: frozenset[int]
    converted_branches: frozenset[int] = frozenset()

    def __contains__(self, pc: int) -> bool:
        return pc in self.bits

    def to_hex(self) -> str:
        v = 0
        for b in self.bits:
            v |= 1 << b
        return hex(v)

    @staticmethod
    def bits_from_hex(h: str) -> frozenset[int]:
        v = int(h, 16)
        out = set()
        i = 0
        while v:
            if v & 1:
                out.add(i)
            v >>= 1
            i += 1
        return frozenset(out)


@dataclass
class SkeletonSet:
    versions: list[SkeletonMask]
    s_bits: frozenset[int]
    # profiled majority direction (True = taken) of each converted branch
    bias_dirs: dict[int, bool] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.versions) != NUM_VERSIONS:
            raise uisa.UisaError(f"a skeleton has {NUM_VERSIONS} versions, "
                                 f"got {len(self.versions)}")
        converted = set().union(*(m.converted_branches for m in self.versions))
        missing = converted - self.bias_dirs.keys()
        if missing:
            raise uisa.UisaError(
                f"converted branches {sorted(missing)} have no bias direction")


# ---------------------------------------------------------------------------
# dataflow

def _successors(program: uisa.StaticProgram) -> list[list[int]]:
    n = len(program.instrs)
    call_returns = [i.index + 1 for i in program.instrs
                    if i.opcode == "CALL" and i.index + 1 < n]
    succs: list[list[int]] = []
    for ins in program.instrs:
        i = ins.index
        if ins.opcode == "HALT":
            succs.append([])
        elif ins.opcode == "BR_UNCOND":
            succs.append([ins.target])
        elif ins.opcode == "BR_COND":
            s = [ins.target]
            if i + 1 < n:
                s.append(i + 1)
            succs.append(s)
        elif ins.opcode == "CALL":
            succs.append([ins.target])
        elif ins.opcode == "RET":
            succs.append(list(call_returns))  # conservative return edges
        else:
            succs.append([i + 1] if i + 1 < n else [])
    return succs


def reaching_producers(program: uisa.StaticProgram) -> list[dict[int, frozenset[int]]]:
    """For each instruction, map each register to the defs that may reach it.

    Iterative forward dataflow over the static CFG; all-paths (may) analysis.
    """
    n = len(program.instrs)
    succs = _successors(program)
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, ss in enumerate(succs):
        for s in ss:
            preds[s].append(i)

    in_defs: list[dict[int, set[int]]] = [dict() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            cur = in_defs[i]
            for p in preds[i]:
                ins = program.instrs[p]
                out = in_defs[p]
                pdst = ins.dst
                for r, defs in out.items():
                    if r == pdst:
                        continue
                    got = cur.get(r)
                    if got is None:
                        cur[r] = set(defs)
                        changed = True
                    elif not defs <= got:
                        got |= defs
                        changed = True
                if pdst is not None:
                    got = cur.get(pdst)
                    if got is None:
                        cur[pdst] = {p}
                        changed = True
                    elif p not in got:
                        got.add(p)
                        changed = True
    return [{r: frozenset(d) for r, d in m.items()} for m in in_defs]


def _store_feeders(program: uisa.StaticProgram, load: uisa.StaticInstr) -> set[int]:
    """Stores that may feed this load: same (base, offset), within the window."""
    out = set()
    lo = max(0, load.index - STORE_LOAD_WINDOW)
    for j in range(lo, load.index):
        s = program.instrs[j]
        if (s.opcode == "STORE" and s.mem_base == load.mem_base
                and s.mem_offset == load.mem_offset):
            out.add(j)
    return out


def backward_closure(program: uisa.StaticProgram, seeds,
                     reaching: list[dict[int, frozenset[int]]] | None = None,
                     converted_branches: frozenset[int] = frozenset(),
                     version_id: int = 0) -> SkeletonMask:
    """Least fixpoint of seeds under register and (approximate) memory deps."""
    if reaching is None:
        reaching = reaching_producers(program)
    included: set[int] = set()
    work = list(seeds)
    while work:
        i = work.pop()
        if i in included:
            continue
        included.add(i)
        ins = program.instrs[i]
        if i in converted_branches:
            continue  # converted branches read nothing
        defs_at = reaching[i]
        for r in ins.read_regs():
            for d in defs_at.get(r, ()):
                if d not in included:
                    work.append(d)
        if ins.opcode == "LOAD":
            for s in _store_feeders(program, ins):
                if s not in included:
                    work.append(s)
    return SkeletonMask(version_id=version_id, bits=frozenset(included),
                        converted_branches=converted_branches)


def gen_skeleton_versions(program: uisa.StaticProgram, prof: ProfileStats,
                          bias_threshold: float = DEFAULT_BIAS_THRESHOLD) -> SkeletonSet:
    """Build the six fixed version recipes, each individually closed.

    v0: control + L1 + L2 targets (default)
    v1: v0 minus L1 targets
    v2: v0 plus value-reuse targets
    v3: v0 plus T1 targets added back
    v4: v0 with biased-branch conversion
    v5: control + L2 targets only

    v5 is the same recipe as v1 (``ctrl | l2``), so it always closes to the
    same mask; it is kept only so that version ids stay stable.  Strided
    (S-bit) instructions are excluded from every seed set except v3.  The
    profile also gives ``bias_dirs``, the majority direction of each branch
    that v4 converts.
    """
    seeds = select_seeds(program, prof, bias_threshold)
    reaching = reaching_producers(program)
    s_bits = seeds.t1_targets
    ctrl = set(seeds.control) | set(seeds.biased_branch_conversions)
    l1 = seeds.l1_targets - s_bits
    l2 = seeds.l2_targets - s_bits
    vr = seeds.value_reuse_targets - s_bits

    def close(seed_set, vid, converted=frozenset()):
        return backward_closure(program, seed_set - set(converted), reaching,
                                converted_branches=converted, version_id=vid)

    v0_seeds = ctrl | l1 | l2
    versions = [
        close(v0_seeds, 0),
        close(ctrl | l2, 1),
        close(v0_seeds | vr, 2),
        close(v0_seeds | set(seeds.t1_targets), 3),
        close(v0_seeds, 4, converted=seeds.biased_branch_conversions),
        close(ctrl | l2, 5),
    ]
    directions = {pc: prof.per_pc[pc].branch_bias >= 0.5
                  for pc in seeds.biased_branch_conversions}
    return SkeletonSet(versions, s_bits, directions)


# ---------------------------------------------------------------------------
# skeleton files

def program_hash(program: uisa.StaticProgram) -> str:
    return hashlib.sha256(uisa.print_program(program).encode()).hexdigest()


def save_skeleton(skel: SkeletonSet, program: uisa.StaticProgram, path) -> None:
    doc = {
        "program_hash": program_hash(program),
        "versions": [m.to_hex() for m in skel.versions],
        "converted_branches": [sorted(m.converted_branches) for m in skel.versions],
        "s_bits": sorted(skel.s_bits),
        "bias_dirs": {str(pc): d for pc, d in sorted(skel.bias_dirs.items())},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def load_skeleton(path, program: uisa.StaticProgram | None = None) -> SkeletonSet:
    with open(path) as f:
        doc = json.load(f)
    if program is not None and doc["program_hash"] != program_hash(program):
        raise uisa.UisaError("skeleton file does not match program")
    if "bias_dirs" not in doc:
        raise uisa.UisaError(
            "skeleton file has no bias_dirs; rebuild it with skel build")
    versions = [
        SkeletonMask(version_id=i, bits=SkeletonMask.bits_from_hex(h),
                     converted_branches=frozenset(conv))
        for i, (h, conv) in enumerate(zip(doc["versions"], doc["converted_branches"]))
    ]
    directions = {int(pc): d for pc, d in doc["bias_dirs"].items()}
    return SkeletonSet(versions, frozenset(doc["s_bits"]), directions)


def build(program: uisa.StaticProgram, train_limit: int = 200_000,
          cache_config: CacheConfig | None = None,
          bias_threshold: float = DEFAULT_BIAS_THRESHOLD) -> SkeletonSet:
    """Profile the program and generate all skeleton versions."""
    prof = profile(program, train_limit, cache_config)
    return gen_skeleton_versions(program, prof, bias_threshold)
