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
from .memsys import CacheConfig, serial_walk

STORE_LOAD_WINDOW = 1000
L1_SEED_THRESHOLD = 0.01
L2_SEED_THRESHOLD = 0.001
SLOW_LATENCY_CYCLES = 20
BIAS_THRESHOLD = 0.999
TRAIN_LIMIT = 200_000   # instructions of the training run
COMPILE_AFTER = 16      # starts of a run before the profile or a stream compiles it
NUM_VERSIONS = 6

EXEC_LATENCY = {"MUL": 3}  # non-memory ops default to 1 cycle


@dataclass
class PcProfile:
    exec_count: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    latency_sum: int = 0
    taken_count: int = 0
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


class _Run:
    """A straight-line run of the training walk, worked out once per start pc.

    ``body`` holds (instr, its ``PcProfile`` if it is a memory op, else
    None).  ``live_in`` holds (register, reader pc) for the reads whose
    producer comes before the run; ``pairs`` holds (producer ``PcProfile``,
    reader pc) for the reads fed inside it; ``writers`` holds (register,
    ``PcProfile``) for the run's last writer of each register.  ``branch`` is
    the ``PcProfile`` of a conditional branch that ends the run.  Once the
    run is hot, ``_compile_run`` compiles it into ``loop`` if that branch
    targets the run's own start (``_loops``), else into ``fn``; ``fed`` is
    the walk's writer generation when the run last fed its live-in reads.
    """

    __slots__ = ("body", "live_in", "pairs", "writers", "branch",
                 "count", "fn", "loop", "fed")

    def __init__(self, body, live_in, pairs, writers, branch):
        self.body = body
        self.live_in = live_in
        self.pairs = pairs
        self.writers = writers
        self.branch = branch
        self.count = 0          # executions
        self.fn = None
        self.loop = None
        self.fed = -1


def _straight_run(instrs: list[uisa.StaticInstr], profs: list[PcProfile],
                  start: int, cap: int) -> tuple[_Run, bool]:
    """The run from ``start`` to the first control instruction (inclusive),
    the instruction before HALT, or the program's last one, but at most
    ``cap`` instructions long; and whether it is whole, i.e. not cut short
    by ``cap``."""
    body = uisa.straight_line(instrs, start)
    whole = len(body) <= cap
    del body[cap:]
    live_in = {}
    pairs = {}
    writers = {}        # register -> pc of the run's last writer so far
    for ins in body:
        pc = ins.index
        for r in ins.reads:
            w = writers.get(r)
            if w is None:
                live_in[r, pc] = None
            else:
                pairs[w, pc] = None
        if ins.dst is not None:
            writers[ins.dst] = pc
    last = body[-1]
    branch = profs[last.index] if last.opcode == "BR_COND" else None
    return _Run([(ins, profs[ins.index] if ins.is_mem else None)
                 for ins in body], tuple(live_in),
                tuple((profs[w], reader) for w, reader in pairs),
                tuple((r, profs[w]) for r, w in writers.items()), branch), whole


def _loops(run: _Run) -> bool:
    """Whether ``run`` ends in a conditional branch back to its own start."""
    return (run.branch is not None
            and run.body[-1][0].target == run.body[0][0].index)


def _compile_run(run: _Run, program: uisa.StaticProgram, access):
    """One Python function that walks ``run`` as ``profile`` does: it steps
    each instruction like ``uisa.step`` (``uisa.instr_source``), sends each
    memory op through ``access`` and updates its ``PcProfile``, and sets
    ``state.pc``.  Called as ``fn(state, seq)``, with ``seq`` the walk's
    count at the run's first instruction, it returns the direction of a
    conditional branch that ends the run (else None).  An instruction that
    faults sets ``state.pc`` to itself and calls ``uisa.step`` at its own
    ``seq``, which raises the interpreter's error.

    A run that ``_loops`` compiles to a loop instead, called as
    ``fn(state, seq, limit)``: it walks the run again while its branch is
    taken and the next whole iteration ends at or before ``limit``, and
    returns ``(iterations, taken branches)``.  It holds each memory op's
    ``latency_sum``, miss counters and ``last_addr`` in locals and writes
    them back however it leaves, a fault included, so each ``PcProfile``
    holds every access made before the fault, as the plain form's do.
    """
    loops = _loops(run)
    size = len(run.body)
    at = f"seq + (n - 1) * {size} + " if loops else "seq + "
    fields = ("latency_sum", "l1_misses", "l2_misses", "last_addr")
    body, load, store = [], [], []
    free = {"step": uisa.step, "program": program, "access": access}
    for k, (ins, p) in enumerate(run.body):
        lines = uisa.instr_source(
            ins, k, [f"state.pc = {int(ins.index)}",
                     f"step(state, program, {at}{k})"])
        if loops and k == size - 1:
            del lines[1:]       # the branch's state.pc is set on the way out
        body += lines
        if p is None:
            continue
        # a compiled run has run before, so each of its memory ops has a
        # last_addr; stride_votes is never replaced, only updated
        free[f"p{k}"] = p
        free[f"votes{k}"] = p.stride_votes
        names = [f"{f}{k}" if loops else f"p{k}.{f}" for f in fields]
        lsum, l1, l2, last = names
        body += [f"lat, level = access(a{k})",
                 f"{lsum} += lat",
                 "if level != 'L1':",
                 f"    {l1} += 1",
                 "    if level != 'L2':",
                 f"        {l2} += 1",
                 f"d = a{k} - {last}",
                 f"votes{k}[d] = votes{k}.get(d, 0) + 1",
                 f"{last} = a{k}"]
        load += [f"{name} = p{k}.{f}" for name, f in zip(names, fields)]
        store += [f"p{k}.{f} = {name}" for name, f in zip(names, fields)]
    src = ["r = state.regs", "m = state.memory"]
    if loops:
        params = "state, seq, limit"
        src += [*load,
                "try:",
                f"    for n in range(1, (limit - seq) // {size} + 1):",
                *("        " + line for line in body),
                f"        if not t{k}:",
                "            break",
                "finally:",
                *("    " + line for line in store or ["pass"]),
                f"state.pc = {int(ins.target)} if t{k} else {int(ins.index) + 1}",
                f"return n, n - 1 + t{k}"]
    else:
        params = "state, seq"
        src += body
        if ins.opcode == "BR_COND":
            src.append(f"return t{k}")
        elif not ins.is_control:
            src.append(f"state.pc = {int(ins.index) + 1}")
    return uisa.build_function(params, src, free,
                               f"<run from pc {run.body[0][0].index}>")


def profile(program: uisa.StaticProgram,
            cache_config: CacheConfig | None = None) -> dict[int, PcProfile]:
    """Run a training input through the memory model; statistics per pc.
    Raises ``UisaError`` for a program that ``StaticProgram.validate``
    refuses, before it walks.

    The walk is serial: every fill is complete before the next access starts.
    Its cache is ``memsys.serial_walk``: the main thread's demand path of
    ``MemorySystem`` with no outstanding fills tracked (``mshr=0``), and no
    prefetch marks or counters, which a serial walk never reads.  With no
    fill tracked, an access's result does not depend on when it is made, nor
    on whether it is a load or a store, so the walk keeps no clock and
    passes only the address.  A non-memory instruction's latency is fixed by
    its opcode (``EXEC_LATENCY``), so its ``latency_sum`` is set from its
    ``exec_count`` after the walk; a memory instruction's is summed from the
    cache model's latencies.  Only pcs that ran are in the result.

    The walk goes one straight-line run (``_Run``) at a time.  What in a run
    does not depend on the data -- its register producers and consumers --
    is worked out when the run is first reached; each execution then steps
    its instructions, sends its memory ops through the cache, and feeds only
    its live-in reads to their producers.  Within a run, a read's producer
    is the same on every execution, so those pairs are added once, after the
    run's first walk.  The live-in reads are fed again only when a register's
    last writer has changed since the run last fed them: the walk counts
    those changes in a generation number.  Each pc's ``exec_count`` is summed
    from its runs' counts.  A run that would pass ``TRAIN_LIMIT`` is built
    anew with a cap, so the walk stops exactly at the limit.

    A run steps with ``uisa.step`` until it has run ``COMPILE_AFTER`` times;
    then ``_compile_run`` turns it into one Python function, which does the
    same work without a call and an opcode dispatch per instruction.  The
    function's stepping comes from ``uisa.instr_source``, the source form of
    ``uisa.step`` that the engine's streams compile their hot runs from too
    (the engine counts a run's starts against the same ``COMPILE_AFTER``).
    Compiling costs tens of microseconds per instruction, so a cold run
    stays on ``uisa.step``, and so does the capped last run.

    A run whose conditional branch goes back to its own start compiles to a
    loop, which walks the run again while the branch is taken and the next
    whole iteration fits before ``TRAIN_LIMIT``, with its memory ops'
    counters in locals, written back when it returns or faults.  Entering such a run from another, the walk lets it
    run one iteration, so that its writers become the last writers and its
    live-in reads are fed from them; from then on the run is ``prev``, its
    writer updates and feeding change nothing, and one call runs the rest of
    the visit.  The walk adds the call's iterations to the run's count and
    its taken branches to the branch's ``taken_count``.
    """
    program.validate()
    access = serial_walk(cache_config or CacheConfig())
    step = uisa.step
    compile_after = COMPILE_AFTER
    instrs = program.instrs
    state = uisa.ArchState.initial(program)
    profs = [PcProfile() for _ in instrs]
    # the PcProfile of the last instruction that wrote each register
    last_writer: list[PcProfile | None] = [None] * uisa.NUM_REGS
    generation = 0      # changes of last_writer so far
    prev = None         # the run that ran last
    runs: list[_Run | None] = [None] * len(instrs)      # by start pc
    built: list[_Run] = []
    limit = TRAIN_LIMIT
    seq = 0
    while seq < limit:
        pc = state.pc
        run = runs[pc]
        new = run is None or len(run.body) > limit - seq
        if new:
            if instrs[pc].opcode == "HALT":
                break
            run, whole = _straight_run(instrs, profs, pc, limit - seq)
            built.append(run)
            if whole:
                runs[pc] = run
        if run.fed != generation:
            for r, reader in run.live_in:
                w = last_writer[r]
                if w is not None:
                    w.consumer_pcs.add(reader)
            run.fed = generation
        fn = run.fn
        if fn is not None:
            taken = fn(state, seq)
            seq += len(run.body)
            run.count += 1
        elif run.loop is not None:
            # the first iteration after entering the run goes alone, so that
            # the writer bookkeeping below sees it; once the run is ``prev``,
            # that bookkeeping does nothing, and one call runs the rest
            n, taken = run.loop(state, seq,
                                limit if run is prev else seq + len(run.body))
            seq += n * len(run.body)
            run.count += n
        else:
            for _, p in run.body:
                eff_addr, _, taken = step(state, program, seq)
                seq += 1
                if p is not None:
                    lat, level = access(eff_addr)
                    p.latency_sum += lat
                    if level != "L1":
                        p.l1_misses += 1
                        if level != "L2":
                            p.l2_misses += 1
                    last = p.last_addr
                    if last is not None:
                        votes = p.stride_votes
                        d = eff_addr - last
                        votes[d] = votes.get(d, 0) + 1
                    p.last_addr = eff_addr
            run.count += 1
        if taken:       # only a conditional branch sets it
            run.branch.taken_count += taken
        if run is not prev:     # a run that repeats writes what it wrote
            for r, p in run.writers:
                if last_writer[r] is not p:
                    last_writer[r] = p
                    generation += 1
            prev = run
        if new:
            for p, reader in run.pairs:
                p.consumer_pcs.add(reader)
        if run.count == compile_after and runs[pc] is run:
            fn = _compile_run(run, program, access)
            # two slots: a plain compiled run, the walk's most frequent
            # case, is called without first testing whether it loops
            if _loops(run):
                run.loop = fn
            else:
                run.fn = fn
    for run in built:
        for ins, _ in run.body:
            profs[ins.index].exec_count += run.count
    ran = {}
    for pc, (ins, p) in enumerate(zip(instrs, profs)):
        if p.exec_count:
            if not ins.is_mem:
                p.latency_sum = p.exec_count * EXEC_LATENCY.get(ins.opcode, 1)
            ran[pc] = p
    return ran


@dataclass
class SeedVector:
    control: frozenset[int]
    l2_targets: frozenset[int]
    l1_targets: frozenset[int]
    value_reuse_targets: frozenset[int]
    t1_targets: frozenset[int]
    biased_branch_conversions: frozenset[int]


def select_seeds(program: uisa.StaticProgram,
                 prof: dict[int, PcProfile]) -> SeedVector:
    """Classify static instructions into the skeleton seed classes."""
    converted = set()
    for pc, p in prof.items():
        ins = program.instrs[pc]
        if ins.opcode == "BR_COND" and p.exec_count > 0:
            if max(p.branch_bias, 1.0 - p.branch_bias) >= BIAS_THRESHOLD:
                converted.add(pc)
    control = {i.index for i in program.instrs if i.is_control} - converted
    l1, l2, t1 = set(), set(), set()
    vr = set()
    for pc, p in prof.items():
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
    bits: frozenset[int]
    converted_branches: frozenset[int] = frozenset()

    def to_hex(self) -> str:
        return hex(sum(1 << b for b in self.bits))

    @staticmethod
    def bits_from_hex(h: str) -> frozenset[int]:
        v = int(h, 16)
        if v < 0:
            raise ValueError(f"negative mask {h}")
        return frozenset(i for i in range(v.bit_length()) if v >> i & 1)


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
                     converted_branches: frozenset[int] = frozenset()) -> SkeletonMask:
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
        for r in ins.reads:
            for d in defs_at.get(r, ()):
                if d not in included:
                    work.append(d)
        if ins.opcode == "LOAD":
            for s in _store_feeders(program, ins):
                if s not in included:
                    work.append(s)
    return SkeletonMask(frozenset(included), converted_branches)


def gen_skeleton_versions(program: uisa.StaticProgram,
                          prof: dict[int, PcProfile]) -> SkeletonSet:
    """Build the six fixed version recipes, each individually closed.

    v0: control + L1 + L2 targets (default)
    v1: v0 minus L1 targets
    v2: v0 plus value-reuse targets
    v3: v0 plus T1 targets added back
    v4: v0 with biased-branch conversion
    v5: control + L2 targets only

    v5 is the same recipe as v1 (``ctrl | l2``), so it is v1's mask, closed
    once; it is kept only so that version ids stay stable.  Strided
    (S-bit) instructions are excluded from every seed set except v3.  The
    profile also gives ``bias_dirs``, the majority direction of each branch
    that v4 converts.
    """
    seeds = select_seeds(program, prof)
    reaching = reaching_producers(program)
    s_bits = seeds.t1_targets
    ctrl = set(seeds.control) | set(seeds.biased_branch_conversions)
    l1 = seeds.l1_targets - s_bits
    l2 = seeds.l2_targets - s_bits
    vr = seeds.value_reuse_targets - s_bits

    def close(seed_set, converted=frozenset()):
        return backward_closure(program, seed_set - set(converted), reaching,
                                converted_branches=converted)

    v0_seeds = ctrl | l1 | l2
    v1 = close(ctrl | l2)
    versions = [
        close(v0_seeds),
        v1,
        close(v0_seeds | vr),
        close(v0_seeds | set(seeds.t1_targets)),
        close(v0_seeds, converted=seeds.biased_branch_conversions),
        v1,
    ]
    directions = {pc: prof[pc].branch_bias >= 0.5
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
    """Read a file ``save_skeleton`` wrote.  Raises ``UisaError`` if it is
    not JSON, lacks or spoils a field, or was built for another program
    than ``program``."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            raise uisa.UisaError(f"skeleton file is not JSON: {e}") from None
    try:
        if program is not None and doc["program_hash"] != program_hash(program):
            raise uisa.UisaError("skeleton file does not match program")
        versions = [
            SkeletonMask(SkeletonMask.bits_from_hex(h), frozenset(conv))
            for h, conv in zip(doc["versions"], doc["converted_branches"])
        ]
        directions = {int(pc): d for pc, d in doc["bias_dirs"].items()}
        return SkeletonSet(versions, frozenset(doc["s_bits"]), directions)
    except KeyError as e:
        raise uisa.UisaError(f"skeleton file has no {e.args[0]}; "
                             f"rebuild it with skel build") from None
    except (TypeError, ValueError, AttributeError) as e:
        raise uisa.UisaError(f"skeleton file is malformed: {e}") from None


def build(program: uisa.StaticProgram,
          cache_config: CacheConfig | None = None) -> SkeletonSet:
    """Profile the program and generate all skeleton versions."""
    return gen_skeleton_versions(program, profile(program, cache_config))
