"""Value reuse across the two threads.

The look-ahead thread commits real values; for instructions known to be slow
on the main thread, those values travel down as footnotes and the main thread
treats them as value predictions.  Two pieces live here:

  * SlowInstructionFilter: a small bloom filter (plus an exact deletion set)
    remembering which pcs were observed slow during the training window.
  * Scoreboard: per-register "validated" bits on the main-thread side.  An
    ALU-class instruction whose sources are all backed by validated
    predictions can skip execution entirely, which is where the win beyond
    plain latency hiding comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

BLOOM_BITS = 1024
BLOOM_HASHES = 2
SLOW_THRESHOLD = 20     # cycles dispatch-to-complete before a pc counts as slow
TRAIN_ITERATIONS = 8    # loop iterations during which the filter trains
NUM_REGS = 64


def _bloom_positions(pc: int) -> tuple[int, int]:
    # two cheap independent mixes; python's hash() is salted for str but we
    # want cross-run determinism, so mix explicitly
    h1 = (pc * 2654435761) & 0xFFFFFFFF
    h2 = (pc * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    return (h1 ^ (h1 >> 15)) % BLOOM_BITS, (h2 ^ (h2 >> 13)) % BLOOM_BITS


class SlowInstructionFilter:
    """Bloom filter over slow pcs; deletions tracked exactly on the side."""

    def __init__(self, bits: int = BLOOM_BITS):
        self.bits = bits
        self.array = bytearray(bits)
        self.inserted: set[int] = set()   # for stats/false-positive math only
        self.deleted: set[int] = set()

    def insert(self, pc: int) -> None:
        for pos in _bloom_positions(pc):
            self.array[pos] = 1
        self.inserted.add(pc)
        self.deleted.discard(pc)

    def query(self, pc: int) -> bool:
        if pc in self.deleted:
            return False
        return all(self.array[pos] for pos in _bloom_positions(pc))

    def delete(self, pc: int) -> None:
        # bloom bits cannot be cleared safely; the side set masks the pc
        self.deleted.add(pc)

    def clear(self) -> None:
        self.array = bytearray(self.bits)
        self.inserted.clear()
        self.deleted.clear()

    def false_positive_rate(self) -> float:
        n = len(self.inserted - self.deleted)
        inner = 1.0 - (1.0 - 1.0 / self.bits) ** (BLOOM_HASHES * n)
        return inner ** BLOOM_HASHES


ALU_CLASS = ("ALU", "ALUI", "MUL")


class Scoreboard:
    """Validated-value bits, one per architectural register.

    Decode rule: a predicted ALU instruction marks its destination validated
    and can skip execution entirely when all its sources are validated too
    (the look-ahead thread already computed the same function of the same
    values).  Everything else, loads included, clears its destination bit.
    """

    def __init__(self, nregs: int = NUM_REGS):
        self.bits = [False] * nregs

    def reset(self) -> None:
        for i in range(len(self.bits)):
            self.bits[i] = False

    def all_validated(self, srcs) -> bool:
        return all(self.bits[r] for r in srcs)

    def apply(self, opcode: str, dst: int | None, srcs,
              has_prediction: bool) -> str:
        """Process one decoded instruction; returns skip/validate/normal."""
        if has_prediction and opcode in ALU_CLASS:
            action = "skip" if self.all_validated(srcs) else "validate"
            self.bits[dst] = True
            return action
        if dst is not None:
            self.bits[dst] = False
        return "normal"


@dataclass
class ReuseCounters:
    emitted: int = 0        # footnote entries produced by the look-ahead thread
    confirmed: int = 0      # predictions that matched the main thread's value
    mispredicted: int = 0   # mismatches (cost a replay)
    skipped: int = 0        # instructions elided via the scoreboard rule
    dropped: int = 0        # predictions that never lined up with an instruction

    def to_dict(self) -> dict:
        return dict(emitted=self.emitted, confirmed=self.confirmed,
                    mispredicted=self.mispredicted, skipped=self.skipped,
                    dropped=self.dropped)


class ValueReuseUnit:
    """Glue: the filter, the scoreboard, and training-window bookkeeping."""

    def __init__(self, slow_threshold: int = SLOW_THRESHOLD,
                 train_iterations: int = TRAIN_ITERATIONS):
        self.sif = SlowInstructionFilter()
        self.scoreboard = Scoreboard()
        self.slow_threshold = slow_threshold
        self.train_iterations = train_iterations
        self.counters = ReuseCounters()

    def train(self, pc: int, latency: int, loop_iteration: int | None) -> None:
        """Observe one committed main-thread instruction during training."""
        if loop_iteration is None or loop_iteration >= self.train_iterations:
            return
        if latency >= self.slow_threshold:
            self.sif.insert(pc)

    def should_emit(self, pc: int) -> bool:
        return self.sif.query(pc)

    def on_mispredict(self, pc: int) -> None:
        self.counters.mispredicted += 1
        self.sif.delete(pc)
