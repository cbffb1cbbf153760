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

Each piece says in one field whether it holds anything: a filter is
``armed`` from an insert until it is cleared, and a scoreboard is ``clean``
while no bit is set.  The engine reads these to leave an idle unit alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .uisa import NUM_REGS

BLOOM_BITS = 1024
SLOW_THRESHOLD = 20     # cycles dispatch-to-complete before a pc counts as slow
TRAIN_ITERATIONS = 8    # loop iterations during which the filter trains


def _bloom_positions(pc: int) -> tuple[int, int]:
    # two cheap independent mixes; python's hash() is salted for str but we
    # want cross-run determinism, so mix explicitly
    h1 = (pc * 2654435761) & 0xFFFFFFFF
    h2 = (pc * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    return (h1 ^ (h1 >> 15)) % BLOOM_BITS, (h2 ^ (h2 >> 13)) % BLOOM_BITS


class SlowInstructionFilter:
    """Bloom filter over slow pcs; deletions tracked exactly on the side."""

    def __init__(self):
        self.array = bytearray(BLOOM_BITS)
        self.deleted: set[int] = set()
        self._positions: dict[int, tuple[int, int]] = {}   # pc -> bit positions
        self.armed = False      # an insert since the last clear

    def insert(self, pc: int) -> None:
        for pos in self._positions.setdefault(pc, _bloom_positions(pc)):
            self.array[pos] = 1
        self.deleted.discard(pc)
        self.armed = True

    def query(self, pc: int) -> bool:
        if not self.armed or pc in self.deleted:
            return False
        pos = self._positions.get(pc)
        if pos is None:
            pos = self._positions[pc] = _bloom_positions(pc)
        array = self.array
        return array[pos[0]] != 0 and array[pos[1]] != 0

    def delete(self, pc: int) -> None:
        # bloom bits cannot be cleared safely; the side set masks the pc
        self.deleted.add(pc)

    def clear(self) -> None:
        self.array = bytearray(BLOOM_BITS)
        self.deleted.clear()
        self.armed = False


ALU_CLASS = ("ALU", "ALUI", "MUL")


class Scoreboard:
    """Validated-value bits, one per architectural register.

    Decode rule: a predicted ALU instruction marks its destination validated
    and can skip execution entirely when all its sources are validated too
    (the look-ahead thread already computed the same function of the same
    values).  Everything else, loads included, clears its destination bit.
    """

    def __init__(self):
        self.bits = [False] * NUM_REGS
        self.clean = True       # no bit set; apply without a prediction is a no-op

    def reset(self) -> None:
        self.bits[:] = [False] * len(self.bits)
        self.clean = True

    def apply(self, opcode: str, dst: int | None, srcs,
              has_prediction: bool) -> str:
        """Process one decoded instruction; returns skip/validate/normal."""
        bits = self.bits
        if has_prediction and opcode in ALU_CLASS:
            action = "skip"
            for r in srcs:
                if not bits[r]:
                    action = "validate"
                    break
            bits[dst] = True
            self.clean = False
            return action
        if dst is not None:
            bits[dst] = False
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

    def __init__(self):
        self.sif = SlowInstructionFilter()
        self.scoreboard = Scoreboard()
        self.counters = ReuseCounters()

    def train(self, pc: int, latency: int, loop_iteration: int | None) -> None:
        """Observe one committed main-thread instruction during training."""
        if loop_iteration is None or loop_iteration >= TRAIN_ITERATIONS:
            return
        if latency >= SLOW_THRESHOLD:
            self.sif.insert(pc)

    def should_emit(self, pc: int) -> bool:
        return self.sif.query(pc)

    def on_mispredict(self, pc: int) -> None:
        self.counters.mispredicted += 1
        self.sif.delete(pc)
