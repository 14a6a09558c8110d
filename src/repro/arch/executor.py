"""Behavioral executor for the GEO ISA.

The compiler emits compact instruction streams (with hardware LOOPs); this
module *executes* them against a behavioral machine model — tracking the
cycle counter, buffer/bank states, generation phases, and near-memory
operations — and is used to validate that the analytic cycle counts the
performance simulator uses agree with an instruction-by-instruction
execution of the same program. It also gives downstream users a concrete
artifact: a program trace for any layer on any GEO configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.arch.geo import GeoArchConfig
from repro.arch.isa import Instruction, Opcode
from repro.errors import SimulationError


@dataclass
class TraceEvent:
    """One executed instruction with its timing."""

    index: int
    instruction: Instruction
    start_cycle: int
    cycles: int

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.cycles


@dataclass
class MachineState:
    """Architectural state tracked by the executor."""

    cycle: int = 0
    generation_cycles: int = 0
    stall_cycles: int = 0
    memory_cycles: int = 0
    weight_lines_loaded: int = 0
    act_lines_loaded: int = 0
    shadow_prefetches: int = 0
    outputs_drained: int = 0
    nm_vector_ops: int = 0
    pool_window: int = 1
    halted: bool = False
    trace: list[TraceEvent] = field(default_factory=list)
    #: Cycles attributed to each instruction class (opcode name), over
    #: the *executed* (loop-expanded) program. Sums to the total trace
    #: cycles; the timeline ``cycle`` differs only by the LD_SHADOW
    #: cycles that overlap generation for free.
    cycle_histogram: dict[str, int] = field(default_factory=dict)

    @property
    def trace_cycles(self) -> int:
        """Total executed-instruction cycles (no overlap discounts)."""
        return sum(self.cycle_histogram.values())


class Executor:
    """Executes GEO instruction streams.

    LOOP semantics: ``LOOP n k`` repeats the previous ``n`` instructions
    ``k`` more times (the hardware loop buffer replays them without
    refetching). Nested loops are not supported — the compiler never
    emits them, and real hardware has a single loop buffer.
    """

    def __init__(self, arch: GeoArchConfig, max_cycles: int = 1 << 40):
        self.arch = arch
        self.max_cycles = max_cycles

    def run(self, program: list[Instruction]) -> MachineState:
        state = MachineState()
        with obs.span(
            "arch.executor.run", instructions=len(program)
        ) as sp:
            expanded = self._expand_loops(program)
            hist = state.cycle_histogram
            for index, inst in enumerate(expanded):
                if state.halted:
                    raise SimulationError(
                        f"instruction {index} ({inst.opcode.name}) after HALT"
                    )
                cycles = inst.cycles()
                self._apply(state, inst, cycles)
                name = inst.opcode.name
                hist[name] = hist.get(name, 0) + cycles
                state.trace.append(
                    TraceEvent(index, inst, state.cycle, cycles)
                )
                state.cycle += cycles
                if state.cycle > self.max_cycles:
                    raise SimulationError(
                        f"program exceeded {self.max_cycles} cycles"
                    )
        reg = obs.get_registry()
        # Instruction-class cycle mix, aggregated once per program so the
        # per-instruction loop stays counter-free.
        for name, cycles in state.cycle_histogram.items():
            reg.counter(f"executor.cycles.{name}", unit="cycles").add(cycles)
        reg.counter("executor.instructions").add(len(state.trace))
        reg.add_profile(
            {
                "kind": "executor_run",
                "instructions": len(state.trace),
                "cycle": state.cycle,
                "cycle_histogram": dict(state.cycle_histogram),
                "wall_s": sp.wall_s,
            }
        )
        return state

    # -- internals ----------------------------------------------------------

    def _expand_loops(self, program: list[Instruction]) -> list[Instruction]:
        expanded: list[Instruction] = []
        for inst in program:
            if inst.opcode is Opcode.LOOP:
                body_len = inst.arg0
                repeats = inst.arg1
                if body_len <= 0 or body_len > len(expanded):
                    raise SimulationError(
                        f"LOOP body length {body_len} exceeds emitted "
                        f"program ({len(expanded)} instructions)"
                    )
                body = expanded[-body_len:]
                if any(b.opcode is Opcode.LOOP for b in body):
                    raise SimulationError("nested LOOP is not supported")
                for _ in range(repeats):
                    expanded.extend(body)
            else:
                expanded.append(inst)
        return expanded

    def _apply(self, state: MachineState, inst: Instruction, cycles: int) -> None:
        op = inst.opcode
        if op is Opcode.GEN:
            state.generation_cycles += cycles
        elif op is Opcode.LD_ACT:
            state.act_lines_loaded += inst.arg0
            state.stall_cycles += cycles
        elif op is Opcode.LD_SHADOW:
            state.shadow_prefetches += inst.arg0
            # Shadow prefetch overlaps generation: zero timeline cost.
            state.cycle -= cycles
        elif op in (Opcode.LD_WGT, Opcode.LD_EXT):
            state.weight_lines_loaded += inst.arg0
            state.memory_cycles += cycles
        elif op is Opcode.DRAIN:
            state.outputs_drained += 1
        elif op in (Opcode.NM_ACC, Opcode.NM_BN):
            state.nm_vector_ops += inst.arg0
            state.memory_cycles += cycles
        elif op is Opcode.WB_ACT:
            state.memory_cycles += cycles
        elif op is Opcode.POOL_CFG:
            state.pool_window = max(inst.arg0, 1)
        elif op is Opcode.HALT:
            state.halted = True
        elif op in (Opcode.NOP, Opcode.SYNC):
            pass
        else:  # pragma: no cover - exhaustiveness guard
            raise SimulationError(f"unhandled opcode {op.name}")


def execute_layer_program(program, arch: GeoArchConfig) -> MachineState:
    """Execute one compiled :class:`~repro.arch.compiler.LayerProgram`."""
    return Executor(arch).run(program.instructions)
