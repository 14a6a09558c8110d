"""GEO performance simulator: cycles, energy, power, throughput.

"To obtain accurate energy and latency estimates, we used a custom
performance simulator, which combines the numbers from individual modules
with a compiled code representing the given network model" (Sec. IV).
This module is that simulator: it consumes the compiled layer programs,
the block inventory with activity factors, the SRAM/HBM2 models, and the
pipelining/DVFS timing report, and produces per-component energy and
per-layer cycle breakdowns — the numbers behind Fig. 6 and Tables II/III.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.arch.blocks import AcceleratorBlocks, build_blocks
from repro.arch.compiler import LayerProgram, compile_network
from repro.arch.geo import GeoArchConfig
from repro.arch.pipeline import timing_report
from repro.models.shapes import LayerShape
from repro.scnn.config import SCConfig


@dataclass
class LayerPerf:
    """Cycle and energy result for one layer."""

    name: str
    cycles: int
    generation_cycles: int
    stall_cycles: int
    nm_cycles: int
    energy_pj: dict[str, float] = field(default_factory=dict)

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energy_pj.values())


@dataclass
class PerfReport:
    """Whole-network performance summary for one inference."""

    arch_name: str
    clock_mhz: float
    vdd: float
    layers: list[LayerPerf]
    area_mm2: dict[str, float]
    leakage_power_mw: float

    @property
    def total_cycles(self) -> int:
        return sum(l.cycles for l in self.layers)

    @property
    def latency_s(self) -> float:
        return self.total_cycles / (self.clock_mhz * 1e6)

    @property
    def frames_per_second(self) -> float:
        return 1.0 / self.latency_s

    @property
    def dynamic_energy_pj(self) -> float:
        return sum(l.total_energy_pj for l in self.layers)

    @property
    def leakage_energy_pj(self) -> float:
        return self.leakage_power_mw * 1e-3 * self.latency_s * 1e12

    @property
    def energy_per_frame_j(self) -> float:
        return (self.dynamic_energy_pj + self.leakage_energy_pj) * 1e-12

    @property
    def frames_per_joule(self) -> float:
        return 1.0 / self.energy_per_frame_j

    @property
    def power_mw(self) -> float:
        return self.energy_per_frame_j * self.frames_per_second * 1e3

    @property
    def total_area_mm2(self) -> float:
        return sum(self.area_mm2.values())

    def energy_breakdown_pj(self) -> dict[str, float]:
        """Per-component dynamic energy, summed over layers (Fig. 6)."""
        totals: dict[str, float] = {}
        for layer in self.layers:
            for component, energy in layer.energy_pj.items():
                totals[component] = totals.get(component, 0.0) + energy
        return totals


def _layer_energy(
    program: LayerProgram,
    arch: GeoArchConfig,
    blocks: AcceleratorBlocks,
    vdd: float,
) -> dict[str, float]:
    """Dynamic energy per Fig. 6 component for one layer, in pJ."""
    util = program.utilization
    gen = program.generation_cycles
    logic = blocks.logic
    energy: dict[str, float] = {}

    # Stream generation + MAC fabric run during generation cycles, gated
    # to the utilized fraction of the array. Without progressive shadow
    # buffering there is no gating during reload stalls: the LFSRs and
    # comparators keep clocking while the buffers fill — the dominant
    # energy cost of the Fig. 6 baseline.
    if arch.buffering == "parallel":
        # Stalled cycles keep the LFSRs and clock network toggling but
        # the comparator outputs are static: about half the datapath
        # activity remains.
        active = (gen + 0.5 * program.stall_cycles) * util
    else:
        active = gen * util
    for name in ("SC MAC Arrays", "Wgt. SNG", "Act. SNG", "Output Conv."):
        energy[name] = logic[name].dynamic_energy_pj(active, vdd)

    # Buffers toggle on reloads (and shadow prefetch during generation).
    act_fill_cycles = program.act_load_bytes / max(
        arch.memory_width_bits / 16, 1
    )
    energy["Act. SNG Buffers"] = logic["Act. SNG Buffers"].dynamic_energy_pj(
        act_fill_cycles, vdd
    )
    energy["Wgt. SNG Buffers"] = logic["Wgt. SNG Buffers"].dynamic_energy_pj(
        program.weight_load_cycles, vdd
    )

    if "Near-Mem Compute" in logic:
        energy["Near-Mem Compute"] = logic["Near-Mem Compute"].dynamic_energy_pj(
            program.nm_acc_cycles + program.nm_bn_cycles, vdd
        )

    # Memory access energy. Activation traffic is buffering-aware (the
    # compiler's loaded-byte count reflects progressive truncation and
    # partial-row updates); partial sums are 2 bytes.
    counts = program.counts
    act_bytes = (
        program.act_load_bytes
        + counts.output_writes
        + counts.bn_accesses
        + 2 * counts.psum_accesses
    )
    act_accesses = act_bytes / (blocks.act_memory.width_bits / 8)
    energy["Act. Memory"] = act_accesses * blocks.act_memory.access_energy_pj()
    wgt_accesses = counts.wgt_reads / (blocks.wgt_memory.width_bits / 8)
    energy["Wgt. Memory"] = wgt_accesses * blocks.wgt_memory.access_energy_pj()

    if arch.external_memory is not None and program.external_bytes:
        energy["External Memory"] = arch.external_memory.access_energy_pj(
            program.external_bytes
        )
    return energy


def simulate(
    layers: list[LayerShape],
    arch: GeoArchConfig,
    cfg: SCConfig,
) -> PerfReport:
    """Simulate one inference of ``layers`` on ``arch`` with streams
    ``cfg``. Returns the full performance report."""
    reg = obs.get_registry()
    with reg.span(
        "arch.perfsim.simulate", arch=arch.name, layers=len(layers)
    ):
        blocks = build_blocks(arch)
        timing = timing_report(arch)
        # The paper operates at 0.81 V with margin even though the recovered
        # slack would allow less; respect the configured operating point.
        vdd = max(timing.vdd, arch.vdd) if arch.pipelined else arch.vdd
        with reg.span("arch.perfsim.compile"):
            programs = compile_network(layers, arch, cfg)

        layer_reports: list[LayerPerf] = []
        for program in programs:
            cycles = program.total_cycles
            if arch.external_memory is not None and program.external_bytes:
                transfer = arch.external_memory.transfer_cycles(
                    program.external_bytes, arch.clock_mhz
                )
                # Ping-pong weight banks hide the transfer under compute;
                # only the excess shows up as stall.
                cycles += int(max(0.0, transfer - program.compute_cycles))
            perf = LayerPerf(
                name=program.layer.name,
                cycles=cycles,
                generation_cycles=program.generation_cycles,
                stall_cycles=program.stall_cycles,
                nm_cycles=program.nm_acc_cycles + program.nm_bn_cycles,
                energy_pj=_layer_energy(program, arch, blocks, vdd),
            )
            layer_reports.append(perf)
            reg.counter("perfsim.layers").add(1)
            reg.counter("perfsim.cycles", unit="cycles").add(perf.cycles)
            reg.add_profile(
                {
                    "kind": "perf_layer",
                    "arch": arch.name,
                    "name": perf.name,
                    "cycles": perf.cycles,
                    "generation_cycles": perf.generation_cycles,
                    "stall_cycles": perf.stall_cycles,
                    "nm_cycles": perf.nm_cycles,
                    "energy_pj": perf.total_energy_pj,
                    "utilization": program.utilization,
                    "instructions": len(program.instructions),
                }
            )

    return PerfReport(
        arch_name=arch.name,
        clock_mhz=arch.clock_mhz,
        vdd=vdd,
        layers=layer_reports,
        area_mm2=blocks.area_mm2(),
        leakage_power_mw=blocks.leakage_power_mw(vdd),
    )
