/**
 * @file
 * Wire field lists of the simulation structs (see common/wire.hh):
 * one per struct, in canonical order, plus the rules a decoded config
 * must meet before the simulator can run it. The workload structs'
 * lists are in trace/preset_fields.hh.
 *
 * A rule names a value that would crash the simulator (a zero
 * modulus), stop it (fatal() or panic()) or keep it from ever
 * finishing. Rules hold for every block of a SchemeConfig whatever
 * its type, because every block is part of the config's identity.
 */

#ifndef SHOTGUN_SIM_FIELDS_HH
#define SHOTGUN_SIM_FIELDS_HH

#include "obs/uarch.hh"
#include "prefetch/factory.hh"
#include "sim/simulator.hh"
#include "trace/preset_fields.hh"

namespace shotgun
{

inline constexpr EnumNames<SchemeType> kSchemeTypeNames{
    schemeTypeName, static_cast<std::size_t>(SchemeType::Ideal) + 1};

inline constexpr EnumNames<FootprintMode> kFootprintModeNames{
    footprintModeName,
    static_cast<std::size_t>(FootprintMode::FiveBlocks) + 1};

template <typename V>
void
fields(V &v, CoreParams &p)
{
    v("fetch_width", p.fetchWidth);
    v("retire_width", p.retireWidth);
    v("ftq_entries", p.ftqEntries);
    v("backend_entries", p.backendEntries);
    v("bpu_bb_per_cycle", p.bpuBBPerCycle);
    v("misfetch_penalty", p.misfetchPenalty);
    v("mispredict_penalty", p.mispredictPenalty);
    v("predecode_cycles", p.predecodeCycles);
    v("issue_efficiency", p.issueEfficiency);
    v("ras_entries", p.rasEntries);
    v("load_frac", p.loadFrac);
    v("l1d_miss_rate", p.l1dMissRate);
    v("llc_data_miss_frac", p.llcDataMissFrac);
    v("mem_level_parallelism", p.memLevelParallelism);
    v("data_seed", p.dataSeed);
    v("uarch_probes", p.uarchProbes);
}

inline const char *
brokenRule(const CoreParams &p)
{
    if (p.fetchWidth == 0 || p.retireWidth == 0 ||
        p.backendEntries == 0 || p.bpuBBPerCycle == 0)
        return "fetch_width, retire_width, backend_entries and "
               "bpu_bb_per_cycle must be at least 1";
    if (p.ftqEntries == 0 || p.rasEntries == 0)
        return "ftq_entries and ras_entries must be at least 1";
    // The retire credit grows retire_width x issue_efficiency a cycle,
    // and a miss stalls its latency / mem_level_parallelism cycles.
    if (!(p.issueEfficiency >= 0.01))
        return "issue_efficiency must be at least 0.01 (a retire slot "
               "at least every 100 cycles)";
    if (!(p.memLevelParallelism >= 1.0))
        return "mem_level_parallelism must be at least 1 (a miss stalls "
               "at most its latency)";
    return nullptr;
}

template <typename V>
void
fields(V &v, ShotgunBTBConfig &c)
{
    v("ubtb_entries", c.ubtbEntries);
    v("ubtb_ways", c.ubtbWays);
    v("cbtb_entries", c.cbtbEntries);
    v("cbtb_ways", c.cbtbWays);
    v("rib_entries", c.ribEntries);
    v("rib_ways", c.ribWays);
    v("mode", c.mode, kFootprintModeNames);
    v("dedicated_rib", c.dedicatedRIB);
}

inline const char *
brokenRule(const ShotgunBTBConfig &c)
{
    if (c.ubtbEntries == 0 || c.cbtbEntries == 0 || c.ribEntries == 0)
        return "ubtb_entries, cbtb_entries and rib_entries must be at "
               "least 1";
    if (c.ubtbWays == 0 || c.cbtbWays == 0 || c.ribWays == 0)
        return "ubtb_ways, cbtb_ways and rib_ways must be at least 1";
    return nullptr;
}

template <typename V>
void
fields(V &v, ConfluenceParams &c)
{
    v("btb_entries", c.btbEntries);
    v("history_entries", c.historyEntries);
    v("index_entries", c.indexEntries);
    v("index_ways", c.indexWays);
    v("lookahead_blocks", c.lookaheadBlocks);
    v("issue_per_cycle", c.issuePerCycle);
    v("divergence_tolerance", c.divergenceTolerance);
    v("resync_window", c.resyncWindow);
}

inline const char *
brokenRule(const ConfluenceParams &c)
{
    if (c.btbEntries == 0 || c.historyEntries == 0)
        return "btb_entries and history_entries must be at least 1";
    if (c.indexWays == 0 || c.indexEntries < c.indexWays)
        return "index_ways must be in [1, index_entries]";
    return nullptr;
}

template <typename V>
void
fields(V &v, RdipParams &c)
{
    v("btb_entries", c.btbEntries);
    v("table_entries", c.tableEntries);
    v("table_ways", c.tableWays);
    v("blocks_per_entry", c.blocksPerEntry);
    v("signature_depth", c.signatureDepth);
    v("lookahead", c.lookahead);
}

inline const char *
brokenRule(const RdipParams &c)
{
    if (c.btbEntries == 0)
        return "btb_entries must be at least 1";
    if (c.tableWays == 0 || c.tableEntries < c.tableWays)
        return "table_ways must be in [1, table_entries]";
    return nullptr;
}

template <typename V>
void
fields(V &v, SchemeConfig &c)
{
    v("type", c.type, kSchemeTypeNames);
    v("conventional_entries", c.conventionalEntries);
    v("prefetch_buffer_entries", c.prefetchBufferEntries);
    v("shotgun", c.shotgun);
    v("confluence", c.confluence);
    v("rdip", c.rdip);
}

inline const char *
brokenRule(const SchemeConfig &c)
{
    if (c.conventionalEntries == 0 || c.prefetchBufferEntries == 0)
        return "conventional_entries and prefetch_buffer_entries must "
               "be at least 1";
    return nullptr;
}

template <typename V>
void
fields(V &v, SimWindow &w)
{
    v("skip_instructions", w.skipInstructions);
    v("measure_start", w.measureStart);
    v("measure_end", w.measureEnd);
}

/** runSimulation() would fatal() on these windows. */
inline const char *
brokenRule(const SimWindow &w)
{
    if (w.enabled() && w.measureStart >= w.measureEnd)
        return "empty measure range: measure_start must be below "
               "measure_end";
    if (!w.enabled() && (w.skipInstructions != 0 || w.measureStart != 0))
        return "skip_instructions/measure_start without a window (set "
               "measure_end)";
    return nullptr;
}

template <typename V>
void
fields(V &v, SimConfig &c)
{
    v("workload", c.workload);
    v("scheme", c.scheme);
    v("core", c.core);
    v("warmup_instructions", c.warmupInstructions);
    v("measure_instructions", c.measureInstructions);
    v("trace_seed", c.traceSeed);
    v("window", c.window);
}

inline const char *
brokenRule(const SimConfig &c)
{
    if (c.window.enabled() &&
        c.window.measureEnd > c.measureInstructions)
        return "window measure_end exceeds measure_instructions";
    return nullptr;
}

// ------------------------------------------------------------ results

template <typename V>
void
fields(V &v, Core::StallBreakdown &s)
{
    v("icache", s.icache);
    v("btb_resolve", s.btbResolve);
    v("misfetch", s.misfetch);
    v("mispredict", s.mispredict);
    v("other", s.other);
}

/**
 * Key names match ResultSink's JSON emission where the two overlap,
 * so downstream tooling parses either stream uniformly. "uarch" is
 * written only for probed runs, so probe-free results keep their
 * historical bytes.
 */
template <typename V>
void
fields(V &v, SimResult &r)
{
    v("workload", r.workload);
    v("scheme", r.scheme);
    v("instructions", r.instructions);
    v("cycles", r.cycles);
    v("ipc", r.ipc);
    v("btb_mpki", r.btbMPKI);
    v("l1i_mpki", r.l1iMPKI);
    v("mispredicts_per_ki", r.mispredictsPerKI);
    v("stalls", r.stalls);
    v("fe_stall_cycles", r.frontEndStallCycles);
    v("prefetch_accuracy", r.prefetchAccuracy);
    v("avg_l1d_fill_cycles", r.avgL1DFillCycles);
    v("prefetches_issued", r.prefetchesIssued);
    v("storage_bits", r.schemeStorageBits);
    v.optional("uarch", r.uarch, r.uarch.enabled);
}

/**
 * Raw window counters. l1d_fill_sum is an exact integer (a sum of
 * Cycle-valued samples) held in a double; "%.17g" round-trips it bit
 * for bit.
 */
template <typename V>
void
fields(V &v, StatsDelta &d)
{
    v("instructions", d.instructions);
    v("cycles", d.cycles);
    v("stalls", d.stalls);
    v("btb_misses", d.btbMisses);
    v("mispredicts", d.mispredicts);
    v("misfetches", d.misfetches);
    v("l1i_demand_misses", d.l1iDemandMisses);
    v("prefetches_issued", d.prefetchesIssued);
    v("useful_prefetches", d.usefulPrefetches);
    v("late_useful_prefetches", d.lateUsefulPrefetches);
    v("l1d_fill_sum", d.l1dFillSum);
    v("l1d_fill_count", d.l1dFillCount);
    v.optional("uarch", d.uarch, d.uarch.enabled);
}

namespace obs
{

inline constexpr EnumNames<UarchStructure> kUarchStructureNames{
    uarchStructureName, kNumUarchStructures};

template <typename V>
void
fields(V &v, PrefetchLifecycle &l)
{
    v("issued", l.issued);
    v("timely", l.timely);
    v("late", l.late);
    v("unused_evicted", l.unusedEvicted);
    v("polluting", l.polluting);
}

template <typename V>
void
fields(V &v, SiteCount &s)
{
    v("pc", s.pc);
    v("count", s.count);
    v("error", s.error);
}

template <typename V>
void
fields(V &v, UarchBreakdown &u)
{
    v("enabled", u.enabled);
    v("active_cycles", u.activeCycles);
    v("stall_icache_miss", u.stallICacheMiss);
    v("stall_btb_miss", u.stallBTBMiss);
    v("stall_redirect", u.stallRedirect);
    v("stall_ftq_empty", u.stallFTQEmpty);
    v("stall_backend_pressure", u.stallBackendPressure);
    v("stall_prefetch_in_flight", u.stallPrefetchInFlight);
    v.table("lifecycle", u.lifecycle, "structure", kUarchStructureNames);
    v("btb_miss_sites", u.btbMissSites);
    v("l1i_miss_sites", u.l1iMissSites);
}

} // namespace obs
} // namespace shotgun

#endif // SHOTGUN_SIM_FIELDS_HH
