#include "sim/canonical.hh"

#include "prefetch/factory.hh"
#include "trace/presets.hh"

namespace shotgun
{

using json::Value;

json::Value
encodeProgramParams(const ProgramParams &p)
{
    Value v = Value::object();
    v.set("name", Value::string(p.name));
    v.set("num_funcs", Value::number(std::uint64_t{p.numFuncs}));
    v.set("num_os_funcs", Value::number(std::uint64_t{p.numOsFuncs}));
    v.set("num_trap_handlers",
          Value::number(std::uint64_t{p.numTrapHandlers}));
    v.set("num_top_level", Value::number(std::uint64_t{p.numTopLevel}));
    v.set("zipf_alpha", Value::number(p.zipfAlpha));
    v.set("os_zipf_alpha", Value::number(p.osZipfAlpha));
    v.set("top_zipf_alpha", Value::number(p.topZipfAlpha));
    v.set("bb_grow_prob", Value::number(p.bbGrowProb));
    v.set("min_bb_instrs", Value::number(std::uint64_t{p.minBBInstrs}));
    v.set("max_bb_instrs", Value::number(std::uint64_t{p.maxBBInstrs}));
    v.set("func_grow_prob", Value::number(p.funcGrowProb));
    v.set("min_bbs_per_func",
          Value::number(std::uint64_t{p.minBBsPerFunc}));
    v.set("max_bbs_per_func",
          Value::number(std::uint64_t{p.maxBBsPerFunc}));
    v.set("large_func_frac", Value::number(p.largeFuncFrac));
    v.set("large_func_bbs",
          Value::number(std::uint64_t{p.largeFuncBBs}));
    v.set("cond_frac", Value::number(p.condFrac));
    v.set("call_frac", Value::number(p.callFrac));
    v.set("jump_frac", Value::number(p.jumpFrac));
    v.set("trap_frac", Value::number(p.trapFrac));
    v.set("loop_frac", Value::number(p.loopFrac));
    v.set("pattern_frac", Value::number(p.patternFrac));
    v.set("strong_frac", Value::number(p.strongFrac));
    v.set("medium_frac", Value::number(p.mediumFrac));
    v.set("min_loop_trip", Value::number(std::uint64_t{p.minLoopTrip}));
    v.set("max_loop_trip", Value::number(std::uint64_t{p.maxLoopTrip}));
    v.set("strong_prob", Value::number(p.strongProb));
    v.set("medium_prob", Value::number(p.mediumProb));
    v.set("weak_prob", Value::number(p.weakProb));
    v.set("taken_bias_frac", Value::number(p.takenBiasFrac));
    v.set("sticky_frac", Value::number(p.stickyFrac));
    v.set("max_cond_skip", Value::number(std::uint64_t{p.maxCondSkip}));
    v.set("max_call_depth",
          Value::number(std::uint64_t{p.maxCallDepth}));
    v.set("max_os_call_depth",
          Value::number(std::uint64_t{p.maxOsCallDepth}));
    v.set("seed", Value::number(p.seed));
    return v;
}

json::Value
encodeWorkloadPreset(const WorkloadPreset &preset)
{
    Value v = Value::object();
    v.set("id", Value::string(workloadName(preset.id)));
    v.set("name", Value::string(preset.name));
    v.set("trace_path", Value::string(preset.tracePath));
    v.set("load_frac", Value::number(preset.loadFrac));
    v.set("l1d_miss_rate", Value::number(preset.l1dMissRate));
    v.set("llc_data_miss_frac",
          Value::number(preset.llcDataMissFrac));
    v.set("background_load", Value::number(preset.backgroundLoad));
    v.set("program", encodeProgramParams(preset.program));
    return v;
}

json::Value
encodeCoreParams(const CoreParams &p)
{
    Value v = Value::object();
    v.set("fetch_width", Value::number(std::uint64_t{p.fetchWidth}));
    v.set("retire_width", Value::number(std::uint64_t{p.retireWidth}));
    v.set("ftq_entries", Value::number(std::uint64_t{p.ftqEntries}));
    v.set("backend_entries",
          Value::number(std::uint64_t{p.backendEntries}));
    v.set("bpu_bb_per_cycle",
          Value::number(std::uint64_t{p.bpuBBPerCycle}));
    v.set("misfetch_penalty",
          Value::number(std::uint64_t{p.misfetchPenalty}));
    v.set("mispredict_penalty",
          Value::number(std::uint64_t{p.mispredictPenalty}));
    v.set("predecode_cycles",
          Value::number(std::uint64_t{p.predecodeCycles}));
    v.set("issue_efficiency", Value::number(p.issueEfficiency));
    v.set("ras_entries", Value::number(std::uint64_t{p.rasEntries}));
    v.set("load_frac", Value::number(p.loadFrac));
    v.set("l1d_miss_rate", Value::number(p.l1dMissRate));
    v.set("llc_data_miss_frac", Value::number(p.llcDataMissFrac));
    v.set("mem_level_parallelism",
          Value::number(p.memLevelParallelism));
    v.set("data_seed", Value::number(p.dataSeed));
    v.set("uarch_probes", Value::boolean(p.uarchProbes));
    return v;
}

json::Value
encodeSchemeConfig(const SchemeConfig &config)
{
    Value shotgun_btb = Value::object();
    shotgun_btb.set("ubtb_entries",
                    Value::number(std::uint64_t{config.shotgun.ubtbEntries}));
    shotgun_btb.set("ubtb_ways",
                    Value::number(std::uint64_t{config.shotgun.ubtbWays}));
    shotgun_btb.set("cbtb_entries",
                    Value::number(std::uint64_t{config.shotgun.cbtbEntries}));
    shotgun_btb.set("cbtb_ways",
                    Value::number(std::uint64_t{config.shotgun.cbtbWays}));
    shotgun_btb.set("rib_entries",
                    Value::number(std::uint64_t{config.shotgun.ribEntries}));
    shotgun_btb.set("rib_ways",
                    Value::number(std::uint64_t{config.shotgun.ribWays}));
    shotgun_btb.set("mode", Value::string(footprintModeName(
                                config.shotgun.mode)));
    shotgun_btb.set("dedicated_rib",
                    Value::boolean(config.shotgun.dedicatedRIB));

    Value confluence = Value::object();
    confluence.set("btb_entries",
                   Value::number(std::uint64_t{config.confluence.btbEntries}));
    confluence.set(
        "history_entries",
        Value::number(std::uint64_t{config.confluence.historyEntries}));
    confluence.set(
        "index_entries",
        Value::number(std::uint64_t{config.confluence.indexEntries}));
    confluence.set("index_ways",
                   Value::number(std::uint64_t{config.confluence.indexWays}));
    confluence.set(
        "lookahead_blocks",
        Value::number(std::uint64_t{config.confluence.lookaheadBlocks}));
    confluence.set(
        "issue_per_cycle",
        Value::number(std::uint64_t{config.confluence.issuePerCycle}));
    confluence.set("divergence_tolerance",
                   Value::number(std::uint64_t{
                       config.confluence.divergenceTolerance}));
    confluence.set(
        "resync_window",
        Value::number(std::uint64_t{config.confluence.resyncWindow}));

    Value rdip = Value::object();
    rdip.set("btb_entries",
             Value::number(std::uint64_t{config.rdip.btbEntries}));
    rdip.set("table_entries",
             Value::number(std::uint64_t{config.rdip.tableEntries}));
    rdip.set("table_ways",
             Value::number(std::uint64_t{config.rdip.tableWays}));
    rdip.set("blocks_per_entry",
             Value::number(std::uint64_t{config.rdip.blocksPerEntry}));
    rdip.set("signature_depth",
             Value::number(std::uint64_t{config.rdip.signatureDepth}));
    rdip.set("lookahead",
             Value::number(std::uint64_t{config.rdip.lookahead}));

    Value v = Value::object();
    v.set("type", Value::string(schemeTypeName(config.type)));
    v.set("conventional_entries",
          Value::number(std::uint64_t{config.conventionalEntries}));
    v.set("prefetch_buffer_entries",
          Value::number(std::uint64_t{config.prefetchBufferEntries}));
    v.set("shotgun", std::move(shotgun_btb));
    v.set("confluence", std::move(confluence));
    v.set("rdip", std::move(rdip));
    return v;
}

json::Value
encodeSimWindow(const SimWindow &window)
{
    Value v = Value::object();
    v.set("skip_instructions",
          Value::number(window.skipInstructions));
    v.set("measure_start", Value::number(window.measureStart));
    v.set("measure_end", Value::number(window.measureEnd));
    return v;
}

json::Value
encodeSimConfig(const SimConfig &config)
{
    Value v = Value::object();
    v.set("workload", encodeWorkloadPreset(config.workload));
    v.set("scheme", encodeSchemeConfig(config.scheme));
    v.set("core", encodeCoreParams(config.core));
    v.set("warmup_instructions",
          Value::number(config.warmupInstructions));
    v.set("measure_instructions",
          Value::number(config.measureInstructions));
    v.set("trace_seed", Value::number(config.traceSeed));
    v.set("window", encodeSimWindow(config.window));
    return v;
}

std::string
fingerprintHex(std::uint64_t hash)
{
    static const char kHex[] = "0123456789abcdef";
    std::string hex(16, '0');
    for (std::size_t i = hex.size(); i-- > 0; hash >>= 4)
        hex[i] = kHex[hash & 0xf];
    return hex;
}

std::string
configFingerprint(const SimConfig &config)
{
    return fingerprintHex(
        json::fnv1a64(encodeSimConfig(config).dump()));
}

} // namespace shotgun
