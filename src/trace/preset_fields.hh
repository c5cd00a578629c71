/**
 * @file
 * Wire field lists of the workload structs (see common/wire.hh): the
 * canonical JSON order of ProgramParams and WorkloadPreset, which is
 * also the field order of a trace file's header (trace/trace_io.hh),
 * and the rules a decoded ProgramParams must meet before a program
 * can be built from it.
 */

#ifndef SHOTGUN_TRACE_PRESET_FIELDS_HH
#define SHOTGUN_TRACE_PRESET_FIELDS_HH

#include "common/wire.hh"
#include "trace/instruction.hh"
#include "trace/presets.hh"
#include "trace/program.hh"

namespace shotgun
{

inline constexpr EnumNames<WorkloadId> kWorkloadIdNames{
    workloadName, static_cast<std::size_t>(WorkloadId::NumWorkloads)};

template <typename V>
void
fields(V &v, ProgramParams &p)
{
    v("name", p.name);
    v("num_funcs", p.numFuncs);
    v("num_os_funcs", p.numOsFuncs);
    v("num_trap_handlers", p.numTrapHandlers);
    v("num_top_level", p.numTopLevel);
    v("zipf_alpha", p.zipfAlpha);
    v("os_zipf_alpha", p.osZipfAlpha);
    v("top_zipf_alpha", p.topZipfAlpha);
    v("bb_grow_prob", p.bbGrowProb);
    v("min_bb_instrs", p.minBBInstrs);
    v("max_bb_instrs", p.maxBBInstrs);
    v("func_grow_prob", p.funcGrowProb);
    v("min_bbs_per_func", p.minBBsPerFunc);
    v("max_bbs_per_func", p.maxBBsPerFunc);
    v("large_func_frac", p.largeFuncFrac);
    v("large_func_bbs", p.largeFuncBBs);
    v("cond_frac", p.condFrac);
    v("call_frac", p.callFrac);
    v("jump_frac", p.jumpFrac);
    v("trap_frac", p.trapFrac);
    v("loop_frac", p.loopFrac);
    v("pattern_frac", p.patternFrac);
    v("strong_frac", p.strongFrac);
    v("medium_frac", p.mediumFrac);
    v("min_loop_trip", p.minLoopTrip);
    v("max_loop_trip", p.maxLoopTrip);
    v("strong_prob", p.strongProb);
    v("medium_prob", p.mediumProb);
    v("weak_prob", p.weakProb);
    v("taken_bias_frac", p.takenBiasFrac);
    v("sticky_frac", p.stickyFrac);
    v("max_cond_skip", p.maxCondSkip);
    v("max_call_depth", p.maxCallDepth);
    v("max_os_call_depth", p.maxOsCallDepth);
    v("seed", p.seed);
}

/**
 * The first rule `p` breaks that the program builder or the trace
 * generator relies on, or nullptr. Each one is a crash or an abort
 * otherwise: a zero modulus (call depths), fatal() or panic() (the
 * rest).
 */
inline const char *
brokenRule(const ProgramParams &p)
{
    if (p.numTopLevel == 0)
        return "num_top_level must be at least 1";
    if (p.maxCallDepth == 0 || p.maxCallDepth > p.numFuncs)
        return "max_call_depth must be in [1, num_funcs]";
    if (p.maxOsCallDepth == 0)
        return "max_os_call_depth must be at least 1";
    if (p.numTrapHandlers > p.numOsFuncs)
        return "num_trap_handlers must not exceed num_os_funcs";
    if (p.minBBsPerFunc < 2)
        return "min_bbs_per_func must be at least 2";
    if (p.largeFuncFrac > 0.0 && p.maxBBsPerFunc > p.largeFuncBBs)
        return "large_func_bbs must be at least max_bbs_per_func";
    if (p.maxBBInstrs > kMaxBBInstrs)
        return "max_bb_instrs must fit the 5-bit size field";
    if (p.loopFrac > 0.0 && p.minLoopTrip > p.maxLoopTrip)
        return "min_loop_trip must not exceed max_loop_trip";
    if (p.condFrac > 0.0 && p.maxCondSkip == 0)
        return "max_cond_skip must be at least 1";
    return nullptr;
}

template <typename V>
void
fields(V &v, WorkloadPreset &p)
{
    v("id", p.id, kWorkloadIdNames);
    v("name", p.name);
    v.binding("trace_path", p.tracePath);
    v("load_frac", p.loadFrac);
    v("l1d_miss_rate", p.l1dMissRate);
    v("llc_data_miss_frac", p.llcDataMissFrac);
    v("background_load", p.backgroundLoad);
    v("program", p.program);
}

} // namespace shotgun

#endif // SHOTGUN_TRACE_PRESET_FIELDS_HH
