#include "service/codec.hh"

#include <cctype>
#include <filesystem>
#include <limits>
#include <string_view>
#include <utility>

#include "prefetch/factory.hh"
#include "trace/presets.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace service
{

namespace
{

using json::Value;

// ----------------------------------------------------- enum <-> name
//
// The *ByName() helpers in factory.cc / presets.cc call fatal() on an
// unknown name, which is right for a command line and wrong for a
// frame decoder; these lookups throw CodecError instead.

const SchemeType kSchemeTypes[] = {
    SchemeType::Baseline,   SchemeType::FDIP,  SchemeType::Boomerang,
    SchemeType::Confluence, SchemeType::Shotgun, SchemeType::RDIP,
    SchemeType::Ideal,
};

SchemeType
schemeTypeFromName(const std::string &name)
{
    for (SchemeType type : kSchemeTypes) {
        if (name == schemeTypeName(type))
            return type;
    }
    throw CodecError("unknown scheme type \"" + name + "\"");
}

const FootprintMode kFootprintModes[] = {
    FootprintMode::NoBitVector,  FootprintMode::BitVector8,
    FootprintMode::BitVector32,  FootprintMode::EntireRegion,
    FootprintMode::FiveBlocks,
};

FootprintMode
footprintModeFromName(const std::string &name)
{
    for (FootprintMode mode : kFootprintModes) {
        if (name == footprintModeName(mode))
            return mode;
    }
    throw CodecError("unknown footprint mode \"" + name + "\"");
}

WorkloadId
workloadIdFromName(const std::string &name)
{
    for (int i = 0; i < static_cast<int>(WorkloadId::NumWorkloads);
         ++i) {
        const auto id = static_cast<WorkloadId>(i);
        if (name == workloadName(id))
            return id;
    }
    throw CodecError("unknown workload id \"" + name + "\"");
}

// ------------------------------------------------------ strict reader

/**
 * Strict object access: every member must be consumed exactly once,
 * and finish() rejects members nobody asked for. This is what turns
 * "decode" into "validate": a frame with a typo'd or extra field is
 * an error, not a silently-defaulted config.
 *
 * The decoders ask for members in the order the canonical encoders
 * write them, so each lookup first tries the member after the last
 * one read and scans the object only when the input is reordered.
 */
class ObjectReader
{
  public:
    ObjectReader(const Value &v, const char *what) : what_(what)
    {
        if (!v.isObject())
            throw CodecError(std::string(what) + ": expected an object");
        members_ = &v.members();
        consumed_.assign(members_->size(), false);
    }

    const Value &get(std::string_view key)
    {
        if (const Value *v = optional(key))
            return *v;
        throw CodecError(std::string(what_) + ": missing field \"" +
                         std::string(key) + "\"");
    }

    /**
     * Optional member: consumed when present, nullptr when absent.
     * For fields newer encoders emit conditionally (e.g. "uarch"),
     * keeping older payloads decodable while finish() still rejects
     * genuinely unknown fields.
     */
    const Value *optional(std::string_view key)
    {
        const auto &members = *members_;
        std::size_t i = next_;
        if (i >= members.size() || members[i].first != key) {
            i = 0;
            while (i < members.size() && members[i].first != key)
                ++i;
            if (i == members.size())
                return nullptr;
        }
        consumed_[i] = true;
        next_ = i + 1;
        return &members[i].second;
    }

    std::string str(std::string_view key) { return get(key).asString(); }
    bool boolean(std::string_view key) { return get(key).asBool(); }
    double number(std::string_view key) { return get(key).asDouble(); }
    std::uint64_t u64(std::string_view key) { return get(key).asU64(); }

    template <typename T>
    T integer(std::string_view key)
    {
        const std::uint64_t v = u64(key);
        if (v > std::numeric_limits<T>::max())
            throw CodecError(std::string(what_) + ": field \"" +
                             std::string(key) + "\" out of range");
        return static_cast<T>(v);
    }

    void finish()
    {
        const auto &members = *members_;
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (!consumed_[i])
                throw CodecError(std::string(what_) +
                                 ": unknown field \"" +
                                 members[i].first + "\"");
        }
    }

  private:
    const char *what_;
    const std::vector<Value::Member> *members_ = nullptr;
    std::vector<bool> consumed_;
    std::size_t next_ = 0; ///< Canonical position of the next member.
};

} // namespace

// -------------------------------------------------------------- encode

json::Value
encodeUarchBreakdown(const obs::UarchBreakdown &u)
{
    Value lifecycle = Value::array();
    for (std::size_t i = 0; i < obs::kNumUarchStructures; ++i) {
        const obs::PrefetchLifecycle &l = u.lifecycle[i];
        Value entry = Value::object();
        entry.set("structure",
                  Value::string(obs::uarchStructureName(
                      static_cast<obs::UarchStructure>(i))));
        entry.set("issued", Value::number(l.issued));
        entry.set("timely", Value::number(l.timely));
        entry.set("late", Value::number(l.late));
        entry.set("unused_evicted", Value::number(l.unusedEvicted));
        entry.set("polluting", Value::number(l.polluting));
        lifecycle.push(std::move(entry));
    }

    const auto encode_sites =
        [](const std::vector<obs::SiteCount> &sites) {
            Value arr = Value::array();
            for (const obs::SiteCount &s : sites) {
                Value site = Value::object();
                site.set("pc", Value::number(std::uint64_t{s.pc}));
                site.set("count", Value::number(s.count));
                site.set("error", Value::number(s.error));
                arr.push(std::move(site));
            }
            return arr;
        };

    Value v = Value::object();
    v.set("enabled", Value::boolean(u.enabled));
    v.set("active_cycles", Value::number(u.activeCycles));
    v.set("stall_icache_miss", Value::number(u.stallICacheMiss));
    v.set("stall_btb_miss", Value::number(u.stallBTBMiss));
    v.set("stall_redirect", Value::number(u.stallRedirect));
    v.set("stall_ftq_empty", Value::number(u.stallFTQEmpty));
    v.set("stall_backend_pressure",
          Value::number(u.stallBackendPressure));
    v.set("stall_prefetch_in_flight",
          Value::number(u.stallPrefetchInFlight));
    v.set("lifecycle", std::move(lifecycle));
    v.set("btb_miss_sites", encode_sites(u.btbMissSites));
    v.set("l1i_miss_sites", encode_sites(u.l1iMissSites));
    return v;
}

obs::UarchBreakdown
decodeUarchBreakdown(const json::Value &v)
{
    ObjectReader r(v, "uarch");
    obs::UarchBreakdown u;
    u.enabled = r.boolean("enabled");
    u.activeCycles = r.u64("active_cycles");
    u.stallICacheMiss = r.u64("stall_icache_miss");
    u.stallBTBMiss = r.u64("stall_btb_miss");
    u.stallRedirect = r.u64("stall_redirect");
    u.stallFTQEmpty = r.u64("stall_ftq_empty");
    u.stallBackendPressure = r.u64("stall_backend_pressure");
    u.stallPrefetchInFlight = r.u64("stall_prefetch_in_flight");

    const Value &lifecycle = r.get("lifecycle");
    if (!lifecycle.isArray() ||
        lifecycle.items().size() != obs::kNumUarchStructures)
        throw CodecError("uarch.lifecycle: expected an array of " +
                         std::to_string(obs::kNumUarchStructures) +
                         " structures");
    for (std::size_t i = 0; i < obs::kNumUarchStructures; ++i) {
        ObjectReader lr(lifecycle.items()[i], "uarch.lifecycle");
        const std::string structure = lr.str("structure");
        if (structure !=
            obs::uarchStructureName(
                static_cast<obs::UarchStructure>(i)))
            throw CodecError("uarch.lifecycle: structure \"" +
                             structure + "\" out of order");
        obs::PrefetchLifecycle &l = u.lifecycle[i];
        l.issued = lr.u64("issued");
        l.timely = lr.u64("timely");
        l.late = lr.u64("late");
        l.unusedEvicted = lr.u64("unused_evicted");
        l.polluting = lr.u64("polluting");
        lr.finish();
    }

    const auto decode_sites = [](const Value &arr, const char *what) {
        if (!arr.isArray())
            throw CodecError(std::string(what) +
                             ": expected an array");
        std::vector<obs::SiteCount> sites;
        sites.reserve(arr.items().size());
        for (const Value &e : arr.items()) {
            ObjectReader sr(e, what);
            obs::SiteCount s;
            s.pc = sr.u64("pc");
            s.count = sr.u64("count");
            s.error = sr.u64("error");
            sr.finish();
            sites.push_back(s);
        }
        return sites;
    };
    u.btbMissSites =
        decode_sites(r.get("btb_miss_sites"), "uarch.btb_miss_sites");
    u.l1iMissSites =
        decode_sites(r.get("l1i_miss_sites"), "uarch.l1i_miss_sites");
    r.finish();
    return u;
}

json::Value
encodeSimResult(const SimResult &result)
{
    // Key names match ResultSink's JSON emission where the two
    // overlap, so downstream tooling parses either stream uniformly.
    Value stalls = Value::object();
    stalls.set("icache", Value::number(result.stalls.icache));
    stalls.set("btb_resolve", Value::number(result.stalls.btbResolve));
    stalls.set("misfetch", Value::number(result.stalls.misfetch));
    stalls.set("mispredict", Value::number(result.stalls.mispredict));
    stalls.set("other", Value::number(result.stalls.other));

    Value v = Value::object();
    v.set("workload", Value::string(result.workload));
    v.set("scheme", Value::string(result.scheme));
    v.set("instructions", Value::number(result.instructions));
    v.set("cycles", Value::number(std::uint64_t{result.cycles}));
    v.set("ipc", Value::number(result.ipc));
    v.set("btb_mpki", Value::number(result.btbMPKI));
    v.set("l1i_mpki", Value::number(result.l1iMPKI));
    v.set("mispredicts_per_ki",
          Value::number(result.mispredictsPerKI));
    v.set("stalls", std::move(stalls));
    v.set("fe_stall_cycles", Value::number(result.frontEndStallCycles));
    v.set("prefetch_accuracy", Value::number(result.prefetchAccuracy));
    v.set("avg_l1d_fill_cycles",
          Value::number(result.avgL1DFillCycles));
    v.set("prefetches_issued",
          Value::number(result.prefetchesIssued));
    v.set("storage_bits", Value::number(result.schemeStorageBits));
    // Optional member: emitted only for probed runs so probe-free
    // results keep their historical byte-exact encoding.
    if (result.uarch.enabled)
        v.set("uarch", encodeUarchBreakdown(result.uarch));
    return v;
}

json::Value
encodeStatsDelta(const StatsDelta &delta)
{
    Value stalls = Value::object();
    stalls.set("icache", Value::number(delta.stalls.icache));
    stalls.set("btb_resolve", Value::number(delta.stalls.btbResolve));
    stalls.set("misfetch", Value::number(delta.stalls.misfetch));
    stalls.set("mispredict", Value::number(delta.stalls.mispredict));
    stalls.set("other", Value::number(delta.stalls.other));

    Value v = Value::object();
    v.set("instructions", Value::number(delta.instructions));
    v.set("cycles", Value::number(delta.cycles));
    v.set("stalls", std::move(stalls));
    v.set("btb_misses", Value::number(delta.btbMisses));
    v.set("mispredicts", Value::number(delta.mispredicts));
    v.set("misfetches", Value::number(delta.misfetches));
    v.set("l1i_demand_misses",
          Value::number(delta.l1iDemandMisses));
    v.set("prefetches_issued",
          Value::number(delta.prefetchesIssued));
    v.set("useful_prefetches",
          Value::number(delta.usefulPrefetches));
    v.set("late_useful_prefetches",
          Value::number(delta.lateUsefulPrefetches));
    // An exact integer (sum of Cycle-valued samples); the canonical
    // double formatting round-trips it bit for bit.
    v.set("l1d_fill_sum", Value::number(delta.l1dFillSum));
    v.set("l1d_fill_count", Value::number(delta.l1dFillCount));
    if (delta.uarch.enabled)
        v.set("uarch", encodeUarchBreakdown(delta.uarch));
    return v;
}

// -------------------------------------------------------------- decode

ProgramParams
decodeProgramParams(const json::Value &v)
{
    ObjectReader r(v, "program");
    ProgramParams p;
    p.name = r.str("name");
    p.numFuncs = r.integer<std::uint32_t>("num_funcs");
    p.numOsFuncs = r.integer<std::uint32_t>("num_os_funcs");
    p.numTrapHandlers = r.integer<std::uint32_t>("num_trap_handlers");
    p.numTopLevel = r.integer<std::uint32_t>("num_top_level");
    p.zipfAlpha = r.number("zipf_alpha");
    p.osZipfAlpha = r.number("os_zipf_alpha");
    p.topZipfAlpha = r.number("top_zipf_alpha");
    p.bbGrowProb = r.number("bb_grow_prob");
    p.minBBInstrs = r.integer<std::uint32_t>("min_bb_instrs");
    p.maxBBInstrs = r.integer<std::uint32_t>("max_bb_instrs");
    p.funcGrowProb = r.number("func_grow_prob");
    p.minBBsPerFunc = r.integer<std::uint32_t>("min_bbs_per_func");
    p.maxBBsPerFunc = r.integer<std::uint32_t>("max_bbs_per_func");
    p.largeFuncFrac = r.number("large_func_frac");
    p.largeFuncBBs = r.integer<std::uint32_t>("large_func_bbs");
    p.condFrac = r.number("cond_frac");
    p.callFrac = r.number("call_frac");
    p.jumpFrac = r.number("jump_frac");
    p.trapFrac = r.number("trap_frac");
    p.loopFrac = r.number("loop_frac");
    p.patternFrac = r.number("pattern_frac");
    p.strongFrac = r.number("strong_frac");
    p.mediumFrac = r.number("medium_frac");
    p.minLoopTrip = r.integer<std::uint32_t>("min_loop_trip");
    p.maxLoopTrip = r.integer<std::uint32_t>("max_loop_trip");
    p.strongProb = r.number("strong_prob");
    p.mediumProb = r.number("medium_prob");
    p.weakProb = r.number("weak_prob");
    p.takenBiasFrac = r.number("taken_bias_frac");
    p.stickyFrac = r.number("sticky_frac");
    p.maxCondSkip = r.integer<std::uint32_t>("max_cond_skip");
    p.maxCallDepth = r.integer<std::uint32_t>("max_call_depth");
    p.maxOsCallDepth = r.integer<std::uint32_t>("max_os_call_depth");
    p.seed = r.u64("seed");
    r.finish();
    return p;
}

WorkloadPreset
decodeWorkloadPreset(const json::Value &v)
{
    if (v.isString()) {
        // Compact form: a preset name or trace:<path>[:name] spec,
        // validated here because presetByName() is fatal on errors.
        const std::string &spec = v.asString();
        if (isTraceWorkloadSpec(spec)) {
            // Resolve the path with the same precedence rules
            // presetFromTraceSpec (presets.cc) will apply -- the
            // whole remainder when such a file exists, otherwise the
            // part before the last ':' -- then require that exact
            // file to pass the non-fatal header probe. Probing a
            // different candidate than presetByName() would open
            // would let a bad file through to its fatal() paths.
            const std::string rest = spec.substr(6);
            if (rest.empty())
                throw CodecError("workload spec \"" + spec +
                                 "\": expected trace:<path>[:name]");
            std::string path = rest;
            std::error_code ec;
            if (!std::filesystem::exists(path, ec)) {
                const auto colon = rest.rfind(':');
                if (colon != std::string::npos)
                    path = rest.substr(0, colon);
            }
            std::string error;
            if (!probeTraceFile(path, 0, error))
                throw CodecError("workload spec \"" + spec + "\": " +
                                 error);
            return presetByName(spec);
        }
        std::string lower(spec);
        for (char &c : lower)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        (void)workloadIdFromName(lower); // throws when unknown
        return presetByName(lower);
    }

    ObjectReader r(v, "workload");
    WorkloadPreset preset;
    preset.id = workloadIdFromName(r.str("id"));
    preset.name = r.str("name");
    preset.tracePath = r.str("trace_path");
    preset.loadFrac = r.number("load_frac");
    preset.l1dMissRate = r.number("l1d_miss_rate");
    preset.llcDataMissFrac = r.number("llc_data_miss_frac");
    preset.backgroundLoad = r.number("background_load");
    preset.program = decodeProgramParams(r.get("program"));
    r.finish();
    return preset;
}

CoreParams
decodeCoreParams(const json::Value &v)
{
    ObjectReader r(v, "core");
    CoreParams p;
    p.fetchWidth = r.integer<unsigned>("fetch_width");
    p.retireWidth = r.integer<unsigned>("retire_width");
    p.ftqEntries = r.integer<unsigned>("ftq_entries");
    p.backendEntries = r.integer<unsigned>("backend_entries");
    p.bpuBBPerCycle = r.integer<unsigned>("bpu_bb_per_cycle");
    p.misfetchPenalty = r.integer<unsigned>("misfetch_penalty");
    p.mispredictPenalty = r.integer<unsigned>("mispredict_penalty");
    p.predecodeCycles = r.integer<unsigned>("predecode_cycles");
    p.issueEfficiency = r.number("issue_efficiency");
    p.rasEntries = r.integer<unsigned>("ras_entries");
    p.loadFrac = r.number("load_frac");
    p.l1dMissRate = r.number("l1d_miss_rate");
    p.llcDataMissFrac = r.number("llc_data_miss_frac");
    p.memLevelParallelism = r.number("mem_level_parallelism");
    p.dataSeed = r.u64("data_seed");
    p.uarchProbes = r.boolean("uarch_probes");
    r.finish();
    return p;
}

SchemeConfig
decodeSchemeConfig(const json::Value &v)
{
    ObjectReader r(v, "scheme");
    SchemeConfig config;
    config.type = schemeTypeFromName(r.str("type"));
    config.conventionalEntries =
        r.integer<std::size_t>("conventional_entries");
    config.prefetchBufferEntries =
        r.integer<std::size_t>("prefetch_buffer_entries");

    ObjectReader sg(r.get("shotgun"), "scheme.shotgun");
    config.shotgun.ubtbEntries = sg.integer<std::size_t>("ubtb_entries");
    config.shotgun.ubtbWays = sg.integer<std::size_t>("ubtb_ways");
    config.shotgun.cbtbEntries = sg.integer<std::size_t>("cbtb_entries");
    config.shotgun.cbtbWays = sg.integer<std::size_t>("cbtb_ways");
    config.shotgun.ribEntries = sg.integer<std::size_t>("rib_entries");
    config.shotgun.ribWays = sg.integer<std::size_t>("rib_ways");
    config.shotgun.mode = footprintModeFromName(sg.str("mode"));
    config.shotgun.dedicatedRIB = sg.boolean("dedicated_rib");
    sg.finish();

    ObjectReader cf(r.get("confluence"), "scheme.confluence");
    config.confluence.btbEntries =
        cf.integer<std::size_t>("btb_entries");
    config.confluence.historyEntries =
        cf.integer<std::size_t>("history_entries");
    config.confluence.indexEntries =
        cf.integer<std::size_t>("index_entries");
    config.confluence.indexWays = cf.integer<std::size_t>("index_ways");
    config.confluence.lookaheadBlocks =
        cf.integer<unsigned>("lookahead_blocks");
    config.confluence.issuePerCycle =
        cf.integer<unsigned>("issue_per_cycle");
    config.confluence.divergenceTolerance =
        cf.integer<unsigned>("divergence_tolerance");
    config.confluence.resyncWindow =
        cf.integer<unsigned>("resync_window");
    cf.finish();

    ObjectReader rd(r.get("rdip"), "scheme.rdip");
    config.rdip.btbEntries = rd.integer<std::size_t>("btb_entries");
    config.rdip.tableEntries = rd.integer<std::size_t>("table_entries");
    config.rdip.tableWays = rd.integer<std::size_t>("table_ways");
    config.rdip.blocksPerEntry =
        rd.integer<unsigned>("blocks_per_entry");
    config.rdip.signatureDepth =
        rd.integer<unsigned>("signature_depth");
    config.rdip.lookahead = rd.integer<unsigned>("lookahead");
    rd.finish();

    r.finish();
    return config;
}

SimWindow
decodeSimWindow(const json::Value &v)
{
    ObjectReader r(v, "window");
    SimWindow window;
    window.skipInstructions = r.u64("skip_instructions");
    window.measureStart = r.u64("measure_start");
    window.measureEnd = r.u64("measure_end");
    r.finish();
    // Semantic validation here, at the frame boundary: what would be
    // fatal() inside runSimulation() must reject the frame instead.
    if (window.enabled() && window.measureStart >= window.measureEnd)
        throw CodecError("window: empty measure range [" +
                         std::to_string(window.measureStart) + ", " +
                         std::to_string(window.measureEnd) + ")");
    if (!window.enabled() &&
        (window.skipInstructions != 0 || window.measureStart != 0))
        throw CodecError(
            "window: skip_instructions/measure_start without a "
            "window (set measure_end)");
    return window;
}

SimConfig
decodeSimConfig(const json::Value &v)
{
    ObjectReader r(v, "config");
    SimConfig config;
    config.workload = decodeWorkloadPreset(r.get("workload"));
    config.scheme = decodeSchemeConfig(r.get("scheme"));
    config.core = decodeCoreParams(r.get("core"));
    config.warmupInstructions = r.u64("warmup_instructions");
    config.measureInstructions = r.u64("measure_instructions");
    config.traceSeed = r.u64("trace_seed");
    config.window = decodeSimWindow(r.get("window"));
    if (config.window.enabled() &&
        config.window.measureEnd > config.measureInstructions)
        throw CodecError(
            "window: measure_end " +
            std::to_string(config.window.measureEnd) +
            " exceeds measure_instructions " +
            std::to_string(config.measureInstructions));
    r.finish();
    return config;
}

SimResult
decodeSimResult(const json::Value &v)
{
    ObjectReader r(v, "result");
    SimResult result;
    result.workload = r.str("workload");
    result.scheme = r.str("scheme");
    result.instructions = r.u64("instructions");
    result.cycles = r.u64("cycles");
    result.ipc = r.number("ipc");
    result.btbMPKI = r.number("btb_mpki");
    result.l1iMPKI = r.number("l1i_mpki");
    result.mispredictsPerKI = r.number("mispredicts_per_ki");

    ObjectReader st(r.get("stalls"), "result.stalls");
    result.stalls.icache = st.u64("icache");
    result.stalls.btbResolve = st.u64("btb_resolve");
    result.stalls.misfetch = st.u64("misfetch");
    result.stalls.mispredict = st.u64("mispredict");
    result.stalls.other = st.u64("other");
    st.finish();

    result.frontEndStallCycles = r.u64("fe_stall_cycles");
    result.prefetchAccuracy = r.number("prefetch_accuracy");
    result.avgL1DFillCycles = r.number("avg_l1d_fill_cycles");
    result.prefetchesIssued = r.u64("prefetches_issued");
    result.schemeStorageBits = r.u64("storage_bits");
    if (const Value *uarch = r.optional("uarch"))
        result.uarch = decodeUarchBreakdown(*uarch);
    r.finish();
    return result;
}

StatsDelta
decodeStatsDelta(const json::Value &v)
{
    ObjectReader r(v, "delta");
    StatsDelta delta;
    delta.instructions = r.u64("instructions");
    delta.cycles = r.u64("cycles");

    ObjectReader st(r.get("stalls"), "delta.stalls");
    delta.stalls.icache = st.u64("icache");
    delta.stalls.btbResolve = st.u64("btb_resolve");
    delta.stalls.misfetch = st.u64("misfetch");
    delta.stalls.mispredict = st.u64("mispredict");
    delta.stalls.other = st.u64("other");
    st.finish();

    delta.btbMisses = r.u64("btb_misses");
    delta.mispredicts = r.u64("mispredicts");
    delta.misfetches = r.u64("misfetches");
    delta.l1iDemandMisses = r.u64("l1i_demand_misses");
    delta.prefetchesIssued = r.u64("prefetches_issued");
    delta.usefulPrefetches = r.u64("useful_prefetches");
    delta.lateUsefulPrefetches = r.u64("late_useful_prefetches");
    delta.l1dFillSum = r.number("l1d_fill_sum");
    delta.l1dFillCount = r.u64("l1d_fill_count");
    if (const Value *uarch = r.optional("uarch"))
        delta.uarch = decodeUarchBreakdown(*uarch);
    r.finish();
    return delta;
}

// ---------------------------------------------------- trace validation

bool
probeTraceFile(const std::string &path,
               std::uint64_t needed_instructions, std::string &error,
               TraceInfo *info)
{
    TraceInfo parsed;
    if (!tryReadTraceInfo(path, parsed, error))
        return false;
    if (parsed.instructions < needed_instructions) {
        error = "trace '" + path + "' holds " +
                std::to_string(parsed.instructions) +
                " instructions but the run needs " +
                std::to_string(needed_instructions) +
                "; record a longer trace";
        return false;
    }
    if (info != nullptr)
        *info = std::move(parsed);
    return true;
}

} // namespace service
} // namespace shotgun
