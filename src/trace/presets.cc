#include "trace/presets.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "common/logging.hh"
#include "trace/trace_io.hh"

namespace shotgun
{

const char *
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::Nutch: return "nutch";
      case WorkloadId::Streaming: return "streaming";
      case WorkloadId::Apache: return "apache";
      case WorkloadId::Zeus: return "zeus";
      case WorkloadId::Oracle: return "oracle";
      case WorkloadId::DB2: return "db2";
      default: return "invalid";
    }
}

namespace
{

/** Common server-workload defaults; presets specialize from here. */
WorkloadPreset
baseline()
{
    WorkloadPreset p;
    p.program = ProgramParams{};
    p.program.numTopLevel = 48;
    p.program.maxCallDepth = 8;
    p.program.maxOsCallDepth = 3;
    return p;
}

} // namespace

WorkloadPreset
makePreset(WorkloadId id)
{
    WorkloadPreset p = baseline();
    p.id = id;
    p.name = workloadName(id);
    p.program.name = p.name;

    switch (id) {
      case WorkloadId::Nutch:
        // Web search: smallest instruction working set in the suite
        // (Table 1: 2.5 BTB MPKI), skewed popularity, little OS time.
        p.program.numFuncs = 1200;
        p.program.numOsFuncs = 300;
        p.program.numTrapHandlers = 24;
        p.program.zipfAlpha = 1.8125;
        p.program.stickyFrac = 0.55;
        p.program.trapFrac = 0.008;
        p.program.seed = 0x9a7c01;
        p.loadFrac = 0.28;
        p.l1dMissRate = 0.012;
        p.llcDataMissFrac = 0.20;
        p.backgroundLoad = 2.0;
        break;

      case WorkloadId::Streaming:
        // Media streaming: moderate footprint (14.5 BTB MPKI), lots
        // of kernel I/O time.
        p.program.numFuncs = 5200;
        p.program.numOsFuncs = 1400;
        p.program.numTrapHandlers = 48;
        p.program.zipfAlpha = 1.2109;
        p.program.trapFrac = 0.022;
        p.program.seed = 0x57e4a2;
        p.loadFrac = 0.32;
        p.l1dMissRate = 0.020;
        p.llcDataMissFrac = 0.25;
        p.backgroundLoad = 2.8;
        break;

      case WorkloadId::Apache:
        // SPECweb99 on Apache: large footprint (23.7 BTB MPKI).
        p.program.numFuncs = 8200;
        p.program.numOsFuncs = 1800;
        p.program.numTrapHandlers = 48;
        p.program.zipfAlpha = 1.20;
        p.program.trapFrac = 0.020;
        p.program.seed = 0xa9ac4e;
        p.loadFrac = 0.30;
        p.l1dMissRate = 0.016;
        p.llcDataMissFrac = 0.20;
        p.backgroundLoad = 2.6;
        break;

      case WorkloadId::Zeus:
        // SPECweb99 on Zeus: like Apache but a tighter code base
        // (14.6 BTB MPKI).
        p.program.numFuncs = 5400;
        p.program.numOsFuncs = 1500;
        p.program.numTrapHandlers = 48;
        p.program.zipfAlpha = 1.0172;
        p.program.trapFrac = 0.018;
        p.program.seed = 0x2e05f1;
        p.loadFrac = 0.30;
        p.l1dMissRate = 0.015;
        p.llcDataMissFrac = 0.20;
        p.backgroundLoad = 2.6;
        break;

      case WorkloadId::Oracle:
        // TPC-C on Oracle: the largest branch working set in the
        // suite (45.1 BTB MPKI); popularity is nearly flat and the
        // unconditional working set alone exceeds 1.5K entries
        // (Sec 6.1 discussion of Fig 4).
        p.program.numFuncs = 21000;
        p.program.numOsFuncs = 4200;
        p.program.numTrapHandlers = 64;
        p.program.zipfAlpha = 1.0984;
        p.program.condFrac = 0.54;
        p.program.callFrac = 0.30;
        p.program.largeFuncFrac = 0.07;
        p.program.trapFrac = 0.028;
        p.program.seed = 0x04ac1e;
        p.loadFrac = 0.34;
        p.l1dMissRate = 0.028;
        p.llcDataMissFrac = 0.30;
        p.backgroundLoad = 3.4;
        break;

      case WorkloadId::DB2:
        // TPC-C on DB2: almost as large (40.2 BTB MPKI) but slightly
        // more skewed than Oracle, matching Fig 4 where DB2's hottest
        // 2K branches cover 75% vs Oracle's 65%.
        p.program.numFuncs = 16500;
        p.program.numOsFuncs = 3600;
        p.program.numTrapHandlers = 64;
        p.program.zipfAlpha = 0.8125;
        p.program.condFrac = 0.56;
        p.program.callFrac = 0.28;
        p.program.largeFuncFrac = 0.06;
        p.program.trapFrac = 0.026;
        p.program.seed = 0xdb2db2;
        p.loadFrac = 0.34;
        p.l1dMissRate = 0.026;
        p.llcDataMissFrac = 0.28;
        p.backgroundLoad = 3.2;
        break;

      default:
        fatal("unknown workload id");
    }
    return p;
}

std::vector<WorkloadPreset>
allPresets()
{
    std::vector<WorkloadPreset> presets;
    for (int i = 0; i < static_cast<int>(WorkloadId::NumWorkloads); ++i)
        presets.push_back(makePreset(static_cast<WorkloadId>(i)));
    return presets;
}

bool
isTraceWorkloadSpec(const std::string &name)
{
    return name.rfind("trace:", 0) == 0;
}

namespace
{

/** Resolve `trace:<path>[:name]` into a trace-backed preset. */
WorkloadPreset
presetFromTraceSpec(const std::string &spec)
{
    const std::string rest = spec.substr(6);
    fatal_if(rest.empty(),
             "workload spec '%s': expected trace:<path>[:name]",
             spec.c_str());
    std::string path = rest, name;
    // Prefer the whole remainder as a path (it may contain ':');
    // otherwise the part after the last ':' is the display name.
    if (!std::filesystem::exists(path)) {
        const auto colon = rest.rfind(':');
        if (colon != std::string::npos) {
            path = rest.substr(0, colon);
            name = rest.substr(colon + 1);
        }
    }
    fatal_if(path.empty(),
             "workload spec '%s': expected trace:<path>[:name]",
             spec.c_str());
    WorkloadPreset preset = readTraceInfo(path).preset;
    if (!name.empty())
        preset.name = name;
    return preset;
}

} // namespace

WorkloadPreset
presetByName(const std::string &name)
{
    if (isTraceWorkloadSpec(name))
        return presetFromTraceSpec(name);
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (int i = 0; i < static_cast<int>(WorkloadId::NumWorkloads); ++i) {
        const auto id = static_cast<WorkloadId>(i);
        if (lower == workloadName(id))
            return makePreset(id);
    }
    // Enumerate the presets in the error instead of hardcoding them:
    // when a workload is added, the message stays correct.
    std::string known;
    for (int i = 0; i < static_cast<int>(WorkloadId::NumWorkloads); ++i) {
        if (!known.empty())
            known += ", ";
        known += workloadName(static_cast<WorkloadId>(i));
    }
    fatal("unknown workload '%s': expected one of %s, or a recorded "
          "trace via trace:<path>[:name]",
          name.c_str(), known.c_str());
}

} // namespace shotgun
