#include "sim/simulator.hh"

#include <memory>
#include <string>
#include <utility>

#include "common/memo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/canonical.hh"
#include "sim/checkpoint.hh"
#include "sim/outcome_store.hh"
#include "trace/decoded_trace.hh"
#include "trace/trace_io.hh"

namespace shotgun
{

SimConfig
SimConfig::make(const WorkloadPreset &workload, SchemeType type)
{
    SimConfig config;
    config.workload = workload;
    config.scheme.type = type;
    return config;
}

std::uint64_t
SimConfig::streamInstructions() const
{
    return warmupInstructions +
           (window.enabled() ? window.measureEnd : measureInstructions);
}

bool
operator==(const SimWindow &a, const SimWindow &b)
{
    return a.measureStart == b.measureStart &&
           a.measureEnd == b.measureEnd;
}

double
speedup(const SimResult &result, const SimResult &baseline)
{
    if (baseline.ipc == 0.0)
        return 0.0;
    return result.ipc / baseline.ipc;
}

double
stallCoverage(const SimResult &result, const SimResult &baseline)
{
    if (baseline.frontEndStallCycles == 0 || baseline.instructions == 0 ||
        result.instructions == 0) {
        return 0.0;
    }
    // Normalize per instruction: runs may differ in cycle counts.
    const double base = static_cast<double>(baseline.frontEndStallCycles) /
                        static_cast<double>(baseline.instructions);
    const double mine = static_cast<double>(result.frontEndStallCycles) /
                        static_cast<double>(result.instructions);
    return 1.0 - mine / base;
}

const Program &
programFor(const WorkloadPreset &preset)
{
    // Key on the canonical encoding of every generation parameter:
    // presets sharing a name but differing in any knob get distinct
    // images. The cache computes outside its lock, so two threads
    // building *different* programs proceed in parallel while
    // duplicates wait.
    static LruMemoCache<std::string, Program> cache;
    // With no budget the cache retains every entry for the process
    // lifetime, so the reference stays valid, and the sim.programs.*
    // gauges (rendered by a daemon's status frame) only ever grow.
    return *cache.get(canonicalText(preset.program), [&preset]() {
        Program program(preset.program);
        obs::Registry &registry = obs::metrics();
        registry.gauge("sim.programs.count")->add(1);
        registry.gauge("sim.programs.static_bbs")->add(program.numBBs());
        registry.gauge("sim.programs.bytes")
            ->add(static_cast<std::int64_t>(program.footprintBytes()));
        return program;
    });
}

SimulationDelta
runSimulationDelta(const SimConfig &config)
{
    const SimWindow &window = config.window;
    fatal_if(window.enabled() &&
                 (window.measureStart >= window.measureEnd ||
                  window.measureEnd > config.measureInstructions),
             "invalid simulation window [%llu, %llu) for a "
             "%llu-instruction measure region",
             static_cast<unsigned long long>(window.measureStart),
             static_cast<unsigned long long>(window.measureEnd),
             static_cast<unsigned long long>(
                 config.measureInstructions));
    fatal_if(!window.enabled() && window.measureStart != 0,
             "simulation window measureStart without a window "
             "(set measureEnd)");

    // [measure_start, measure_end) of the measure region; the whole
    // region when no window is configured.
    const std::uint64_t measure_start =
        window.enabled() ? window.measureStart : 0;
    const std::uint64_t measure_end =
        window.enabled() ? window.measureEnd
                         : config.measureInstructions;

    const Program &program = programFor(config.workload);

    // Phase accounting: the per-phase PhaseTimers below always feed
    // the sim.phase.* registry counters (two steady-clock reads per
    // phase, negligible beside the phase itself); when the thread
    // has a TraceContext they also fill its PointTiming slot, and the
    // Spans (inert otherwise) record the lifecycle tree. None of it
    // feeds back into simulation state, so the trajectory is
    // identical with tracing on or off.
    obs::TraceContext *trace_ctx = obs::currentTraceContext();
    obs::PointTiming *point_timing =
        trace_ctx != nullptr ? trace_ctx->timing : nullptr;

    // A workload either generates its control flow live or replays a
    // recorded trace file; both feed the core through TraceSource.
    // Trace replay prefers the process-wide decoded store (one file
    // decode feeds every concurrent Core); a file whose decode would
    // blow the store budget streams through TraceFileSource instead,
    // producing the identical record sequence.
    std::unique_ptr<TraceSource> source;
    DecodedTraceCursor *cursor = nullptr;
    TraceGenerator *generator = nullptr;
    std::uint64_t control_seed = config.traceSeed;
    TraceInfo trace_info;
    const std::string &trace_path = config.workload.tracePath;
    obs::Span decode_span("decode", "sim");
    obs::PhaseTimer decode_timer(
        "sim.phase.decode_us",
        point_timing != nullptr ? &point_timing->decodeUs : nullptr);
    if (!trace_path.empty()) {
        const WorkloadPreset *recorded = nullptr;
        if (auto decoded = decodedTraces().acquire(trace_path)) {
            trace_info = decoded->info();
            auto view =
                std::make_unique<DecodedTraceCursor>(std::move(decoded));
            cursor = view.get();
            recorded = &cursor->preset();
            source = std::move(view);
        } else {
            auto replay = std::make_unique<TraceFileSource>(trace_path);
            trace_info.preset = replay->preset();
            trace_info.traceSeed = replay->traceSeed();
            trace_info.records = replay->totalRecords();
            trace_info.instructions = replay->totalInstructions();
            recorded = &replay->preset();
            source = std::move(replay);
        }
        // The file may have changed since a daemon checked it at
        // submit time, so a trace that does not fit the run fails the
        // point with a TraceError, never the process. Compare every
        // generation parameter but the display name.
        ProgramParams recorded_program = recorded->program;
        recorded_program.name = config.workload.program.name;
        if (canonicalText(recorded_program) !=
            canonicalText(config.workload.program)) {
            throw TraceError("trace '" + trace_path +
                             "' was recorded from program '" +
                             recorded->program.name +
                             "', which does not match this workload's "
                             "program parameters");
        }
        const std::uint64_t needed = config.streamInstructions();
        if (trace_info.instructions < needed) {
            throw TraceError(
                "trace '" + trace_path + "' holds " +
                std::to_string(trace_info.instructions) +
                " instructions but the run needs " +
                std::to_string(needed) + " (" +
                std::to_string(config.warmupInstructions) +
                " warm-up + " + std::to_string(measure_end) +
                " measured); record a longer trace");
        }
        // Use the recorded seed so the data-side model reproduces the
        // run the trace was captured from, bit for bit.
        control_seed = trace_info.traceSeed;
    } else {
        auto live =
            std::make_unique<TraceGenerator>(program, config.traceSeed);
        generator = live.get();
        source = std::move(live);
    }
    decode_timer.stop();
    decode_span.end();

    CoreParams core_params = config.core;
    core_params.loadFrac = config.workload.loadFrac;
    core_params.l1dMissRate = config.workload.l1dMissRate;
    core_params.llcDataMissFrac = config.workload.llcDataMissFrac;
    core_params.dataSeed =
        mix64(control_seed ^ mix64(config.workload.program.seed));

    HierarchyParams hierarchy_params;
    hierarchy_params.mesh.backgroundLoad = config.workload.backgroundLoad;

    // Stored-state reuse (sim/checkpoint.hh). A window that starts
    // where an earlier window of the same key stopped takes that
    // window's parked core and source and skips the warmup and the
    // fast-forward; otherwise a cached warmed clone is restored onto
    // a fresh source repositioned where the original's stood,
    // skipping the warmup simulation. A streaming
    // TraceFileSource has no cheap exact reposition, so it parks but
    // never restores or captures; a zero-warmup run stores nothing.
    const bool capturable = generator != nullptr || cursor != nullptr;
    std::string key;
    StoredState stored;
    if (config.warmupInstructions > 0) {
        key = checkpointKey(config,
                            trace_path.empty() ? nullptr : &trace_info);
        stored = checkpointCache().acquire(key, measure_start);
    }
    const bool resumed = stored.parked.core != nullptr;

    std::unique_ptr<Core> core;
    // Where this point's core stood in its outcome log when the point
    // took it over: the sim.outcomes.* counters count what it reads
    // from there, split into the conditionals it produced and those
    // an earlier reader left for it.
    std::uint64_t read_before = 0;
    std::uint64_t produced_before = 0;
    if (resumed || (stored.warmed != nullptr && capturable)) {
        obs::Span restore_span("restore", "sim");
        obs::PhaseTimer restore_timer(
            "sim.phase.restore_us",
            point_timing != nullptr ? &point_timing->restoreUs
                                    : nullptr);
        if (resumed) {
            source = std::move(stored.parked.source);
            core = std::move(stored.parked.core);
            obs::metrics().counter("sim.resumes")->add(1);
        } else {
            if (generator != nullptr)
                generator->restore(stored.warmed->generator);
            else
                cursor->seekToRecord(stored.warmed->cursorRecord);
            core = std::make_unique<Core>(*stored.warmed->core,
                                          source.get());
        }
        read_before = core->outcomes().branchesRead();
        produced_before = core->outcomes().branchesProduced();
    } else {
        obs::Span warmup_span("warmup", "sim");
        obs::PhaseTimer warmup_timer(
            "sim.phase.warmup_us",
            point_timing != nullptr ? &point_timing->warmupUs
                                    : nullptr);
        // Every core that replays this stream reads one outcome log
        // (sim/outcome_store.hh): TAGE and the data draws run once.
        core = std::make_unique<Core>(
            program, *source, core_params, hierarchy_params,
            config.scheme,
            outcomeLogs().acquire(
                outcomeKey(config,
                           trace_path.empty() ? nullptr : &trace_info),
                core_params));
        core->run(config.warmupInstructions);
        if (!key.empty() && capturable) {
            // Store a clone; the run continues on the original, so
            // taking the checkpoint cannot perturb its trajectory.
            checkpointCache().put(
                key, captureCheckpoint(*core, generator, cursor));
        }
    }

    obs::Span measure_span("measure", "sim");
    obs::PhaseTimer measure_timer(
        "sim.phase.measure_us",
        point_timing != nullptr ? &point_timing->measureUs : nullptr);
    // A resumed core already counts from the post-warm-up reset and
    // stands at measure_start, so its fast-forward below is a no-op.
    if (!resumed)
        core->resetStats();
    // Fast-forward to the window, then measure it as the snapshot
    // difference. Both bounds are thresholds relative to the
    // post-warm-up reset ("first cycle in which the N-th measured
    // instruction has retired"), the same points an uninterrupted
    // monolithic run passes through -- which is what makes the
    // windows of a contiguous plan partition its cycles exactly.
    core->runUntilRetired(measure_start);
    // The miss-site sketches are per-window state, not
    // snapshot-subtractable: clear them at the window boundary so the
    // end snapshot's tables cover exactly [measure_start, measure_end)
    // (uarchDelta takes the end tables verbatim). Observer-only.
    core->clearUarchSites();
    const StatsDelta begin = core->snapshotStats();
    core->runUntilRetired(measure_end);
    fatal_if(core->sourceExhausted() &&
                 core->instructionsRetired() < measure_end,
             "%s '%s' ran dry after %llu of %llu measured "
             "instructions",
             trace_path.empty() ? "workload" : "trace",
             trace_path.empty() ? config.workload.name.c_str()
                                : trace_path.c_str(),
             static_cast<unsigned long long>(
                 core->instructionsRetired()),
             static_cast<unsigned long long>(measure_end));
    const StatsDelta end = core->snapshotStats();
    const std::uint64_t measure_us = measure_timer.stop();
    measure_span.end();
    obs::metrics().counter("sim.points")->add(1);
    const std::uint64_t produced =
        core->outcomes().branchesProduced() - produced_before;
    obs::metrics().counter("sim.outcomes.produced")->add(produced);
    obs::metrics()
        .counter("sim.outcomes.reused")
        ->add(core->outcomes().branchesRead() - read_before - produced);
    // Per-point measure-time distribution: the percentile source for
    // metrics snapshots and the fleet heartbeat's p50/p95/p99.
    obs::metrics()
        .histogram("sim.phase.measure_us_hist",
                   {100, 300, 1000, 3000, 10000, 30000, 100000,
                    300000, 1000000, 3000000, 10000000})
        ->record(measure_us);

    SimulationDelta out;
    out.workload = config.workload.name;
    out.scheme = core->scheme().name();
    out.schemeStorageBits = core->scheme().storageBits();
    out.stats = deltaBetween(begin, end);
    if (!key.empty() && window.enabled() &&
        measure_end < config.measureInstructions) {
        // Not the run's last window: park the live core for the window
        // that starts here. Moved, not cloned -- this run is done
        // with it.
        checkpointCache().park(
            key, measure_end, parkCore(std::move(core), std::move(source)));
    }
    return out;
}

SimResult
runSimulation(const SimConfig &config)
{
    const SimulationDelta delta = runSimulationDelta(config);
    return finalizeResult(delta.workload, delta.scheme,
                          delta.schemeStorageBits, delta.stats);
}

SimResult
baselineFor(const WorkloadPreset &preset, std::uint64_t warmup,
            std::uint64_t measure, std::uint64_t trace_seed)
{
    SimConfig config = SimConfig::make(preset, SchemeType::Baseline);
    config.warmupInstructions = warmup;
    config.measureInstructions = measure;
    config.traceSeed = trace_seed;
    return runSimulation(config);
}

bool
operator==(const Core::StallBreakdown &a, const Core::StallBreakdown &b)
{
    return a.icache == b.icache && a.btbResolve == b.btbResolve &&
           a.misfetch == b.misfetch && a.mispredict == b.mispredict &&
           a.other == b.other;
}

bool
operator==(const SimResult &a, const SimResult &b)
{
    return a.workload == b.workload && a.scheme == b.scheme &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           a.ipc == b.ipc && a.btbMPKI == b.btbMPKI &&
           a.l1iMPKI == b.l1iMPKI &&
           a.mispredictsPerKI == b.mispredictsPerKI &&
           a.stalls == b.stalls &&
           a.frontEndStallCycles == b.frontEndStallCycles &&
           a.prefetchAccuracy == b.prefetchAccuracy &&
           a.avgL1DFillCycles == b.avgL1DFillCycles &&
           a.prefetchesIssued == b.prefetchesIssued &&
           a.schemeStorageBits == b.schemeStorageBits &&
           a.uarch == b.uarch;
}

} // namespace shotgun
