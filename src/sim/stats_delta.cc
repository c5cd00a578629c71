#include "sim/stats_delta.hh"

#include "common/logging.hh"
#include "sim/simulator.hh"

namespace shotgun
{

StatsDelta
deltaBetween(const StatsDelta &begin, const StatsDelta &end)
{
    panic_if(end.instructions < begin.instructions ||
                 end.cycles < begin.cycles,
             "stats delta with end snapshot before begin snapshot");
    StatsDelta d;
    d.instructions = end.instructions - begin.instructions;
    d.cycles = end.cycles - begin.cycles;
    d.stalls.icache = end.stalls.icache - begin.stalls.icache;
    d.stalls.btbResolve =
        end.stalls.btbResolve - begin.stalls.btbResolve;
    d.stalls.misfetch = end.stalls.misfetch - begin.stalls.misfetch;
    d.stalls.mispredict =
        end.stalls.mispredict - begin.stalls.mispredict;
    d.stalls.other = end.stalls.other - begin.stalls.other;
    d.btbMisses = end.btbMisses - begin.btbMisses;
    d.mispredicts = end.mispredicts - begin.mispredicts;
    d.misfetches = end.misfetches - begin.misfetches;
    d.l1iDemandMisses = end.l1iDemandMisses - begin.l1iDemandMisses;
    d.prefetchesIssued = end.prefetchesIssued - begin.prefetchesIssued;
    d.usefulPrefetches = end.usefulPrefetches - begin.usefulPrefetches;
    d.lateUsefulPrefetches =
        end.lateUsefulPrefetches - begin.lateUsefulPrefetches;
    // Exact: both sums are integers (Cycle-valued samples) far below
    // 2^53, so the double subtraction loses nothing.
    d.l1dFillSum = end.l1dFillSum - begin.l1dFillSum;
    d.l1dFillCount = end.l1dFillCount - begin.l1dFillCount;
    d.uarch = obs::uarchDelta(begin.uarch, end.uarch);
    return d;
}

void
merge(StatsDelta &into, const StatsDelta &d)
{
    into.instructions += d.instructions;
    into.cycles += d.cycles;
    into.stalls.icache += d.stalls.icache;
    into.stalls.btbResolve += d.stalls.btbResolve;
    into.stalls.misfetch += d.stalls.misfetch;
    into.stalls.mispredict += d.stalls.mispredict;
    into.stalls.other += d.stalls.other;
    into.btbMisses += d.btbMisses;
    into.mispredicts += d.mispredicts;
    into.misfetches += d.misfetches;
    into.l1iDemandMisses += d.l1iDemandMisses;
    into.prefetchesIssued += d.prefetchesIssued;
    into.usefulPrefetches += d.usefulPrefetches;
    into.lateUsefulPrefetches += d.lateUsefulPrefetches;
    into.l1dFillSum += d.l1dFillSum;
    into.l1dFillCount += d.l1dFillCount;
    obs::mergeUarch(into.uarch, d.uarch);
}

bool
operator==(const StatsDelta &a, const StatsDelta &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           a.stalls == b.stalls && a.btbMisses == b.btbMisses &&
           a.mispredicts == b.mispredicts &&
           a.misfetches == b.misfetches &&
           a.l1iDemandMisses == b.l1iDemandMisses &&
           a.prefetchesIssued == b.prefetchesIssued &&
           a.usefulPrefetches == b.usefulPrefetches &&
           a.lateUsefulPrefetches == b.lateUsefulPrefetches &&
           a.l1dFillSum == b.l1dFillSum &&
           a.l1dFillCount == b.l1dFillCount && a.uarch == b.uarch;
}

SimResult
finalizeResult(const std::string &workload, const std::string &scheme,
               std::uint64_t scheme_storage_bits,
               const StatsDelta &delta)
{
    SimResult result;
    result.workload = workload;
    result.scheme = scheme;
    result.instructions = delta.instructions;
    result.cycles = delta.cycles;
    result.ipc = delta.cycles == 0
                     ? 0.0
                     : static_cast<double>(delta.instructions) /
                           static_cast<double>(delta.cycles);
    result.btbMPKI =
        delta.instructions == 0
            ? 0.0
            : 1000.0 * static_cast<double>(delta.btbMisses) /
                  static_cast<double>(delta.instructions);
    result.l1iMPKI =
        delta.instructions == 0
            ? 0.0
            : 1000.0 * static_cast<double>(delta.l1iDemandMisses) /
                  static_cast<double>(delta.instructions);
    result.mispredictsPerKI =
        delta.instructions == 0
            ? 0.0
            : 1000.0 * static_cast<double>(delta.mispredicts) /
                  static_cast<double>(delta.instructions);
    result.stalls = delta.stalls;
    result.frontEndStallCycles = delta.stalls.frontEnd();
    // Fig 10's definition: issued prefetches whose block was demanded
    // (after arrival or while in flight), over all issued prefetches.
    if (delta.prefetchesIssued == 0) {
        result.prefetchAccuracy = 0.0;
    } else {
        result.prefetchAccuracy =
            static_cast<double>(delta.usefulPrefetches +
                                delta.lateUsefulPrefetches) /
            static_cast<double>(delta.prefetchesIssued);
    }
    result.avgL1DFillCycles =
        delta.l1dFillCount == 0
            ? 0.0
            : delta.l1dFillSum /
                  static_cast<double>(delta.l1dFillCount);
    result.prefetchesIssued = delta.prefetchesIssued;
    result.schemeStorageBits = scheme_storage_bits;
    result.uarch = delta.uarch;
    return result;
}

} // namespace shotgun
