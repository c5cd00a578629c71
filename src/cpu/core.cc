#include "cpu/core.hh"

#include <algorithm>

namespace shotgun
{

CoreState::CoreState(const Program &program, const CoreParams &core_params,
                     const HierarchyParams &hierarchy_params,
                     std::shared_ptr<OutcomeLog> log)
    : program_(program), params_(core_params), mem_(hierarchy_params),
      outcomes_(std::move(log)), ras_(core_params.rasEntries),
      predecoder_(program),
      ftq_(core_params.ftqEntries)
{
}

Core::Core(const Program &program, TraceSource &source,
           const CoreParams &core_params,
           const HierarchyParams &hierarchy_params,
           const SchemeConfig &scheme_config,
           std::shared_ptr<OutcomeLog> log)
    : CoreState(program, core_params, hierarchy_params, log),
      source_(&source), scheme_(makeScheme(scheme_config, schemeContext()))
{
    panic_if(!log->drawsMatch(core_params),
             "outcome log holds the data-side draws of another seed or "
             "rate set than this core's");
    // The pollution victim table only observes fills/misses (it never
    // influences replacement), so enabling it with the probes keeps
    // the trajectory bitwise-identical to a probe-free run.
    if (params_.uarchProbes)
        mem_.l1i().enablePollutionTracking();
}

Core::Core(const Program &program, TraceSource &source,
           const CoreParams &core_params,
           const HierarchyParams &hierarchy_params,
           const SchemeConfig &scheme_config)
    : Core(program, source, core_params, hierarchy_params, scheme_config,
           std::make_shared<OutcomeLog>(core_params))
{
}

Core::Core(const Core &other, TraceSource *source)
    : CoreState(other), source_(source),
      scheme_(other.scheme_->clone(schemeContext()))
{
}

SchemeContext
Core::schemeContext()
{
    SchemeContext ctx;
    ctx.outcomes = &outcomes_;
    ctx.ras = &ras_;
    ctx.mem = &mem_;
    ctx.predecoder = &predecoder_;
    ctx.params = &params_;
    return ctx;
}

namespace
{

/**
 * Heap bytes of a deque, bounded from above: libstdc++ allocates
 * 512-byte node buffers (one per element when it is larger), at most
 * one more than the elements need, plus a node map of at least eight
 * pointers.
 */
template <typename T>
std::size_t
dequeBytes(const std::deque<T> &queue)
{
    constexpr std::size_t per_node =
        sizeof(T) < 512 ? 512 / sizeof(T) : std::size_t(1);
    const std::size_t nodes = queue.size() / per_node + 2;
    return nodes * per_node * sizeof(T) +
           std::max<std::size_t>(8, nodes + 2) * sizeof(T *);
}

} // namespace

std::size_t
Core::approxStateBytes() const
{
    // The object itself (MSHR file and fixed state inline), every heap
    // array it owns at its real size, the scheme's heap, and the
    // outcome log this core pins.
    return sizeof(Core) + mem_.footprintBytes() + ras_.footprintBytes() +
           predecoder_.footprintBytes() + ftq_.footprintBytes() +
           dequeBytes(backendQ_) + btbMissSketch_.footprintBytes() +
           l1iMissSketch_.footprintBytes() + scheme_->footprintBytes() +
           outcomes_.logBytes();
}

void
Core::run(std::uint64_t instructions)
{
    runUntilRetired(retiredSinceReset_ + instructions);
}

void
Core::runUntilRetired(std::uint64_t target)
{
    while (retiredSinceReset_ < target) {
        // A drained pipeline with no source left can never retire
        // again; stop instead of spinning (the caller reports it).
        if (sourceExhausted_ && ftq_.empty() && backendQ_.empty())
            break;
        skipIdleCycles();
        step();
    }
}

void
Core::skipIdleCycles()
{
    // A cycle is idle when no unit can act: fetch is stalled or has
    // nothing to fetch or nowhere to put it; the backend is
    // data-stalled or empty; the BPU is stalled, waiting on a
    // redirect, or facing a full FTQ.
    if (fetchStallUntil_ <= now_ && !ftq_.empty() &&
        backendInstrs_ < params_.backendEntries)
        return;
    const bool data_stalled = dataStallUntil_ > now_;
    if (!data_stalled && !backendQ_.empty())
        return;
    const bool bpu_blocked = bpuWaitingRedirect_ || bpuStallUntil_ > now_;
    if (!bpu_blocked && !ftq_.full())
        return;

    // Nothing changes before the next fill, scheme wakeup or stall
    // deadline. Every deadline still in the future bounds the span,
    // the BPU's even while it waits on a redirect, so each predicate
    // the stall accounting reads holds for the whole span.
    Cycle wake = std::min(mem_.nextFillAt(), scheme_->nextWakeup(now_));
    for (const Cycle deadline :
         {bpuStallUntil_, fetchStallUntil_, dataStallUntil_}) {
        if (deadline > now_)
            wake = std::min(wake, deadline);
    }
    if (wake <= now_ || wake == kNever)
        return;

    // Reproduce what step() would do over [now_, wake).
    const Cycle span = wake - now_;
    deliveredThisCycle_ = 0;
    if (!bpu_blocked)
        bpuStallKind_ = BpuStallKind::None;
    if (!data_stalled)
        replayRetireCredit(span);
    accountStarvation(span);
    if (params_.uarchProbes)
        attributeCycle(span);
    now_ = wake;
    cyclesSinceReset_ += span;
}

void
Core::replayRetireCredit(Cycle cycles)
{
    // backendStep's credit recurrence with nothing to retire. It
    // depends on the credit alone, so once two steps return to the
    // start value (3 x 0.5 alternates 0.5 and 0), the parity of the
    // count decides the end value.
    const auto earn = [this](double credit) {
        earnRetireBudget(credit);
        return credit;
    };
    const double c0 = retireCredit_;
    const double c1 = earn(c0);
    if (cycles == 1) {
        retireCredit_ = c1;
        return;
    }
    const double c2 = earn(c1);
    if (c2 == c0) {
        retireCredit_ = cycles % 2 == 0 ? c0 : c1;
        return;
    }
    double credit = c2;
    for (Cycle i = 2; i < cycles; ++i)
        credit = earn(credit);
    retireCredit_ = credit;
}

StatsDelta
Core::snapshotStats() const
{
    StatsDelta snap;
    snap.instructions = retiredSinceReset_;
    snap.cycles = cyclesSinceReset_;
    snap.stalls = stalls_;
    snap.btbMisses = btbMisses_;
    snap.mispredicts = mispredicts_;
    snap.misfetches = misfetches_;
    snap.l1iDemandMisses = mem_.demandMisses();
    snap.prefetchesIssued = mem_.prefetchesIssued();
    snap.usefulPrefetches = mem_.l1i().usefulPrefetches();
    snap.lateUsefulPrefetches = mem_.lateUsefulPrefetches();
    snap.l1dFillSum = l1dFillSum_;
    snap.l1dFillCount = l1dFillCount_;
    if (params_.uarchProbes) {
        snap.uarch = uarch_;
        snap.uarch.enabled = true;
        obs::PrefetchLifecycle &l1i =
            snap.uarch.at(obs::UarchStructure::L1I);
        l1i.issued = mem_.prefetchesIssued();
        l1i.timely = mem_.l1i().usefulPrefetches();
        l1i.late = mem_.lateUsefulPrefetches();
        l1i.unusedEvicted = mem_.l1i().uselessPrefetches();
        l1i.polluting = mem_.l1i().pollutingPrefetches();
        scheme_->collectUarch(snap.uarch);
        snap.uarch.btbMissSites = btbMissSketch_.sites();
        snap.uarch.l1iMissSites = l1iMissSketch_.sites();
    }
    return snap;
}

void
Core::clearUarchSites()
{
    btbMissSketch_.clear();
    l1iMissSketch_.clear();
}

void
Core::resetStats()
{
    cyclesSinceReset_ = 0;
    retiredSinceReset_ = 0;
    stalls_ = StallBreakdown{};
    btbMisses_ = 0;
    mispredicts_ = 0;
    misfetches_ = 0;
    l1dFillSum_ = 0.0;
    l1dFillCount_ = 0;
    mem_.resetStats();
    uarch_ = obs::UarchBreakdown{};
    clearUarchSites();
}

void
Core::step()
{
    // Fills land first so fetch/BPU can use them this cycle.
    mem_.drainFills(now_, [this](Addr block, bool was_prefetch) {
        scheme_->onFill(block, was_prefetch, now_);
    });
    scheme_->tick(now_);

    deliveredThisCycle_ = 0;
    bpuStep();
    fetchStep();
    backendStep();
    accountStarvation(1);
    if (params_.uarchProbes)
        attributeCycle(1);

    ++now_;
    ++cyclesSinceReset_;
}

void
Core::bpuStep()
{
    if (bpuWaitingRedirect_ || bpuStallUntil_ > now_)
        return;
    bpuStallKind_ = BpuStallKind::None;

    for (unsigned i = 0; i < params_.bpuBBPerCycle; ++i) {
        if (ftq_.full())
            return;
        BBRecord truth;
        if (!source_->next(truth)) {
            sourceExhausted_ = true; // File replay only; see run().
            return;
        }

        BPUResult result;
        scheme_->processBB(truth, now_, result);
        ftq_.push(truth);

        btbMisses_ += result.btbMiss;
        mispredicts_ += result.mispredict;
        misfetches_ += result.misfetch;
        if (params_.uarchProbes && result.btbMiss)
            btbMissSketch_.record(truth.startAddr);

        if (result.resolveStall && result.stallUntil > now_) {
            bpuStallUntil_ = result.stallUntil;
            bpuStallKind_ = BpuStallKind::Resolve;
        }
        if (result.mispredict || result.misfetch) {
            // Halt at the redirecting branch; the bubble begins when
            // fetch drains the FTQ down to it (see fetchStep).
            bpuWaitingRedirect_ = true;
            pendingRedirectPenalty_ = result.mispredict
                                          ? params_.mispredictPenalty
                                          : params_.misfetchPenalty;
            pendingRedirectKind_ = result.mispredict
                                       ? BpuStallKind::Mispredict
                                       : BpuStallKind::Misfetch;
            return;
        }
        if (bpuStallUntil_ > now_)
            return;
    }
}

void
Core::fetchStep()
{
    if (fetchStallUntil_ > now_)
        return;
    unsigned budget = params_.fetchWidth;
    while (budget > 0 && !ftq_.empty() &&
           backendInstrs_ < params_.backendEntries) {
        FTQEntry &entry = ftq_.front();
        const Addr cur_addr =
            entry.record.startAddr + entry.fetched * kInstrBytes;
        const Addr block = blockNumber(cur_addr);

        if (!entry.blockReady || entry.pendingBlock != block) {
            if (scheme_->idealICache()) {
                entry.blockReady = true;
                entry.pendingBlock = block;
            } else {
                const auto result = mem_.demandFetch(block, now_);
                scheme_->onDemandBlock(block, now_);
                if (result.hit) {
                    entry.blockReady = true;
                    entry.pendingBlock = block;
                } else {
                    scheme_->onDemandMiss(block, now_);
                    fetchStallUntil_ = result.readyAt;
                    fetchStallKind_ = BpuStallKind::ICache;
                    if (params_.uarchProbes) {
                        // Probe-only reads: was this miss waiting on
                        // an in-flight prefetch, and which fetch PC
                        // missed? Neither perturbs the hierarchy.
                        const MSHRFile::Entry *mshr =
                            mem_.mshrs().find(block);
                        fetchStallOnPrefetch_ =
                            mshr != nullptr && mshr->isPrefetch;
                        l1iMissSketch_.record(cur_addr);
                    }
                    return;
                }
            }
        }

        // Deliver instructions up to the block boundary.
        const unsigned remaining = entry.record.numInstrs - entry.fetched;
        const Addr block_end = blockToAddr(block) + kBlockBytes;
        const unsigned in_block =
            static_cast<unsigned>((block_end - cur_addr) / kInstrBytes);
        const unsigned n = std::min({budget, remaining, in_block});
        entry.fetched += static_cast<std::uint8_t>(n);
        budget -= n;
        deliveredThisCycle_ += n;

        if (entry.fetched == entry.record.numInstrs) {
            backendQ_.push_back(
                BackendItem{entry.record, entry.record.numInstrs});
            backendInstrs_ += entry.record.numInstrs;
            ftq_.pop();
            if (bpuWaitingRedirect_ && ftq_.empty()) {
                // The redirecting branch left the pipe: start the
                // flush bubble. The BPU restarts afterwards with an
                // empty FTQ -- its prefetch lead is gone.
                const Cycle until = now_ + pendingRedirectPenalty_;
                fetchStallUntil_ = std::max(fetchStallUntil_, until);
                fetchStallKind_ = pendingRedirectKind_;
                bpuStallUntil_ = std::max(bpuStallUntil_, until);
                bpuStallKind_ = pendingRedirectKind_;
                bpuWaitingRedirect_ = false;
                return;
            }
        } else if (n == 0) {
            return;
        }
        // Otherwise the block boundary was crossed; the loop
        // continues with the next block of the same entry.
    }
}

void
Core::backendStep()
{
    if (dataStallUntil_ > now_)
        return;

    unsigned budget = earnRetireBudget(retireCredit_);
    while (budget > 0 && !backendQ_.empty()) {
        BackendItem &item = backendQ_.front();
        const unsigned n = std::min<unsigned>(budget, item.remaining);
        // Data-side model: the log's L1-D misses among these n.
        outcomes_.retire(n, [this](bool to_memory) {
            mem_.mesh().noteRequest(now_);
            const Cycle latency = to_memory
                                      ? mem_.mesh().memoryLatency(now_)
                                      : mem_.mesh().llcLatency(now_);
            l1dFillSum_ += static_cast<double>(latency);
            ++l1dFillCount_;
            const Cycle stall = static_cast<Cycle>(
                static_cast<double>(latency) /
                params_.memLevelParallelism);
            dataStallUntil_ = std::max(dataStallUntil_, now_ + stall);
        });
        item.remaining -= static_cast<std::uint8_t>(n);
        budget -= n;
        retiredSinceReset_ += n;
        backendInstrs_ -= n;
        if (item.remaining == 0) {
            scheme_->onRetire(item.record);
            backendQ_.pop_front();
        }
        if (dataStallUntil_ > now_)
            break;
    }
}

unsigned
Core::earnRetireBudget(double &credit) const
{
    // Issue-efficiency model: the backend earns fractional retire
    // credit each cycle (capped so stalls cannot bank a burst).
    credit = std::min(credit + params_.retireWidth * params_.issueEfficiency,
                      static_cast<double>(params_.retireWidth));
    const unsigned budget = static_cast<unsigned>(credit);
    credit -= budget;
    return budget;
}

void
Core::accountStarvation(Cycle cycles)
{
    if (deliveredThisCycle_ > 0 || backendInstrs_ > 0)
        return; // The backend had work; no front-end starvation.
    if (dataStallUntil_ > now_)
        return; // Backend-side stall, not instruction supply.

    if (fetchStallUntil_ > now_) {
        switch (fetchStallKind_) {
          case BpuStallKind::Misfetch:
            stalls_.misfetch += cycles;
            return;
          case BpuStallKind::Mispredict:
            stalls_.mispredict += cycles;
            return;
          default:
            stalls_.icache += cycles;
            return;
        }
    }
    if (ftq_.empty() && bpuStallUntil_ > now_) {
        switch (bpuStallKind_) {
          case BpuStallKind::Resolve:
            stalls_.btbResolve += cycles;
            return;
          case BpuStallKind::Misfetch:
            stalls_.misfetch += cycles;
            return;
          case BpuStallKind::Mispredict:
            stalls_.mispredict += cycles;
            return;
          default:
            break;
        }
    }
    stalls_.other += cycles;
}

void
Core::attributeCycle(Cycle cycles)
{
    // Cycle-exact taxonomy (probes only): every cycle is either
    // active (fetch delivered instructions) or charged to exactly one
    // cause, mirroring the predicates that blocked this cycle's
    // fetchStep. The conservation invariant
    // stallTotal() + activeCycles == cycles holds by construction.
    if (deliveredThisCycle_ > 0) {
        uarch_.activeCycles += cycles;
        return;
    }
    if (backendInstrs_ >= params_.backendEntries) {
        uarch_.stallBackendPressure += cycles;
        return;
    }
    if (fetchStallUntil_ > now_) {
        switch (fetchStallKind_) {
          case BpuStallKind::Misfetch:
          case BpuStallKind::Mispredict:
            uarch_.stallRedirect += cycles;
            return;
          default:
            if (fetchStallOnPrefetch_)
                uarch_.stallPrefetchInFlight += cycles;
            else
                uarch_.stallICacheMiss += cycles;
            return;
        }
    }
    if (ftq_.empty()) {
        if (bpuWaitingRedirect_) {
            uarch_.stallRedirect += cycles;
            return;
        }
        if (bpuStallUntil_ > now_) {
            switch (bpuStallKind_) {
              case BpuStallKind::Resolve:
                uarch_.stallBTBMiss += cycles;
                return;
              case BpuStallKind::Misfetch:
              case BpuStallKind::Mispredict:
                uarch_.stallRedirect += cycles;
                return;
              default:
                uarch_.stallICacheMiss += cycles;
                return;
            }
        }
        uarch_.stallFTQEmpty += cycles;
        return;
    }
    // FTQ non-empty, fetch unblocked, backend has room, yet nothing
    // was delivered: the BPU failed to keep the head entry fetchable
    // this cycle -- an instruction-supply gap like an empty FTQ.
    uarch_.stallFTQEmpty += cycles;
}

} // namespace shotgun
