#include "trace/generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shotgun
{

TraceGenerator::TraceGenerator(const Program &program, std::uint64_t seed)
    : program_(program),
      rng_(seed ^ mix64(program.params().seed)),
      counters_(program.numBBs(), 0)
{
    panic_if(program_.topLevelFuncs().empty(),
             "program has no top-level functions");
    topSampler_.build(program_.topLevelFuncs().size(),
                      program_.params().topZipfAlpha);
    cur_ = nextRequest();
}

std::uint32_t
TraceGenerator::nextRequest()
{
    ++stats_.requests;
    requestType_ = static_cast<std::uint32_t>(topSampler_.sample(rng_));
    const std::uint32_t f = program_.topLevelFuncs()[requestType_];
    return program_.function(f).firstBB;
}

bool
TraceGenerator::conditionalOutcome(std::uint32_t bb_idx,
                                   const StaticBB &bb)
{
    switch (bb.bias) {
      case BiasClass::Loop: {
        std::uint32_t &count = counters_[bb_idx];
        ++count;
        if (count < bb.loopTrip())
            return true;
        count = 0;
        return false;
      }
      case BiasClass::Pattern: {
        const std::uint32_t pos = counters_[bb_idx]++ % bb.patternLen();
        return (bb.pattern() >> pos) & 1u;
      }
      default: {
        // Sticky branches resolve the same way every time the same
        // request type executes them (see ProgramParams::stickyFrac);
        // the rest are independent draws against the branch's bias.
        if (bb.sticky()) {
            const std::uint64_t h = mix64(
                (static_cast<std::uint64_t>(bb_idx) << 20) ^
                requestType_);
            return static_cast<double>(h >> 11) * 0x1.0p-53 <
                   bb.takenProb();
        }
        return rng_.chance(bb.takenProb());
      }
    }
}

bool
TraceGenerator::next(BBRecord &out)
{
    const StaticBB &bb = program_.bb(cur_);
    out.startAddr = bb.startAddr();
    out.numInstrs = bb.numInstrs;
    out.type = bb.type;
    out.target = bb.targetAddr();
    out.taken = false;

    std::uint32_t next_bb = cur_ + 1;
    switch (bb.type) {
      case BranchType::None:
        break;
      case BranchType::Conditional:
        ++stats_.branches;
        ++stats_.conditionals;
        out.taken = conditionalOutcome(cur_, bb);
        if (out.taken) {
            ++stats_.takenConditionals;
            next_bb = bb.targetBB;
        }
        break;
      case BranchType::Jump:
        ++stats_.branches;
        out.taken = true;
        next_bb = bb.targetBB;
        break;
      case BranchType::Call:
      case BranchType::Trap:
        ++stats_.branches;
        if (bb.type == BranchType::Trap)
            ++stats_.traps;
        else
            ++stats_.calls;
        out.taken = true;
        stack_.push_back(cur_ + 1);
        panic_if(stack_.size() > 64, "runaway synthetic call stack");
        next_bb = bb.targetBB;
        break;
      case BranchType::Return:
      case BranchType::TrapReturn:
        ++stats_.branches;
        ++stats_.returns;
        out.taken = true;
        if (stack_.empty()) {
            // Request finished: dispatch the next one. The recorded
            // target keeps the stream invariant (next record starts
            // at this record's nextAddr()).
            next_bb = nextRequest();
        } else {
            next_bb = stack_.back();
            stack_.pop_back();
        }
        out.target = program_.bb(next_bb).startAddr();
        break;
      default:
        panic("invalid branch type in program image");
    }

    ++stats_.basicBlocks;
    stats_.instructions += bb.numInstrs;
    cur_ = next_bb;
    return true;
}

void
TraceGenerator::skip(std::uint64_t count)
{
    BBRecord scratch;
    for (std::uint64_t i = 0; i < count; ++i)
        next(scratch);
}

std::uint64_t
TraceSource::skipInstructions(std::uint64_t instructions)
{
    BBRecord scratch;
    std::uint64_t skipped = 0;
    while (skipped < instructions) {
        if (!next(scratch))
            break;
        skipped += scratch.numInstrs;
    }
    return skipped;
}

GeneratorCheckpoint
TraceGenerator::checkpoint() const
{
    GeneratorCheckpoint state;
    state.rngState = rng_.state();
    state.cur = cur_;
    state.requestType = requestType_;
    state.stack = stack_;
    state.staticBBs = counters_.size();
    for (std::uint32_t i = 0; i < counters_.size(); ++i) {
        if (counters_[i] != 0)
            state.counters.emplace_back(i, counters_[i]);
    }
    state.stats = stats_;
    return state;
}

void
TraceGenerator::restore(const GeneratorCheckpoint &state)
{
    panic_if(state.staticBBs != counters_.size(),
             "generator checkpoint restore across different programs "
             "(%zu vs %zu static basic blocks)",
             state.staticBBs, counters_.size());
    rng_.restoreState(state.rngState);
    cur_ = state.cur;
    requestType_ = state.requestType;
    stack_ = state.stack;
    std::fill(counters_.begin(), counters_.end(), 0u);
    for (const auto &[bb, value] : state.counters)
        counters_[bb] = value;
    stats_ = state.stats;
}

std::size_t
TraceGenerator::footprintBytes() const
{
    return sizeof(*this) + counters_.capacity() * sizeof(counters_[0]) +
           stack_.capacity() * sizeof(stack_[0]) +
           topSampler_.footprintBytes();
}

} // namespace shotgun
