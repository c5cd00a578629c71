/**
 * @file
 * Dynamic trace generation: executes the synthetic program model and
 * emits the stream of dynamic basic blocks consumed by the simulator.
 */

#ifndef SHOTGUN_TRACE_GENERATOR_HH
#define SHOTGUN_TRACE_GENERATOR_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "trace/instruction.hh"
#include "trace/program.hh"

namespace shotgun
{

/**
 * Abstract producer of the dynamic basic-block stream. The simulator
 * only depends on this interface, so a recorded binary trace (see
 * trace/trace_io.hh) can stand in for live generation.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next dynamic basic block.
     * @return false when the stream is exhausted (live generation
     *         never exhausts).
     */
    virtual bool next(BBRecord &out) = 0;

    /**
     * Discard whole basic blocks until at least `instructions`
     * instructions have been skipped (or the stream ran dry). The
     * boundary lands on the first record that reaches the threshold,
     * deterministically -- a window defined by a skip count starts at
     * the same record no matter how the skip is implemented (the
     * default reads and discards; DecodedTraceCursor searches its
     * prefix sums).
     * @return instructions actually skipped.
     */
    virtual std::uint64_t skipInstructions(std::uint64_t instructions);

    /**
     * Bytes this source pins: the object and the heap it owns, not
     * what it shares (a decoded trace is charged by its own store).
     * A parked window core is charged its source's footprint too.
     */
    virtual std::size_t footprintBytes() const = 0;
};

/** Aggregate counts of what a generator has produced so far. */
struct GeneratorStats
{
    std::uint64_t instructions = 0;
    std::uint64_t basicBlocks = 0;
    std::uint64_t branches = 0;
    std::uint64_t conditionals = 0;
    std::uint64_t takenConditionals = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    std::uint64_t traps = 0;
    std::uint64_t requests = 0; ///< Top-level dispatches completed.
};

/**
 * A generator's complete dynamic state at one point of its stream.
 * Captured with TraceGenerator::checkpoint() and reinstated with
 * restore() on a generator over the same program: the restored
 * generator continues with exactly the records the original would
 * have produced. This is what lets synthetic workloads window
 * identically without regenerating the stream prefix -- a window
 * worker restores the checkpoint at its window start instead.
 */
struct GeneratorCheckpoint
{
    std::array<std::uint64_t, 4> rngState{};
    std::uint32_t cur = 0;
    std::uint32_t requestType = 0;
    std::vector<std::uint32_t> stack;

    /** Static basic blocks of the program the state belongs to. */
    std::size_t staticBBs = 0;

    /**
     * The nonzero loop/pattern counters as (static BB, value) pairs in
     * index order; every other counter is zero. A run touches a few
     * hundred of a program's up to ~370K static basic blocks.
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> counters;

    GeneratorStats stats;

    /** Heap bytes of the stack and counter arrays. */
    std::size_t
    footprintBytes() const
    {
        return stack.capacity() * sizeof(stack[0]) +
               counters.capacity() * sizeof(counters[0]);
    }
};

/**
 * Executes the program model: walks intra-function CFGs, follows the
 * acyclic call graph, services traps, and starts a new top-level
 * "request" whenever the call stack unwinds completely. All branch
 * outcomes are deterministic functions of (program, seed).
 */
class TraceGenerator : public TraceSource
{
  public:
    TraceGenerator(const Program &program, std::uint64_t seed);

    bool next(BBRecord &out) override;

    /** Discard the next `count` basic blocks (cheap warm-up skip). */
    void skip(std::uint64_t count);

    /** Capture the full dynamic state at the current stream point. */
    GeneratorCheckpoint checkpoint() const;

    /**
     * Reinstate `state` (captured from a generator over the same
     * program; panic() on a static-basic-block count mismatch). The
     * next record produced equals the one the checkpointed generator
     * would have produced next.
     */
    void restore(const GeneratorCheckpoint &state);

    /** The object, its dense counter table, stack and Zipf tables. */
    std::size_t footprintBytes() const override;

    const GeneratorStats &stats() const { return stats_; }
    const Program &program() const { return program_; }

    /** Current dynamic call-stack depth (for tests). */
    std::size_t stackDepth() const { return stack_.size(); }

  private:
    /** Pick the next request's dispatcher and jump to it. */
    std::uint32_t nextRequest();

    bool conditionalOutcome(std::uint32_t bb_idx, const StaticBB &bb);

    const Program &program_;
    Rng rng_;
    ZipfSampler topSampler_;
    std::vector<std::uint32_t> stack_; ///< Resume BB indices.
    std::uint32_t cur_;                ///< Global index of current BB.
    std::uint32_t requestType_ = 0;    ///< Current dispatcher index.

    /** Per-static-BB loop iteration / pattern position counters. */
    std::vector<std::uint32_t> counters_;

    GeneratorStats stats_;
};

} // namespace shotgun

#endif // SHOTGUN_TRACE_GENERATOR_HH
