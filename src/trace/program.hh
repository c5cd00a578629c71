/**
 * @file
 * Synthetic program model.
 *
 * The paper evaluates Shotgun on commercial server stacks (Oracle,
 * DB2, Apache, ...) running under Flexus. Those workloads are not
 * redistributable, so this module builds the closest synthetic
 * equivalent: a static program image with the statistical properties
 * that drive every result in the paper --
 *
 *  - code organized as many small functions (regions of a few
 *    contiguous cache blocks) plus a long tail of larger ones,
 *  - local control flow via short-offset conditional branches
 *    (forward skips and loop back-edges) with high spatial locality
 *    around the region entry point (Fig 3),
 *  - global control flow via calls/returns/jumps/traps over a Zipf
 *    popularity call graph whose skew controls the instruction
 *    working-set size (Table 1 BTB MPKI, Fig 4 branch coverage),
 *  - a separate OS code area entered through trap instructions,
 *    modelling the deep-software-stack behaviour the paper motivates.
 *
 * The image also acts as the predecoder oracle: given a cache block,
 * it reports the basic blocks starting inside it, which is exactly
 * the information a real predecoder extracts from instruction bytes.
 *
 * Memory layout. The image is the largest thing a simulation process
 * holds (oracle alone has ~370K static basic blocks over 10 MB of
 * code), so each static basic block is one 20-byte StaticBB record:
 *
 *  - stored: the start and the taken target as u32 instruction
 *    offsets from their code area's base (a flag bit names the area,
 *    another says whether there is a target), the target's global BB
 *    index, one class-dependent parameter word (taken probability,
 *    loop trip count or outcome pattern), and one byte each of size,
 *    branch type, bias class and flags;
 *  - derived, without branches: the absolute start and target
 *    addresses (an offset plus a code-area base read from a table
 *    indexed by the flag bits, whose "no target" entries are 0) and
 *    the class-dependent fields, through accessors that return the
 *    values drawn when the image was built;
 *  - computed once at build: the generator's sticky predicate
 *    (ProgramParams::stickyFrac), kept as a flag bit.
 *
 * The taken target is stored rather than derived from its target
 * record, so a predecoded or generated branch reads one record.
 *
 * One allocation: the record array is reserved at a bound taken from
 * the parameters before the basic blocks are generated, then trimmed
 * in place to its exact size (realloc, which glibc shrinks by mremap
 * or a chunk split, without a copy). Reserved pages that are never
 * touched never become resident, and no chain of doubling buffers is
 * left behind as freed but resident heap.
 */

#ifndef SHOTGUN_TRACE_PROGRAM_HH
#define SHOTGUN_TRACE_PROGRAM_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "trace/instruction.hh"

namespace shotgun
{

/** Behaviour class of a conditional branch. */
enum class BiasClass : std::uint8_t
{
    StrongTaken,    ///< Taken with high probability (e.g. 0.98).
    StrongNotTaken, ///< Not taken with high probability.
    MediumTaken,    ///< Taken ~0.85.
    MediumNotTaken, ///< Not taken ~0.85.
    Weak,           ///< Nearly random (~0.55 toward one side).
    Pattern,        ///< Deterministic short repeating history pattern.
    Loop,           ///< Back-edge with a fixed trip count.
};

/** Base virtual address of application code. */
constexpr Addr kAppCodeBase = 0x0000000000400000ULL;

/** Base virtual address of OS (trap handler) code. */
constexpr Addr kOsCodeBase = 0x00007f0000000000ULL;

/**
 * One static basic block of the program image, packed into 20 bytes
 * (see the file comment). Addresses are stored as u32 instruction
 * offsets from their code area's base, so a code area holds at most
 * 2^32 instructions (16 GiB of code).
 */
struct StaticBB
{
    /** Bits of `flags`. */
    static constexpr std::uint8_t kStartOs = 1;   ///< Start in OS area.
    static constexpr std::uint8_t kTargetOs = 2;  ///< Target in OS area.
    static constexpr std::uint8_t kHasTarget = 4; ///< Has a taken target.
    static constexpr std::uint8_t kSticky = 8;    ///< See sticky().

    std::uint32_t startInstr = 0;  ///< Start, instrs from area base.
    std::uint32_t targetInstr = 0; ///< Taken target, likewise.
    std::uint32_t targetBB = 0;    ///< Global BB index of the target.

    /**
     * Class-dependent parameter: takenProb's float bits for the biased
     * classes, the trip count for Loop, `pattern | patternLen << 8`
     * for Pattern. Read it through the accessors.
     */
    std::uint32_t param = kDefaultProbBits;

    std::uint8_t numInstrs = 1;
    BranchType type = BranchType::None;
    BiasClass bias = BiasClass::Weak;
    std::uint8_t flags = 0;

    /** Absolute address of the first instruction. */
    Addr
    startAddr() const
    {
        return kStartBase[flags & kAreaBits] +
               Addr{startInstr} * kInstrBytes;
    }

    /** Absolute taken target; 0 for Return, TrapReturn and None. */
    Addr
    targetAddr() const
    {
        // A block without a target keeps targetInstr 0, so its base
        // of 0 decodes to 0.
        return kTargetBase[flags & kAreaBits] +
               Addr{targetInstr} * kInstrBytes;
    }

    /** Taken probability of the biased classes (0.5 for the others). */
    float
    takenProb() const
    {
        const bool has_prob =
            bias != BiasClass::Loop && bias != BiasClass::Pattern;
        const std::uint32_t bits = has_prob ? param : kDefaultProbBits;
        float prob;
        std::memcpy(&prob, &bits, sizeof(prob));
        return prob;
    }

    /** Trip count of a Loop branch (0 for the other classes). */
    std::uint32_t
    loopTrip() const
    {
        return bias == BiasClass::Loop ? param : 0;
    }

    /** Outcome bits of a Pattern branch (0 for the other classes). */
    std::uint32_t
    pattern() const
    {
        return bias == BiasClass::Pattern ? param & 0xffu : 0;
    }

    /** Pattern length in outcomes (0 for the other classes). */
    std::uint32_t
    patternLen() const
    {
        return bias == BiasClass::Pattern ? param >> 8 : 0;
    }

    /**
     * Whether a biased conditional resolves as a fixed function of
     * (branch, request type) rather than as an independent draw (see
     * ProgramParams::stickyFrac). Computed once when the image is
     * built.
     */
    bool sticky() const { return flags & kSticky; }

    /** 0.5f, the taken probability of a block whose class sets none. */
    static constexpr std::uint32_t kDefaultProbBits = 0x3f000000u;

    /**
     * The code-area bases of the start and of the target, indexed by
     * the kStartOs, kTargetOs and kHasTarget bits: the decode reads a
     * table, with no branch on the area or the branch type.
     */
    static constexpr std::uint8_t kAreaBits =
        kStartOs | kTargetOs | kHasTarget;
    static constexpr Addr kStartBase[8] = {
        kAppCodeBase, kOsCodeBase, kAppCodeBase, kOsCodeBase,
        kAppCodeBase, kOsCodeBase, kAppCodeBase, kOsCodeBase,
    };
    static constexpr Addr kTargetBase[8] = {
        0, 0, 0, 0, kAppCodeBase, kAppCodeBase, kOsCodeBase, kOsCodeBase,
    };
};

static_assert(sizeof(StaticBB) == 20, "StaticBB is a 20-byte record");

/** One function: a contiguous slice of the global basic-block array. */
struct Function
{
    Addr entry = 0;
    std::uint32_t firstBB = 0; ///< Global index of the first BB.
    std::uint32_t numBBs = 0;
    std::uint32_t sizeBytes = 0;
    std::uint32_t level = 0;   ///< Call-depth budget (callees are lower).
    bool isOs = false;
    bool isHandler = false;    ///< Trap-handler entry (ends TrapReturn).
    bool isTopLevel = false;   ///< Request dispatch entry point.
};

/**
 * Knobs of the synthetic program builder. The six workload presets in
 * trace/presets.hh instantiate these to match the paper's per-workload
 * characteristics.
 */
struct ProgramParams
{
    std::string name = "custom";

    std::uint32_t numFuncs = 2000;     ///< Application functions.
    std::uint32_t numOsFuncs = 400;    ///< OS helpers + handlers.
    std::uint32_t numTrapHandlers = 32;
    std::uint32_t numTopLevel = 64;    ///< Request entry points.

    double zipfAlpha = 0.80;    ///< App callee popularity skew.
    double osZipfAlpha = 0.90;  ///< OS callee popularity skew.
    double topZipfAlpha = 0.50; ///< Request-type popularity skew.

    /** Basic-block size: geometric in [min,max] instructions. */
    double bbGrowProb = 0.80;
    std::uint32_t minBBInstrs = 3;
    std::uint32_t maxBBInstrs = 16;

    /** Function size in basic blocks: geometric body + large tail. */
    double funcGrowProb = 0.88;
    std::uint32_t minBBsPerFunc = 3;
    std::uint32_t maxBBsPerFunc = 48;
    double largeFuncFrac = 0.05;       ///< Fraction of oversized funcs.
    std::uint32_t largeFuncBBs = 96;   ///< Their max size in BBs.

    /**
     * Terminator mix. The remainder after conditionals, calls and
     * jumps becomes None (fall-through splits of straight-line runs).
     */
    double condFrac = 0.62;
    double callFrac = 0.22;
    double jumpFrac = 0.06;
    double trapFrac = 0.015;    ///< Of call sites, app code only.

    /** Conditional behaviour mix. */
    double loopFrac = 0.035;    ///< Of conditionals: loop back-edges.
    double patternFrac = 0.12;  ///< History-predictable patterns.
    double strongFrac = 0.62;   ///< Strongly biased.
    double mediumFrac = 0.15;   ///< Moderately biased.
    std::uint32_t minLoopTrip = 2;
    std::uint32_t maxLoopTrip = 8;
    double strongProb = 0.97;
    double mediumProb = 0.88;
    double weakProb = 0.65;

    /**
     * Fraction of biased forward conditionals biased *toward* taken.
     * Forward branches in real code mostly fall through (skipping the
     * error/slow path), which is what keeps execution flowing into
     * the call sites laid out sequentially after them.
     */
    double takenBiasFrac = 0.25;

    /**
     * Fraction of biased conditionals whose outcome is a fixed
     * function of (branch, current request type) instead of an
     * independent coin flip. Real server requests of the same type
     * re-execute near-identical paths -- the temporal repetition that
     * history-based prefetchers (Confluence) exploit; OLTP presets
     * set this high.
     */
    double stickyFrac = 0.5;

    /** Maximum forward skip of a conditional, in basic blocks. */
    std::uint32_t maxCondSkip = 3;

    std::uint32_t maxCallDepth = 8;   ///< App call-level budget.
    std::uint32_t maxOsCallDepth = 3; ///< OS call-level budget.

    std::uint64_t seed = 42;
};

/**
 * The immutable program image: functions, basic blocks and layout,
 * plus the address-indexed queries used by BTBs and the predecoder.
 */
class Program
{
  public:
    explicit Program(const ProgramParams &params);

    const ProgramParams &params() const { return params_; }
    const std::string &name() const { return params_.name; }

    const std::vector<Function> &functions() const { return funcs_; }

    const Function &function(std::uint32_t idx) const
    {
        return funcs_.at(idx);
    }

    const StaticBB &bb(std::uint32_t global_idx) const
    {
        return bbs_.at(global_idx);
    }

    std::uint32_t numFunctions() const { return funcs_.size(); }
    std::uint32_t numBBs() const { return bbs_.size(); }

    /** Total bytes of generated code (app + OS). */
    std::uint64_t codeBytes() const { return codeBytes_; }

    /** Number of static branch sites (BBs with a real terminator). */
    std::uint64_t numStaticBranches() const { return staticBranches_; }

    /** Global index of the trap-handler entry functions. */
    const std::vector<std::uint32_t> &trapHandlers() const
    {
        return trapHandlers_;
    }

    /** Top-level (request entry) function indices. */
    const std::vector<std::uint32_t> &topLevelFuncs() const
    {
        return topLevel_;
    }

    /** Global basic-block indices, a view into the immutable image. */
    struct BBSpan
    {
        const std::uint32_t *first = nullptr;
        const std::uint32_t *last = nullptr;

        const std::uint32_t *begin() const { return first; }
        const std::uint32_t *end() const { return last; }
    };

    /**
     * Predecoder oracle: the basic blocks whose first instruction
     * lies inside the given cache block, in address order. This is
     * what a hardware predecoder recovers by scanning the block's
     * instruction bytes. O(1): one dense-index read.
     */
    BBSpan blockBBs(Addr block_number) const;

    /** Predecoded record of global basic block `global_idx`. */
    StaticBBInfo
    staticInfo(std::uint32_t global_idx) const
    {
        const StaticBB &bb = bbs_[global_idx];
        return StaticBBInfo{bb.startAddr(), bb.targetAddr(), bb.numInstrs,
                            bb.type};
    }

    /**
     * Exact lookup of the basic block starting at `addr`.
     * @return true and fills `out` if such a block exists.
     */
    bool staticBBAt(Addr addr, StaticBBInfo &out) const;

    /** Global BB index starting at `addr`, or UINT32_MAX. */
    std::uint32_t bbIndexAt(Addr addr) const;

    /** Function containing `addr`, or UINT32_MAX. */
    std::uint32_t functionIndexAt(Addr addr) const;

    /** Bytes the image holds: the object and every array's capacity. */
    std::size_t footprintBytes() const;

  private:
    struct BuildTables;

    /**
     * The record array: one malloc'd reservation that the build fills
     * and then trims in place (see "One allocation" in the file
     * comment), so its capacity ends equal to its size. A Program moves
     * into its memo by this move constructor; nothing copies or
     * assigns one.
     */
    class BBArray
    {
      public:
        BBArray() = default;
        BBArray(BBArray &&other) noexcept
            : data_(std::exchange(other.data_, nullptr)),
              size_(std::exchange(other.size_, 0)),
              capacity_(std::exchange(other.capacity_, 0))
        {
        }
        ~BBArray();

        /** Room for `capacity` records; std::bad_alloc on failure. */
        void reserve(std::size_t capacity);

        /** Append within the reservation (panic() past it). */
        void
        push_back(const StaticBB &bb)
        {
            panic_if(size_ == capacity_,
                     "StaticBB record past the image's reservation");
            data_[size_++] = bb;
        }

        /** Shrink the reservation to the size in place. */
        void trim();

        StaticBB *data() { return data_; }
        const StaticBB &operator[](std::size_t i) const { return data_[i]; }

        /** Bounds-checked read; std::out_of_range past the end. */
        const StaticBB &
        at(std::size_t i) const
        {
            if (i >= size_)
                outOfRange(i);
            return data_[i];
        }

        std::size_t size() const { return size_; }
        std::size_t capacity() const { return capacity_; }

      private:
        [[noreturn]] void outOfRange(std::size_t i) const;

        StaticBB *data_ = nullptr;
        std::size_t size_ = 0;
        std::size_t capacity_ = 0;
    };

    void build();
    void buildFunction(std::uint32_t func_idx, Rng &rng,
                       const BuildTables &tables);
    void finalizeAddresses(Rng &rng);

    ProgramParams params_;
    std::vector<Function> funcs_;
    BBArray bbs_;
    std::vector<std::uint32_t> trapHandlers_;
    std::vector<std::uint32_t> topLevel_;

    /** Function entry addresses, sorted, for address->function. */
    std::vector<Addr> funcEntries_;
    std::vector<std::uint32_t> funcByEntry_;

    /** Global BB indices sorted by start address. */
    std::vector<std::uint32_t> bbsByAddr_;

    /**
     * Dense per-cache-block index over one code area: the basic
     * blocks starting in block `firstBlock + b` are bbsByAddr_
     * positions [firstBB[b], firstBB[b + 1]).
     */
    struct BlockIndex
    {
        Addr firstBlock = 0;
        std::vector<std::uint32_t> firstBB;

        std::size_t blocks() const
        {
            return firstBB.empty() ? 0 : firstBB.size() - 1;
        }
    };

    BlockIndex appIndex_;
    BlockIndex osIndex_;

    std::uint64_t codeBytes_ = 0;
    std::uint64_t staticBranches_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_TRACE_PROGRAM_HH
