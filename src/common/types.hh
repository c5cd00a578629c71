/**
 * @file
 * Fundamental types shared across the simulator: addresses, cycles,
 * cache-block helpers and the branch-type taxonomy used by the trace
 * format, the BTBs and the prefetchers.
 */

#ifndef SHOTGUN_COMMON_TYPES_HH
#define SHOTGUN_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace shotgun
{

/** Virtual address. The modelled machine uses a 48-bit VA space. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** A cycle no event is ever scheduled for ("no wakeup pending"). */
constexpr Cycle kNever = ~Cycle(0);

/** Number of meaningful virtual-address bits (Sec 5.1 of the paper). */
constexpr unsigned kVirtualAddrBits = 48;

/**
 * Fixed instruction size in bytes. The paper models SPARC v9, a
 * fixed-width 4-byte ISA; this assumption also feeds the BTB tag-width
 * arithmetic of Sec 5.2.
 */
constexpr unsigned kInstrBytes = 4;

/** log2 of the cache block size. */
constexpr unsigned kBlockBits = 6;

/** Cache block size in bytes (64B, Table 3 cache organization). */
constexpr unsigned kBlockBytes = 1u << kBlockBits;

/** Instructions that fit in one cache block. */
constexpr unsigned kInstrsPerBlock = kBlockBytes / kInstrBytes;

/** Round an address down to its containing cache block. */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kBlockBytes - 1);
}

/** Cache block number of an address (address >> log2(blockSize)). */
constexpr Addr
blockNumber(Addr addr)
{
    return addr >> kBlockBits;
}

/** First address of a given block number. */
constexpr Addr
blockToAddr(Addr block_number)
{
    return block_number << kBlockBits;
}

/**
 * Terminating-branch taxonomy.
 *
 * Every dynamic basic block in the trace ends with one of these. The
 * taxonomy mirrors the 3-bit type field of Boomerang's BTB entry
 * (conditional, unconditional, call, return, trap return) plus an
 * explicit trap type and a None marker used when a long straight-line
 * run is split by the maximum basic-block size.
 */
enum class BranchType : std::uint8_t
{
    None = 0,     ///< Block split; execution falls through.
    Conditional,  ///< PC-relative conditional branch.
    Jump,         ///< Unconditional direct jump.
    Call,         ///< Function call (pushes the RAS).
    Return,       ///< Function return (pops the RAS).
    Trap,         ///< Software trap into OS code (behaves like a call).
    TrapReturn,   ///< Return from a trap handler.
    NumTypes,
};

/** True for any control transfer (everything but None). */
constexpr bool
isBranch(BranchType type)
{
    return type != BranchType::None;
}

/** True for branches that do not consult the direction predictor. */
constexpr bool
isUnconditional(BranchType type)
{
    return isBranch(type) && type != BranchType::Conditional;
}

/** True for call-like branches that push the return address stack. */
constexpr bool
isCallType(BranchType type)
{
    return type == BranchType::Call || type == BranchType::Trap;
}

/** True for return-like branches that pop the return address stack. */
constexpr bool
isReturnType(BranchType type)
{
    return type == BranchType::Return || type == BranchType::TrapReturn;
}

/**
 * True for branches that terminate a spatial code region (Sec 3.1): a
 * region spans two unconditional branches in dynamic program order, so
 * calls, jumps, traps and returns all close the currently open region.
 */
constexpr bool
endsRegion(BranchType type)
{
    return isUnconditional(type);
}

/** Human-readable branch-type name (for stats and debug output). */
const char *branchTypeName(BranchType type);

} // namespace shotgun

#endif // SHOTGUN_COMMON_TYPES_HH
