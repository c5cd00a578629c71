#include "trace/program.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.hh"

namespace shotgun
{

namespace
{

/** The float bits a StaticBB's param word holds for `prob`. */
std::uint32_t
probBits(double prob)
{
    const float value = static_cast<float>(prob);
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Point `bb`'s taken target at the start of `target`. */
void
setTarget(StaticBB &bb, const StaticBB &target)
{
    bb.targetInstr = target.startInstr;
    bb.flags |= StaticBB::kHasTarget;
    if (target.flags & StaticBB::kStartOs)
        bb.flags |= StaticBB::kTargetOs;
}

} // namespace

/**
 * Per-level callee lists and Zipf samplers built once before basic
 * blocks are generated. A call site in a level-l function may only
 * target functions of a strictly lower level, which makes the call
 * graph acyclic and bounds the dynamic stack depth; popularity within
 * a level follows the workload's Zipf skew.
 */
struct Program::CallTargetTables
{
    std::vector<std::vector<std::uint32_t>> appLevel;
    std::vector<ZipfSampler> appSampler;
    std::vector<std::vector<std::uint32_t>> osLevel;
    std::vector<ZipfSampler> osSampler;
    ZipfSampler handlerSampler;
};

Program::Program(const ProgramParams &params)
    : params_(params)
{
    fatal_if(params_.numFuncs < params_.maxCallDepth,
             "Program '%s': need at least one function per call level",
             params_.name.c_str());
    fatal_if(params_.numOsFuncs < params_.numTrapHandlers,
             "Program '%s': more trap handlers than OS functions",
             params_.name.c_str());
    fatal_if(params_.minBBsPerFunc < 2,
             "Program '%s': functions need at least 2 basic blocks",
             params_.name.c_str());
    fatal_if(params_.maxBBInstrs > kMaxBBInstrs,
             "Program '%s': basic blocks above the 5-bit size field",
             params_.name.c_str());
    build();
}

void
Program::build()
{
    Rng rng(params_.seed);

    const std::uint32_t num_app = params_.numTopLevel + params_.numFuncs;
    const std::uint32_t num_total = num_app + params_.numOsFuncs;
    funcs_.resize(num_total);

    // Pass 1: assign levels and roles. Application function indices
    // are popularity ranks: index numTopLevel is the hottest callable
    // function. Levels interleave across popularity so every level
    // contains both hot and cold functions.
    CallTargetTables tables;
    tables.appLevel.resize(params_.maxCallDepth);
    tables.osLevel.resize(params_.maxOsCallDepth);

    for (std::uint32_t f = 0; f < num_total; ++f) {
        Function &fn = funcs_[f];
        if (f < params_.numTopLevel) {
            fn.isTopLevel = true;
            fn.level = params_.maxCallDepth;
            topLevel_.push_back(f);
        } else if (f < num_app) {
            const std::uint32_t rank = f - params_.numTopLevel;
            fn.level = rank % params_.maxCallDepth;
            tables.appLevel[fn.level].push_back(f);
        } else {
            fn.isOs = true;
            const std::uint32_t os_rank = f - num_app;
            if (os_rank < params_.numTrapHandlers) {
                fn.isHandler = true;
                fn.level = params_.maxOsCallDepth;
                trapHandlers_.push_back(f);
            } else {
                fn.level = os_rank % params_.maxOsCallDepth;
                tables.osLevel[fn.level].push_back(f);
            }
        }
    }

    for (std::uint32_t l = 0; l < params_.maxCallDepth; ++l) {
        if (!tables.appLevel[l].empty()) {
            tables.appSampler.emplace_back(tables.appLevel[l].size(),
                                           params_.zipfAlpha);
        } else {
            tables.appSampler.emplace_back(1, 0.0);
        }
    }
    for (std::uint32_t l = 0; l < params_.maxOsCallDepth; ++l) {
        if (!tables.osLevel[l].empty()) {
            tables.osSampler.emplace_back(tables.osLevel[l].size(),
                                          params_.osZipfAlpha);
        } else {
            tables.osSampler.emplace_back(1, 0.0);
        }
    }
    if (!trapHandlers_.empty())
        tables.handlerSampler.build(trapHandlers_.size(), 0.8);

    // Pass 2: generate basic blocks for every function, into one
    // reservation no function can outgrow; the exact-size copy then
    // returns it (see the file comment in program.hh).
    bbs_.reserve(std::size_t{num_total} *
                 std::max({params_.minBBsPerFunc, params_.maxBBsPerFunc,
                           params_.largeFuncBBs}));
    for (std::uint32_t f = 0; f < num_total; ++f)
        buildFunction(f, rng, tables);
    bbs_.shrink_to_fit();

    // Pass 3: lay functions out in the address space and resolve
    // branch targets to absolute addresses.
    finalizeAddresses(rng);
}

void
Program::buildFunction(std::uint32_t func_idx, Rng &rng,
                       const CallTargetTables &tables)
{
    Function &fn = funcs_[func_idx];
    fn.firstBB = static_cast<std::uint32_t>(bbs_.size());

    std::uint32_t num_bbs;
    if (rng.chance(params_.largeFuncFrac)) {
        num_bbs = static_cast<std::uint32_t>(
            rng.range(params_.maxBBsPerFunc, params_.largeFuncBBs));
    } else {
        num_bbs = static_cast<std::uint32_t>(
            rng.geometric(params_.funcGrowProb, params_.minBBsPerFunc,
                          params_.maxBBsPerFunc));
    }
    fn.numBBs = num_bbs;

    std::uint32_t instr_offset = 0;
    for (std::uint32_t i = 0; i < num_bbs; ++i) {
        StaticBB bb;
        bb.numInstrs = static_cast<std::uint8_t>(
            rng.geometric(params_.bbGrowProb, params_.minBBInstrs,
                          params_.maxBBInstrs));
        // The offset from the function entry; pass 3 rebases it on
        // the code area.
        bb.startInstr = instr_offset;
        instr_offset += bb.numInstrs;

        const bool last = (i + 1 == num_bbs);
        if (last) {
            bb.type = fn.isHandler ? BranchType::TrapReturn
                                   : BranchType::Return;
            bbs_.push_back(bb);
            break;
        }

        const double r = rng.uniform();
        const bool can_skip_forward = (i + 2 <= num_bbs - 1);
        const double cond_cut = params_.condFrac;
        const double call_cut = cond_cut + params_.callFrac;
        const double jump_cut = call_cut + params_.jumpFrac;

        bool make_call = false;
        if (r < cond_cut) {
            bb.type = BranchType::Conditional;
            const bool loop = i > 0 && rng.chance(params_.loopFrac);
            if (loop) {
                bb.bias = BiasClass::Loop;
                const std::uint32_t back = static_cast<std::uint32_t>(
                    rng.range(1, std::min<std::uint64_t>(4, i)));
                bb.targetBB = fn.firstBB + (i - back);
                bb.param = static_cast<std::uint16_t>(
                    rng.range(params_.minLoopTrip, params_.maxLoopTrip));
            } else if (can_skip_forward) {
                const std::uint32_t skip = static_cast<std::uint32_t>(
                    rng.range(1, params_.maxCondSkip));
                bb.targetBB = fn.firstBB +
                    std::min(i + 1 + skip, num_bbs - 1);
                // Behaviour class.
                const double c = rng.uniform();
                const bool toward_taken =
                    rng.chance(params_.takenBiasFrac);
                if (c < params_.patternFrac) {
                    bb.bias = BiasClass::Pattern;
                    const auto len = static_cast<std::uint8_t>(
                        rng.range(2, 8));
                    const auto pattern = static_cast<std::uint32_t>(
                        rng.next() & ((1u << len) - 1));
                    bb.param = pattern | std::uint32_t{len} << 8;
                } else if (c < params_.patternFrac + params_.strongFrac) {
                    bb.bias = toward_taken ? BiasClass::StrongTaken
                                           : BiasClass::StrongNotTaken;
                    bb.param = probBits(toward_taken
                                            ? params_.strongProb
                                            : 1.0 - params_.strongProb);
                } else if (c < params_.patternFrac + params_.strongFrac +
                               params_.mediumFrac) {
                    bb.bias = toward_taken ? BiasClass::MediumTaken
                                           : BiasClass::MediumNotTaken;
                    bb.param = probBits(toward_taken
                                            ? params_.mediumProb
                                            : 1.0 - params_.mediumProb);
                } else {
                    bb.bias = BiasClass::Weak;
                    bb.param = probBits(rng.chance(0.5)
                                            ? params_.weakProb
                                            : 1.0 - params_.weakProb);
                }
            } else {
                // No room for a forward skip: tail position becomes
                // a call site (common for epilogue helper calls).
                make_call = true;
            }
        } else if (r < call_cut) {
            make_call = true;
        } else if (r < jump_cut) {
            // Unconditional forward jump; the skipped blocks become
            // cold code (think error paths hoisted out of the way).
            if (can_skip_forward) {
                bb.type = BranchType::Jump;
                const std::uint32_t skip =
                    static_cast<std::uint32_t>(rng.range(1, 2));
                bb.targetBB = fn.firstBB +
                    std::min(i + 1 + skip, num_bbs - 1);
            } else {
                make_call = true;
            }
        } else {
            bb.type = BranchType::None;
        }

        if (make_call) {
            // Call site; may become a trap (app code only), and
            // degrades to a straight-line split in leaf functions.
            // targetBB holds the callee's function index until pass 3
            // maps it to the callee's first basic block.
            const bool is_trap = !fn.isOs && !trapHandlers_.empty() &&
                rng.chance(params_.trapFrac);
            if (is_trap) {
                bb.type = BranchType::Trap;
                bb.targetBB = trapHandlers_[tables.handlerSampler
                                                .sample(rng)];
            } else {
                const auto &levels =
                    fn.isOs ? tables.osLevel : tables.appLevel;
                const auto &samplers =
                    fn.isOs ? tables.osSampler : tables.appSampler;
                if (fn.level == 0) {
                    bb.type = BranchType::None;
                } else {
                    const std::uint32_t tl = static_cast<std::uint32_t>(
                        rng.below(fn.level > levels.size()
                                      ? levels.size()
                                      : fn.level));
                    if (levels[tl].empty()) {
                        bb.type = BranchType::None;
                    } else {
                        bb.type = BranchType::Call;
                        bb.targetBB =
                            levels[tl][samplers[tl].sample(rng)];
                    }
                }
            }
        }
        bbs_.push_back(bb);
    }

    fn.sizeBytes = instr_offset * kInstrBytes;
}

void
Program::finalizeAddresses(Rng &rng)
{
    // Lay functions out in a shuffled order so hot functions are not
    // artificially adjacent in the address space (linkers do not sort
    // code by popularity).
    std::vector<std::uint32_t> order(funcs_.size());
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    // Each code area is laid out in increasing address order, and the
    // whole application area lies below the OS area, so the app
    // functions then the OS functions, each in layout order, are the
    // functions sorted by entry address.
    constexpr Addr kFuncAlign = 32;
    Addr app_cursor = kAppCodeBase;
    Addr os_cursor = kOsCodeBase;
    std::vector<std::uint32_t> os_by_entry;
    funcByEntry_.reserve(funcs_.size());
    for (const std::uint32_t f : order) {
        Function &fn = funcs_[f];
        Addr &cursor = fn.isOs ? os_cursor : app_cursor;
        (fn.isOs ? os_by_entry : funcByEntry_).push_back(f);
        fn.entry = cursor;
        cursor += fn.sizeBytes;
        cursor = (cursor + kFuncAlign - 1) & ~(kFuncAlign - 1);
        codeBytes_ += fn.sizeBytes;
    }

    // A StaticBB keeps its addresses as u32 instruction offsets.
    constexpr Addr kMaxAreaBytes = (Addr{1} << 32) * kInstrBytes;
    fatal_if(app_cursor - kAppCodeBase > kMaxAreaBytes ||
                 os_cursor - kOsCodeBase > kMaxAreaBytes,
             "Program '%s': a code area above 2^32 instructions (16 GiB)",
             params_.name.c_str());

    // Rebase basic-block starts on their code area, then resolve
    // branch targets and the generator's sticky predicate.
    for (const Function &fn : funcs_) {
        const Addr base = fn.isOs ? kOsCodeBase : kAppCodeBase;
        const auto entry_instr =
            static_cast<std::uint32_t>((fn.entry - base) / kInstrBytes);
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            StaticBB &bb = bbs_[fn.firstBB + i];
            bb.startInstr += entry_instr;
            if (fn.isOs)
                bb.flags |= StaticBB::kStartOs;
        }
    }
    const std::uint64_t sticky_cut =
        params_.stickyFrac > 0.0
            ? static_cast<std::uint64_t>(params_.stickyFrac * 65536.0)
            : 0;
    for (std::uint32_t idx = 0; idx < bbs_.size(); ++idx) {
        StaticBB &bb = bbs_[idx];
        switch (bb.type) {
          case BranchType::Conditional:
          case BranchType::Jump:
            setTarget(bb, bbs_[bb.targetBB]);
            break;
          case BranchType::Call:
          case BranchType::Trap:
            bb.targetBB = funcs_[bb.targetBB].firstBB;
            setTarget(bb, bbs_[bb.targetBB]);
            break;
          default:
            break;
        }
        if ((mix64(idx) & 0xffff) < sticky_cut)
            bb.flags |= StaticBB::kSticky;
        if (isBranch(bb.type))
            ++staticBranches_;
    }

    // Address-sorted indices for the predecoder oracle, in one walk
    // over the functions in entry order: a function's basic blocks
    // are contiguous and ascending, and functions do not overlap.
    funcByEntry_.insert(funcByEntry_.end(), os_by_entry.begin(),
                        os_by_entry.end());
    funcEntries_.reserve(funcs_.size());
    bbsByAddr_.reserve(bbs_.size());
    std::size_t app_bbs = 0;
    for (const std::uint32_t f : funcByEntry_) {
        const Function &fn = funcs_[f];
        funcEntries_.push_back(fn.entry);
        for (std::uint32_t b = 0; b < fn.numBBs; ++b)
            bbsByAddr_.push_back(fn.firstBB + b);
        if (!fn.isOs)
            app_bbs = bbsByAddr_.size();
    }
    buildBlockIndex(appIndex_, kAppCodeBase, app_cursor, 0, app_bbs);
    buildBlockIndex(osIndex_, kOsCodeBase, os_cursor, app_bbs,
                    bbsByAddr_.size());
}

void
Program::buildBlockIndex(BlockIndex &index, Addr base, Addr end,
                         std::size_t first_pos, std::size_t end_pos)
{
    index.firstBlock = blockNumber(base);
    const std::size_t blocks =
        end > base ? blockNumber(end - 1) - index.firstBlock + 1 : 0;
    index.firstBB.resize(blocks + 1);
    std::size_t pos = first_pos;
    for (std::size_t b = 0; b <= blocks; ++b) {
        while (pos < end_pos &&
               blockNumber(bbs_[bbsByAddr_[pos]].startAddr()) <
                   index.firstBlock + b) {
            ++pos;
        }
        index.firstBB[b] = static_cast<std::uint32_t>(pos);
    }
}

Program::BBSpan
Program::blockBBs(Addr block_number) const
{
    for (const BlockIndex *index : {&appIndex_, &osIndex_}) {
        // Unsigned: a block below the area wraps past blocks() too.
        const Addr b = block_number - index->firstBlock;
        if (b < index->blocks()) {
            const std::uint32_t *sorted = bbsByAddr_.data();
            return BBSpan{sorted + index->firstBB[b],
                          sorted + index->firstBB[b + 1]};
        }
    }
    return BBSpan{};
}

bool
Program::staticBBAt(Addr addr, StaticBBInfo &out) const
{
    const std::uint32_t idx = bbIndexAt(addr);
    if (idx == UINT32_MAX)
        return false;
    out = staticInfo(idx);
    return true;
}

std::uint32_t
Program::bbIndexAt(Addr addr) const
{
    // A block's basic blocks all lie in the code area holding `addr`,
    // so an instruction boundary matches on the packed offset alone.
    if (addr % kInstrBytes != 0)
        return UINT32_MAX;
    const Addr base = addr >= kOsCodeBase ? kOsCodeBase : kAppCodeBase;
    const Addr instr = (addr - base) / kInstrBytes;
    for (const std::uint32_t idx : blockBBs(blockNumber(addr))) {
        if (bbs_[idx].startInstr == instr)
            return idx;
    }
    return UINT32_MAX;
}

std::uint32_t
Program::functionIndexAt(Addr addr) const
{
    auto it = std::upper_bound(funcEntries_.begin(), funcEntries_.end(),
                               addr);
    if (it == funcEntries_.begin())
        return UINT32_MAX;
    const std::size_t pos = (it - funcEntries_.begin()) - 1;
    const std::uint32_t f = funcByEntry_[pos];
    const Function &fn = funcs_[f];
    if (addr >= fn.entry + fn.sizeBytes)
        return UINT32_MAX;
    return f;
}

std::size_t
Program::footprintBytes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return sizeof(*this) + params_.name.capacity() + bytes(funcs_) +
           bytes(bbs_) + bytes(trapHandlers_) + bytes(topLevel_) +
           bytes(funcEntries_) + bytes(funcByEntry_) + bytes(bbsByAddr_) +
           bytes(appIndex_.firstBB) + bytes(osIndex_.firstBB);
}

} // namespace shotgun
