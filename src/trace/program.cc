#include "trace/program.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <stdexcept>

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

/** Instruction offset of `fn`'s entry from its code area's base. */
std::uint32_t
entryInstr(const Function &fn)
{
    const Addr base = fn.isOs ? kOsCodeBase : kAppCodeBase;
    return static_cast<std::uint32_t>((fn.entry - base) / kInstrBytes);
}

/**
 * The Rng::threshold of every probability the build draws against,
 * computed once per build: each draw compares 53-bit integers, with
 * the same next() calls and outcomes as chance(p) or a uniform()
 * draw compared with p.
 */
struct DrawThresholds
{
    std::uint64_t largeFunc, funcGrow, bbGrow;
    std::uint64_t condCut, callCut, jumpCut;
    std::uint64_t loop, patternCut, strongCut, mediumCut;
    std::uint64_t takenBias, half, trap;

    explicit DrawThresholds(const ProgramParams &p)
        : largeFunc(Rng::threshold(p.largeFuncFrac)),
          funcGrow(Rng::threshold(p.funcGrowProb)),
          bbGrow(Rng::threshold(p.bbGrowProb)),
          condCut(Rng::threshold(p.condFrac)),
          callCut(Rng::threshold(p.condFrac + p.callFrac)),
          jumpCut(Rng::threshold(p.condFrac + p.callFrac + p.jumpFrac)),
          loop(Rng::threshold(p.loopFrac)),
          patternCut(Rng::threshold(p.patternFrac)),
          strongCut(Rng::threshold(p.patternFrac + p.strongFrac)),
          mediumCut(Rng::threshold(p.patternFrac + p.strongFrac +
                                   p.mediumFrac)),
          takenBias(Rng::threshold(p.takenBiasFrac)),
          half(Rng::threshold(0.5)), trap(Rng::threshold(p.trapFrac))
    {
    }
};

} // namespace

/**
 * What buildFunction draws against, built once before basic blocks
 * are generated: per-level callee lists and Zipf samplers, and the
 * draws' thresholds. A call site in a level-l function may only
 * target functions of a strictly lower level, which makes the call
 * graph acyclic and bounds the dynamic stack depth; popularity within
 * a level follows the workload's Zipf skew.
 */
struct Program::BuildTables
{
    std::vector<std::vector<std::uint32_t>> appLevel;
    std::vector<ZipfSampler> appSampler;
    std::vector<std::vector<std::uint32_t>> osLevel;
    std::vector<ZipfSampler> osSampler;
    ZipfSampler handlerSampler;
    DrawThresholds cut;

    explicit BuildTables(const ProgramParams &p)
        : appLevel(p.maxCallDepth), osLevel(p.maxOsCallDepth), cut(p)
    {
    }
};

Program::BBArray::~BBArray()
{
    std::free(data_);
}

void
Program::BBArray::reserve(std::size_t capacity)
{
    panic_if(data_ != nullptr, "StaticBB array reserved twice");
    if (capacity == 0)
        return;
    if (capacity > SIZE_MAX / sizeof(StaticBB))
        throw std::bad_alloc();
    data_ = static_cast<StaticBB *>(std::malloc(capacity * sizeof(StaticBB)));
    if (data_ == nullptr)
        throw std::bad_alloc();
    capacity_ = capacity;
}

void
Program::BBArray::trim()
{
    if (size_ == capacity_)
        return;
    if (size_ == 0) {
        std::free(data_);
        data_ = nullptr;
    } else {
        void *trimmed = std::realloc(data_, size_ * sizeof(StaticBB));
        if (trimmed == nullptr)
            throw std::bad_alloc();
        data_ = static_cast<StaticBB *>(trimmed);
    }
    capacity_ = size_;
}

void
Program::BBArray::outOfRange(std::size_t i) const
{
    throw std::out_of_range("Program::bb: index " + std::to_string(i) +
                            " >= " + std::to_string(size_) +
                            " static basic blocks");
}

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
    BuildTables tables(params_);

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
    // reservation no function can outgrow, then trim it in place (see
    // the file comment in program.hh).
    bbs_.reserve(std::size_t{num_total} *
                 std::max({params_.minBBsPerFunc, params_.maxBBsPerFunc,
                           params_.largeFuncBBs}));
    for (std::uint32_t f = 0; f < num_total; ++f)
        buildFunction(f, rng, tables);
    bbs_.trim();

    // Pass 3: lay functions out in the address space and resolve
    // branch targets to absolute addresses.
    finalizeAddresses(rng);
}

void
Program::buildFunction(std::uint32_t func_idx, Rng &rng,
                       const BuildTables &tables)
{
    Function &fn = funcs_[func_idx];
    fn.firstBB = static_cast<std::uint32_t>(bbs_.size());
    const DrawThresholds &cut = tables.cut;

    std::uint32_t num_bbs;
    if (rng.draw(cut.largeFunc)) {
        num_bbs = static_cast<std::uint32_t>(
            rng.range(params_.maxBBsPerFunc, params_.largeFuncBBs));
    } else {
        num_bbs = static_cast<std::uint32_t>(
            rng.geometricDraw(cut.funcGrow, params_.minBBsPerFunc,
                              params_.maxBBsPerFunc));
    }
    fn.numBBs = num_bbs;

    std::uint32_t instr_offset = 0;
    for (std::uint32_t i = 0; i < num_bbs; ++i) {
        StaticBB bb;
        bb.numInstrs = static_cast<std::uint8_t>(
            rng.geometricDraw(cut.bbGrow, params_.minBBInstrs,
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

        // Terminator and behaviour cuts compare a uniform() draw's
        // 53-bit integer with the cut's threshold (see DrawThresholds).
        const std::uint64_t r = rng.next() >> 11;
        const bool can_skip_forward = (i + 2 <= num_bbs - 1);

        bool make_call = false;
        if (r < cut.condCut) {
            bb.type = BranchType::Conditional;
            const bool loop = i > 0 && rng.draw(cut.loop);
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
                const std::uint64_t c = rng.next() >> 11;
                const bool toward_taken = rng.draw(cut.takenBias);
                if (c < cut.patternCut) {
                    bb.bias = BiasClass::Pattern;
                    const auto len = static_cast<std::uint8_t>(
                        rng.range(2, 8));
                    const auto pattern = static_cast<std::uint32_t>(
                        rng.next() & ((1u << len) - 1));
                    bb.param = pattern | std::uint32_t{len} << 8;
                } else if (c < cut.strongCut) {
                    bb.bias = toward_taken ? BiasClass::StrongTaken
                                           : BiasClass::StrongNotTaken;
                    bb.param = probBits(toward_taken
                                            ? params_.strongProb
                                            : 1.0 - params_.strongProb);
                } else if (c < cut.mediumCut) {
                    bb.bias = toward_taken ? BiasClass::MediumTaken
                                           : BiasClass::MediumNotTaken;
                    bb.param = probBits(toward_taken
                                            ? params_.mediumProb
                                            : 1.0 - params_.mediumProb);
                } else {
                    bb.bias = BiasClass::Weak;
                    bb.param = probBits(rng.draw(cut.half)
                                            ? params_.weakProb
                                            : 1.0 - params_.weakProb);
                }
            } else {
                // No room for a forward skip: tail position becomes
                // a call site (common for epilogue helper calls).
                make_call = true;
            }
        } else if (r < cut.callCut) {
            make_call = true;
        } else if (r < cut.jumpCut) {
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
                rng.draw(cut.trap);
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
    // functions sorted by entry address. The app functions are the
    // first num_app indices and own the first app_bbs basic blocks,
    // so each function's rank and first address-sorted position
    // follow from the layout walk alone.
    const std::size_t num_funcs = funcs_.size();
    const std::size_t num_app = params_.numTopLevel + params_.numFuncs;
    const std::size_t app_bbs =
        num_app < num_funcs ? funcs_[num_app].firstBB : bbs_.size();
    constexpr Addr kFuncAlign = 32;
    Addr app_cursor = kAppCodeBase;
    Addr os_cursor = kOsCodeBase;
    std::size_t app_rank = 0, os_rank = num_app;
    std::size_t app_pos = 0, os_pos = app_bbs;
    std::vector<std::uint32_t> first_pos(num_funcs);
    funcByEntry_.resize(num_funcs);
    funcEntries_.resize(num_funcs);
    for (const std::uint32_t f : order) {
        Function &fn = funcs_[f];
        Addr &cursor = fn.isOs ? os_cursor : app_cursor;
        std::size_t &rank = fn.isOs ? os_rank : app_rank;
        std::size_t &pos = fn.isOs ? os_pos : app_pos;
        fn.entry = cursor;
        funcByEntry_[rank] = f;
        funcEntries_[rank] = fn.entry;
        ++rank;
        first_pos[f] = static_cast<std::uint32_t>(pos);
        pos += fn.numBBs;
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

    // The predecoder oracle's indices start empty: every cache block's
    // first position unset, and each area's end position in the slot
    // past its last block.
    auto start_index = [](BlockIndex &index, Addr base, Addr end,
                          std::size_t end_pos) {
        index.firstBlock = blockNumber(base);
        const std::size_t blocks =
            end > base ? blockNumber(end - 1) - index.firstBlock + 1 : 0;
        index.firstBB.resize(blocks + 1, UINT32_MAX);
        index.firstBB[blocks] = static_cast<std::uint32_t>(end_pos);
    };
    start_index(appIndex_, kAppCodeBase, app_cursor, app_bbs);
    start_index(osIndex_, kOsCodeBase, os_cursor, bbs_.size());
    bbsByAddr_.resize(bbs_.size());

    // One walk over the basic blocks in index order, a function at a
    // time: rebase each start on its code area, resolve branch targets
    // (a callee's from its entry), set the generator's sticky
    // predicate, and scatter each block's address-sorted position and
    // the first position of its cache block.
    const std::uint64_t sticky_cut =
        params_.stickyFrac > 0.0
            ? static_cast<std::uint64_t>(params_.stickyFrac * 65536.0)
            : 0;
    // Locals, not members: a byte store to a record's flags may alias
    // any of them, which would reload them on every block.
    StaticBB *const bbs = bbs_.data();
    std::uint32_t *const sorted = bbsByAddr_.data();
    std::uint64_t branches = 0;
    for (std::size_t f = 0; f < num_funcs; ++f) {
        const Function &fn = funcs_[f];
        StaticBB *const first = bbs + fn.firstBB;
        const std::uint32_t entry_instr = entryInstr(fn);
        const std::uint8_t area = fn.isOs ? StaticBB::kStartOs : 0;
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            first[i].startInstr += entry_instr;
            first[i].flags |= area;
        }
        BlockIndex &index = fn.isOs ? osIndex_ : appIndex_;
        std::uint32_t *const slots = index.firstBB.data();
        const Addr first_block = index.firstBlock;
        const std::size_t last_slot = index.blocks();
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const std::uint32_t idx = fn.firstBB + i;
            StaticBB &bb = first[i];
            std::uint8_t flags = bb.flags;
            switch (bb.type) {
              case BranchType::Conditional:
              case BranchType::Jump: {
                // Inside this function, so already rebased.
                const StaticBB &target = bbs[bb.targetBB];
                bb.targetInstr = target.startInstr;
                flags |= StaticBB::kHasTarget;
                if (target.flags & StaticBB::kStartOs)
                    flags |= StaticBB::kTargetOs;
                break;
              }
              case BranchType::Call:
              case BranchType::Trap: {
                // The callee's first block starts at its entry. A
                // callee without blocks shares that block index with
                // the next function that has some.
                std::size_t g = bb.targetBB;
                bb.targetBB = funcs_[g].firstBB;
                while (funcs_[g].numBBs == 0 && g + 1 < num_funcs)
                    ++g;
                bb.targetInstr = entryInstr(funcs_[g]);
                flags |= StaticBB::kHasTarget;
                if (funcs_[g].isOs)
                    flags |= StaticBB::kTargetOs;
                break;
              }
              default:
                break;
            }
            if ((mix64(idx) & 0xffff) < sticky_cut)
                flags |= StaticBB::kSticky;
            bb.flags = flags;
            branches += isBranch(bb.type);

            const std::uint32_t pos = first_pos[f] + i;
            sorted[pos] = idx;
            // A start at or past the area's end (a zero-instruction
            // block) bounds the last block's span, like the area's end.
            const std::size_t slot = std::min<std::size_t>(
                blockNumber(bb.startAddr()) - first_block, last_slot);
            slots[slot] = std::min(slots[slot], pos);
        }
    }
    staticBranches_ = branches;

    // A cache block in which no basic block starts begins where the
    // next one does.
    for (BlockIndex *index : {&appIndex_, &osIndex_}) {
        for (std::size_t b = index->blocks(); b-- > 0;) {
            if (index->firstBB[b] == UINT32_MAX)
                index->firstBB[b] = index->firstBB[b + 1];
        }
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
