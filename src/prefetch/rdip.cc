#include "prefetch/rdip.hh"

#include <algorithm>

namespace shotgun
{

RdipScheme::RdipScheme(SchemeContext ctx, const RdipParams &params)
    : Scheme(ctx), params_(params), btb_(params.btbEntries),
      table_(params.tableEntries / params.tableWays, params.tableWays)
{
    sigHistory_.assign(params_.lookahead + 1, 0);
}

std::uint64_t
RdipScheme::signature(Addr transfer_target) const
{
    // Hash the top RAS frames with the control-transfer target, as
    // RDIP's context signature does.
    std::uint64_t sig = mix64(transfer_target);
    const auto top = ctx_.ras->peek();
    if (top.valid)
        sig ^= mix64(top.returnAddr * 3);
    sig ^= mix64(ctx_.ras->size() * 0x9e3779b9ULL);
    return sig;
}

void
RdipScheme::switchContext(std::uint64_t new_signature, Cycle now)
{
    // Train: attribute the misses collected in the departing context
    // to the signature `lookahead` switches back, so the prefetch
    // fires early enough when the sequence recurs.
    const std::uint64_t train_sig = sigHistory_.back();
    if (!pendingMisses_.empty() && train_sig != 0) {
        MissSet *entry = table_.touch(train_sig);
        if (!entry) {
            table_.insert(train_sig, MissSet{});
            entry = table_.find(train_sig);
        }
        for (Addr block : pendingMisses_) {
            auto &blocks = entry->blocks;
            if (std::find(blocks.begin(), blocks.end(), block) ==
                blocks.end()) {
                if (blocks.size() >= params_.blocksPerEntry)
                    blocks.erase(blocks.begin());
                blocks.push_back(block);
            }
        }
        pendingMisses_.clear();
    }
    pendingMisses_.clear();

    for (std::size_t i = sigHistory_.size() - 1; i > 0; --i)
        sigHistory_[i] = sigHistory_[i - 1];
    sigHistory_[0] = currentSig_;
    currentSig_ = new_signature;

    // Replay the miss footprint recorded for the new context.
    if (const MissSet *entry = table_.touch(new_signature)) {
        for (Addr block : entry->blocks)
            ctx_.mem->issuePrefetch(block, now);
    }
}

void
RdipScheme::processBB(const BBRecord &truth, Cycle now, BPUResult &out)
{
    conventionalBTBStep(btb_, truth, out);

    // Calls and returns change the RDIP context.
    if (isCallType(truth.type) || isReturnType(truth.type))
        switchContext(signature(truth.target), now);
}

void
RdipScheme::onDemandMiss(Addr block_number, Cycle now)
{
    (void)now;
    pendingMisses_.push_back(block_number);
}

std::uint64_t
RdipScheme::storageBits() const
{
    // Miss table: tag (assume 24-bit partial signature tags) plus
    // blocksPerEntry full block addresses (42 bits each). The default
    // 4K x 10-block configuration lands near the paper's quoted
    // ~64KB/core of RDIP metadata.
    const std::uint64_t entry_bits = 24 + params_.blocksPerEntry * 42;
    return btb_.storageBits() + params_.tableEntries * entry_bits;
}

std::size_t
RdipScheme::footprintBytes() const
{
    // Each miss set owns its block list: walk the table for them.
    std::size_t miss_blocks = 0;
    table_.forEach([&miss_blocks](std::uint64_t, const MissSet &set) {
        miss_blocks += set.blocks.capacity();
    });
    return sizeof(*this) + btb_.footprintBytes() +
           table_.footprintBytes() + miss_blocks * sizeof(Addr) +
           sigHistory_.capacity() * sizeof(sigHistory_[0]) +
           pendingMisses_.capacity() * sizeof(pendingMisses_[0]);
}

} // namespace shotgun
