#include "branch/tage.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace shotgun
{

TagePredictor::TagePredictor(const TageParams &params, std::uint64_t seed)
    : params_(params), ageCountdown_(params.uResetPeriod), lfsr_(seed | 1)
{
    fatal_if(params_.historyLengths.size() != params_.tagBits.size(),
             "TAGE: historyLengths and tagBits must have equal size");
    fatal_if(params_.uResetPeriod == 0, "TAGE: uResetPeriod must be > 0");
    fatal_if(params_.historyLengths.empty(), "TAGE: no tagged tables");
    fatal_if(params_.historyLengths.size() > 16,
             "TAGE: at most 16 tagged tables supported");
    fatal_if((params_.taggedEntries & (params_.taggedEntries - 1)) != 0,
             "TAGE: taggedEntries must be a power of two");

    base_.assign(1u << params_.baseBits, 2); // weakly taken

    const unsigned index_bits = 31 - __builtin_clz(params_.taggedEntries);
    tables_.resize(params_.historyLengths.size());
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        Table &table = tables_[t];
        table.entries.assign(params_.taggedEntries, TageEntry{});
        table.historyLength = params_.historyLengths[t];
        table.tagWidth = params_.tagBits[t];
        fatal_if(table.historyLength >= kHistBuf,
                 "TAGE: history length exceeds buffer");
        table.indexFold.init(table.historyLength, index_bits);
        table.tagFold0.init(table.historyLength, table.tagWidth);
        table.tagFold1.init(table.historyLength, table.tagWidth - 1);
    }
}

std::uint32_t
TagePredictor::tableIndex(std::size_t t, Addr pc) const
{
    const Table &table = tables_[t];
    const std::uint64_t folded_pc =
        (pc >> 2) ^ ((pc >> 2) >> (t + 3));
    const std::uint32_t idx =
        static_cast<std::uint32_t>(folded_pc) ^ table.indexFold.comp;
    return idx & (params_.taggedEntries - 1);
}

std::uint16_t
TagePredictor::tableTag(std::size_t t, Addr pc) const
{
    const Table &table = tables_[t];
    const std::uint32_t tag = static_cast<std::uint32_t>(pc >> 2) ^
                              table.tagFold0.comp ^
                              (table.tagFold1.comp << 1);
    return static_cast<std::uint16_t>(tag &
                                      ((1u << table.tagWidth) - 1));
}

bool
TagePredictor::basePredict(Addr pc) const
{
    const std::size_t idx = (pc >> 2) & (base_.size() - 1);
    return base_[idx] >= 2;
}

void
TagePredictor::baseUpdate(Addr pc, bool taken)
{
    const std::size_t idx = (pc >> 2) & (base_.size() - 1);
    std::uint8_t &ctr = base_[idx];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

bool
TagePredictor::predict(Addr pc)
{
    // Only the scalars need resetting: indices/tags of every table in
    // use are overwritten below, and slots past numTables() are never
    // read.
    ctx_.valid = true;
    ctx_.pc = pc;
    ctx_.provider = -1;
    ctx_.alt = -1;
    ctx_.providerPred = false;
    ctx_.altPred = false;
    ctx_.finalPred = false;
    ctx_.providerWeak = false;

    for (std::size_t t = 0; t < tables_.size(); ++t) {
        ctx_.indices[t] = tableIndex(t, pc);
        ctx_.tags[t] = tableTag(t, pc);
    }

    // Find provider (longest history with tag match) and alternate
    // (second longest match).
    for (int t = static_cast<int>(tables_.size()) - 1; t >= 0; --t) {
        const TageEntry &e = tables_[t].entries[ctx_.indices[t]];
        if (e.tag != ctx_.tags[t])
            continue;
        if (ctx_.provider < 0) {
            ctx_.provider = t;
        } else {
            ctx_.alt = t;
            break;
        }
    }

    ctx_.altPred = ctx_.alt >= 0
        ? tables_[ctx_.alt].entries[ctx_.indices[ctx_.alt]].ctr >= 0
        : basePredict(pc);

    if (ctx_.provider >= 0) {
        const TageEntry &e =
            tables_[ctx_.provider].entries[ctx_.indices[ctx_.provider]];
        ctx_.providerPred = e.ctr >= 0;
        ctx_.providerWeak = (e.ctr == 0 || e.ctr == -1);
        // Newly-allocated entries are unreliable; optionally trust
        // the alternate prediction instead.
        if (ctx_.providerWeak && useAltOnNa_ >= 0 && e.u == 0)
            ctx_.finalPred = ctx_.altPred;
        else
            ctx_.finalPred = ctx_.providerPred;
    } else {
        ctx_.finalPred = ctx_.altPred;
    }
    return ctx_.finalPred;
}

void
TagePredictor::update(Addr pc, bool taken)
{
    panic_if(!ctx_.valid || ctx_.pc != pc,
             "TAGE update() without matching predict()");
    ctx_.valid = false;

    const bool mispredicted = (ctx_.finalPred != taken);

    if (ctx_.provider >= 0) {
        Table &pt = tables_[ctx_.provider];
        TageEntry &e = pt.entries[ctx_.indices[ctx_.provider]];

        // use-alt-on-na bookkeeping: when the provider was weak, see
        // whether trusting the alternate would have been better.
        if (ctx_.providerWeak && e.u == 0 &&
            ctx_.providerPred != ctx_.altPred) {
            if (ctx_.providerPred == taken) {
                if (useAltOnNa_ > -8)
                    --useAltOnNa_;
            } else {
                if (useAltOnNa_ < 7)
                    ++useAltOnNa_;
            }
        }

        // Usefulness: provider differed from alternate and was right.
        if (ctx_.providerPred != ctx_.altPred) {
            if (ctx_.providerPred == taken) {
                if (e.u < 3)
                    ++e.u;
            } else {
                if (e.u > 0)
                    --e.u;
            }
        }

        // Train the provider counter.
        if (taken) {
            if (e.ctr < 3)
                ++e.ctr;
        } else {
            if (e.ctr > -4)
                --e.ctr;
        }

        // If the provider is not the base and became useless while
        // the alternate was correct, the base also trains (classic
        // TAGE trains the alt provider when the provider is weak).
        if (ctx_.alt < 0 && ctx_.providerWeak)
            baseUpdate(pc, taken);
    } else {
        baseUpdate(pc, taken);
    }

    // Allocate a new entry in a longer-history table on mispredict.
    if (mispredicted &&
        ctx_.provider < static_cast<int>(tables_.size()) - 1) {
        const int start = ctx_.provider + 1;
        // Collect longer tables with a free (u == 0) slot.
        int victim = -1;
        int free_count = 0;
        for (int t = start; t < static_cast<int>(tables_.size()); ++t) {
            if (tables_[t].entries[ctx_.indices[t]].u == 0) {
                ++free_count;
                // Reservoir-style choice biased toward shorter
                // histories: first free slot wins with prob 1/2,
                // otherwise fall through to a longer one.
                if (victim < 0) {
                    victim = t;
                } else {
                    lfsr_ = lfsr_ * 6364136223846793005ULL + 1;
                    if (((lfsr_ >> 32) & 1) == 0)
                        victim = std::min(victim, t);
                }
            }
        }
        if (victim >= 0) {
            TageEntry &e = tables_[victim].entries[ctx_.indices[victim]];
            e.tag = ctx_.tags[victim];
            e.ctr = taken ? 0 : -1;
            e.u = 0;
        } else {
            // No free slot: age all longer candidates.
            for (int t = start; t < static_cast<int>(tables_.size());
                 ++t) {
                TageEntry &e = tables_[t].entries[ctx_.indices[t]];
                if (e.u > 0)
                    --e.u;
            }
        }
        (void)free_count;
    }

    // Age every uResetPeriod-th update.
    if (--ageCountdown_ == 0) {
        ageCountdown_ = params_.uResetPeriod;
        ageUsefulness();
    }

    pushHistory(taken);
}

void
TagePredictor::pushHistory(bool taken)
{
    histPtr_ = (histPtr_ + kHistBuf - 1) % kHistBuf;
    ghist_[histPtr_] = taken ? 1 : 0;
    for (Table &table : tables_) {
        table.indexFold.update(ghist_, histPtr_);
        table.tagFold0.update(ghist_, histPtr_);
        table.tagFold1.update(ghist_, histPtr_);
    }
}

void
TagePredictor::ageUsefulness()
{
    for (Table &table : tables_) {
        for (TageEntry &e : table.entries)
            e.u >>= 1;
    }
}

std::size_t
TagePredictor::footprintBytes() const
{
    std::size_t bytes = base_.size() * sizeof(base_[0]) +
                        tables_.size() * sizeof(Table);
    for (const Table &table : tables_)
        bytes += table.entries.size() * sizeof(TageEntry);
    return bytes;
}

std::uint64_t
TagePredictor::storageBits() const
{
    std::uint64_t bits = base_.size() * 2;
    for (const Table &table : tables_)
        bits += table.entries.size() * (3 + 2 + table.tagWidth);
    // Global history buffer (longest length used) + folded registers.
    bits += params_.historyLengths.back();
    bits += tables_.size() * 3 * 32;
    bits += 4; // use-alt-on-na
    return bits;
}

} // namespace shotgun
