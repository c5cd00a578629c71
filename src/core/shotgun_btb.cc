#include "core/shotgun_btb.hh"

#include "common/logging.hh"

namespace shotgun
{

UBTBEntry &
UBTB::insert(const UBTBEntry &entry, bool reset_footprints)
{
    UBTBEntry *existing = table_.find(btbKey(entry.bbStart));
    if (existing) {
        const SpatialFootprint call_fp = existing->callFootprint;
        const SpatialFootprint ret_fp = existing->returnFootprint;
        const std::uint8_t call_ext = existing->callExtent;
        const std::uint8_t ret_ext = existing->returnExtent;
        *existing = entry;
        if (!reset_footprints) {
            existing->callFootprint = call_fp;
            existing->returnFootprint = ret_fp;
            existing->callExtent = call_ext;
            existing->returnExtent = ret_ext;
        }
        table_.touch(btbKey(entry.bbStart));
        return *existing;
    }
    table_.insert(btbKey(entry.bbStart), entry);
    return *table_.find(btbKey(entry.bbStart));
}

std::size_t
UBTB::returnOccupancy() const
{
    std::size_t count = 0;
    table_.forEach([&](std::uint64_t key, const UBTBEntry &entry) {
        (void)key;
        count += entry.isReturn;
    });
    return count;
}

unsigned
UBTB::bitsPerEntry() const
{
    unsigned bits = BtbTable::bitsPerEntry();
    switch (mode_) {
      case FootprintMode::BitVector8:
      case FootprintMode::BitVector32:
        bits += 2 * format_.bits();
        break;
      case FootprintMode::EntireRegion:
        // Entry + exit point per region: a 6-bit forward extent for
        // each of the call and return regions.
        bits += 2 * 6;
        break;
      case FootprintMode::NoBitVector:
      case FootprintMode::FiveBlocks:
        break;
    }
    return bits;
}

ShotgunBTBConfig
ShotgunBTBConfig::forBudgetOf(std::size_t conventional_entries)
{
    ShotgunBTBConfig cfg;
    if (conventional_entries >= 8192) {
        // Sec 6.5: cap the U-BTB at 4K (the full unconditional
        // working set), grow RIB/C-BTB with the remaining budget.
        cfg.ubtbEntries = 4096;
        cfg.ubtbWays = 8;
        cfg.ribEntries = 1024;
        cfg.cbtbEntries = 4096;
        return cfg;
    }
    // Proportional scaling from the 2K-entry baseline.
    const double f =
        static_cast<double>(conventional_entries) / 2048.0;
    auto scale = [f](std::size_t base, std::size_t minimum) {
        auto scaled = static_cast<std::size_t>(
            static_cast<double>(base) * f + 0.5);
        return std::max(scaled, minimum);
    };
    cfg.ubtbEntries = scale(1536, 96);
    cfg.ribEntries = scale(512, 32);
    cfg.cbtbEntries = scale(128, 16);
    return cfg;
}

ShotgunBTBConfig
ShotgunBTBConfig::forMode(FootprintMode mode)
{
    ShotgunBTBConfig cfg;
    cfg.mode = mode;
    if (mode == FootprintMode::NoBitVector) {
        // Reinvest the 16 footprint bits per entry into capacity:
        // 1536 * 106 bits / 90 bits = 1809 entries; keep 6-way
        // sets by rounding down to a multiple of 6.
        cfg.ubtbEntries = 1806;
    }
    return cfg;
}

ShotgunBTBConfig
ShotgunBTBConfig::withoutRIB()
{
    ShotgunBTBConfig cfg;
    cfg.dedicatedRIB = false;
    // 512 RIB entries x 45 bits = 23040 bits; a U-BTB entry with the
    // extra return-type bit costs 107 bits -> ~215 more entries,
    // rounded down to keep 6-way sets.
    cfg.ubtbEntries = 1536 + 210;
    cfg.ribEntries = 4; // unused, minimal
    return cfg;
}

ShotgunBTB::ShotgunBTB(const ShotgunBTBConfig &config)
    : config_(config),
      ubtb_(config.ubtbEntries, config.ubtbWays, config.mode),
      cbtb_(config.cbtbEntries, config.cbtbWays),
      rib_(config.ribEntries, config.ribWays)
{
}

ShotgunLookup
ShotgunBTB::lookup(Addr bb_start)
{
    ShotgunLookup result;

    if (const UBTBEntry *u = ubtb_.lookup(bb_start)) {
        if (u->isReturn) {
            // No-RIB ablation: the return occupies a full U-BTB
            // entry but behaves like a RIB hit.
            result.where = ShotgunHit::RIBHit;
            result.entry.bbStart = u->bbStart;
            result.entry.target = 0;
            result.entry.numInstrs = u->numInstrs;
            result.entry.type = BranchType::Return;
            return result;
        }
        result.where = ShotgunHit::UBTBHit;
        result.uentry = u;
        result.entry.bbStart = u->bbStart;
        result.entry.target = u->target;
        result.entry.numInstrs = u->numInstrs;
        result.entry.type =
            u->isCall ? BranchType::Call : BranchType::Jump;
        return result;
    }
    if (const RIBEntry *r = rib_.lookup(bb_start)) {
        result.where = ShotgunHit::RIBHit;
        result.rentry = r;
        result.entry.bbStart = r->bbStart;
        result.entry.target = 0; // target comes from the RAS
        result.entry.numInstrs = r->numInstrs;
        result.entry.type = r->isTrapReturn ? BranchType::TrapReturn
                                            : BranchType::Return;
        return result;
    }
    if (const CBTBEntry *c = cbtb_.lookup(bb_start)) {
        result.where = ShotgunHit::CBTBHit;
        result.entry.bbStart = c->bbStart;
        result.entry.target = c->target;
        result.entry.numInstrs = c->numInstrs;
        result.entry.type = BranchType::Conditional;
        return result;
    }
    return result;
}

void
ShotgunBTB::insertByType(const BTBEntry &entry)
{
    switch (entry.type) {
      case BranchType::Call:
      case BranchType::Trap:
      case BranchType::Jump: {
        UBTBEntry u;
        u.bbStart = entry.bbStart;
        u.target = entry.target;
        u.numInstrs = entry.numInstrs;
        u.isCall = isCallType(entry.type);
        ubtb_.insert(u);
        break;
      }
      case BranchType::Return:
      case BranchType::TrapReturn: {
        if (!config_.dedicatedRIB) {
            UBTBEntry u;
            u.bbStart = entry.bbStart;
            u.numInstrs = entry.numInstrs;
            u.isReturn = true;
            ubtb_.insert(u);
            break;
        }
        RIBEntry r;
        r.bbStart = entry.bbStart;
        r.numInstrs = entry.numInstrs;
        r.isTrapReturn = (entry.type == BranchType::TrapReturn);
        rib_.insert(r);
        break;
      }
      case BranchType::Conditional:
      case BranchType::None:
        // Straight-line splits carry no branch; Shotgun tracks them
        // in the C-BTB too, so the BPU can stride over them.
        cbtb_.insert(CBTBEntry(entry));
        break;
      default:
        panic("insertByType: invalid branch type");
    }
}

} // namespace shotgun
