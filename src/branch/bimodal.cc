#include "branch/bimodal.hh"

#include "common/logging.hh"

namespace shotgun
{

BimodalPredictor::BimodalPredictor(std::size_t entries,
                                   unsigned counter_bits)
    : mask_(entries - 1)
{
    fatal_if(entries == 0 || (entries & (entries - 1)) != 0,
             "bimodal table size must be a power of two");
    table_.assign(entries, SatCounter(counter_bits));
    for (auto &c : table_)
        c.set(c.weakTaken());
}

std::size_t
BimodalPredictor::index(Addr pc) const
{
    return (pc >> 2) & mask_;
}

bool
BimodalPredictor::predict(Addr pc)
{
    return table_[index(pc)].predictTaken();
}

void
BimodalPredictor::update(Addr pc, bool taken)
{
    table_[index(pc)].update(taken);
}

} // namespace shotgun
