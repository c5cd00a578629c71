#include "cache/predecoder.hh"

namespace shotgun
{

Predecoder::Predecoder(const Program &program)
    : program_(program)
{
}

const std::vector<BTBEntry> &
Predecoder::decodeBlock(Addr block_number)
{
    result_.clear();
    for (const std::uint32_t idx : program_.blockBBs(block_number))
        result_.emplace_back(program_.staticInfo(idx));
    return result_;
}

bool
Predecoder::decodeBB(Addr bb_start, BTBEntry &out) const
{
    StaticBBInfo info;
    if (!program_.staticBBAt(bb_start, info))
        return false;
    out = BTBEntry(info);
    return true;
}

} // namespace shotgun
