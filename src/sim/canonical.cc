#include "sim/canonical.hh"

namespace shotgun
{

json::Value
encodeSimConfig(const SimConfig &config)
{
    return encodeTree(config);
}

json::Value
encodeSimResult(const SimResult &result)
{
    return encodeTree(result);
}

json::Value
encodeStatsDelta(const StatsDelta &delta)
{
    return encodeTree(delta);
}

json::Value
encodeUarchBreakdown(const obs::UarchBreakdown &u)
{
    return encodeTree(u);
}

std::string
fingerprintHex(std::uint64_t hash)
{
    static const char kHex[] = "0123456789abcdef";
    std::string hex(16, '0');
    for (std::size_t i = hex.size(); i-- > 0; hash >>= 4)
        hex[i] = kHex[hash & 0xf];
    return hex;
}

std::string
configFingerprint(const SimConfig &config)
{
    json::Writer hashing;
    writeCanonical(hashing, config);
    return fingerprintHex(hashing.hash());
}

} // namespace shotgun
