/**
 * @file
 * Fixed-latency main memory behind the LLC. The paper's 45ns memory
 * at the modelled 2GHz core is 90 cycles; bandwidth is modelled as a
 * simple per-interval request cap so pathological over-prefetching
 * cannot fetch from memory for free.
 */

#ifndef SHOTGUN_MEMORY_MAIN_MEMORY_HH
#define SHOTGUN_MEMORY_MAIN_MEMORY_HH

#include <cstdint>

#include "common/types.hh"

namespace shotgun
{

struct MainMemoryParams
{
    unsigned accessCycles = 90;     ///< 45ns at 2GHz.
    unsigned maxRequestsPerWindow = 64;
    Cycle window = 256;             ///< Bandwidth accounting window.
    unsigned bandwidthStall = 24;   ///< Extra cycles when saturated.
};

class MainMemory
{
  public:
    explicit MainMemory(const MainMemoryParams &params = {});

    /** Latency of one access issued at `now` (beyond LLC latency). */
    Cycle access(Cycle now);

    std::uint64_t requests() const { return requests_; }
    std::uint64_t throttled() const { return throttled_; }

    void
    resetStats()
    {
        requests_ = 0;
        throttled_ = 0;
    }

  private:
    MainMemoryParams params_;
    Cycle curWindow_ = 0;
    unsigned curCount_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t throttled_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_MEMORY_MAIN_MEMORY_HH
