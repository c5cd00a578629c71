/**
 * @file
 * Bimodal predictor: a PC-indexed table of 2-bit saturating counters.
 * The simplest useful baseline, kept as the reference TAGE's tests
 * measure against; TAGE has its own bimodal base table.
 */

#ifndef SHOTGUN_BRANCH_BIMODAL_HH
#define SHOTGUN_BRANCH_BIMODAL_HH

#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace shotgun
{

class BimodalPredictor
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit BimodalPredictor(std::size_t entries = 8192,
                              unsigned counter_bits = 2);

    bool predict(Addr pc);
    void update(Addr pc, bool taken);

  private:
    std::size_t index(Addr pc) const;

    std::vector<SatCounter> table_;
    std::size_t mask_;
};

} // namespace shotgun

#endif // SHOTGUN_BRANCH_BIMODAL_HH
