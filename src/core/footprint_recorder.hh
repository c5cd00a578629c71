/**
 * @file
 * Spatial-footprint recording (Sec 4.2.2): Shotgun monitors the
 * retire stream; an unconditional branch opens a code region anchored
 * at its target block, subsequent retired blocks set bits relative to
 * that anchor, and the next unconditional branch closes the region,
 * at which point the footprint is written into the U-BTB entry of the
 * branch that opened it.
 *
 * Return-target regions are call-site dependent, so their footprints
 * are stored with the corresponding *call* (Return Footprint field);
 * the recorder keeps a retire-side call stack to find that call.
 *
 * The recorder is also the retire-time fill path for the U-BTB and
 * RIB: unconditional branches allocate their entries as they retire.
 */

#ifndef SHOTGUN_CORE_FOOTPRINT_RECORDER_HH
#define SHOTGUN_CORE_FOOTPRINT_RECORDER_HH

#include <cstdint>
#include <vector>

#include "core/shotgun_btb.hh"
#include "trace/instruction.hh"

namespace shotgun
{

class FootprintRecorder
{
  public:
    explicit FootprintRecorder(ShotgunBTB &btbs);

    /**
     * Copy `other`'s recording state (open region, retire-side call
     * stack, counters) rebound onto `btbs` -- the cloning scheme's
     * own BTBs, not the original's (checkpoint cloning).
     */
    FootprintRecorder(const FootprintRecorder &other, ShotgunBTB &btbs)
        : btbs_(btbs), region_(other.region_),
          callStack_(other.callStack_),
          regionsClosed_(other.regionsClosed_),
          stored_(other.stored_), covered_(other.covered_)
    {
    }

    /** Observe one retired basic block. */
    void retire(const BBRecord &record);

    std::uint64_t regionsClosed() const { return regionsClosed_; }
    std::uint64_t footprintsStored() const { return stored_; }

    /** Regions whose accesses all fit the bit-vector range. */
    std::uint64_t regionsFullyCovered() const { return covered_; }

    /** Heap bytes of the retire-side call stack. */
    std::size_t
    footprintBytes() const
    {
        return callStack_.capacity() * sizeof(callStack_[0]);
    }

  private:
    struct OpenRegion
    {
        bool valid = false;
        bool isReturnRegion = false;
        Addr ownerBB = 0;      ///< U-BTB key receiving the footprint.
        Addr anchorBlock = 0;  ///< Block number of the region target.
        SpatialFootprint footprint;
        std::uint8_t extent = 0;   ///< Max forward offset, saturated.
        bool overflowed = false;   ///< Saw an out-of-range offset.
    };

    void closeRegion();
    void openRegion(const BBRecord &record);

    ShotgunBTB &btbs_;
    OpenRegion region_;
    std::vector<Addr> callStack_; ///< BB addresses of retired calls.

    std::uint64_t regionsClosed_ = 0;
    std::uint64_t stored_ = 0;
    std::uint64_t covered_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_CORE_FOOTPRINT_RECORDER_HH
