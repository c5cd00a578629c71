/**
 * @file
 * Conventional basic-block-oriented BTB, as used by the no-prefetch
 * baseline, FDIP, Boomerang, Confluence and RDIP. The default 2K-entry
 * configuration matches the paper's Table 3 / Sec 5.2: 4-way, 512
 * sets, 37-bit tag, 46-bit target, 5-bit size, 3-bit type, 2-bit
 * direction hint = 93 bits per entry, 23.25KB total.
 */

#ifndef SHOTGUN_BTB_CONVENTIONAL_BTB_HH
#define SHOTGUN_BTB_CONVENTIONAL_BTB_HH

#include "btb/btb_table.hh"

namespace shotgun
{

/** Target + size + type + direction beside the tag. */
using ConventionalBTB = BtbTable<BTBEntry, 46 + 5 + 3 + 2>;

} // namespace shotgun

#endif // SHOTGUN_BTB_CONVENTIONAL_BTB_HH
