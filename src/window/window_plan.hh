/**
 * @file
 * Window plans: how one simulation's measure region is split into
 * contiguous {warmup, measure} windows for distributed simulation. A
 * plan is pure data -- an ordered list of SimWindows plus the
 * per-window warm-up -- expanded into per-window SimConfigs that are
 * each a complete, independently runnable (and service-submittable,
 * cacheable) simulation.
 *
 * contiguousPlan() gives full coverage: windows partition
 * [0, measureInstructions) with warm-up equal to the base run's, and
 * every window fast-forwards through the measured prefix before its
 * start (structures train, counters subtracted out). Stitching the
 * per-window deltas reproduces the monolithic SimResult bit for bit
 * -- validateFullCoverage() enforces the preconditions and fatal()s
 * on gapped/overlapping plans.
 */

#ifndef SHOTGUN_WINDOW_WINDOW_PLAN_HH
#define SHOTGUN_WINDOW_WINDOW_PLAN_HH

#include <cstdint>
#include <vector>

#include "sim/simulator.hh"

namespace shotgun
{
namespace window
{

struct WindowPlan
{
    /** The windows, in window (stitch) order. */
    std::vector<SimWindow> windows;

    /** Warm-up instructions of each per-window sub-run. */
    std::uint64_t warmupInstructions = 0;

    std::size_t size() const { return windows.size(); }
};

/**
 * Full-coverage plan: `num_windows` contiguous windows partitioning
 * `base.measureInstructions` (earlier windows take the remainder),
 * warm-up equal to the base run's. fatal() when num_windows is 0 or
 * exceeds the measured instruction count.
 */
WindowPlan contiguousPlan(const SimConfig &base, unsigned num_windows);

/**
 * fatal() unless `plan` covers `base`'s measure region exactly:
 * non-empty, first window at 0, no gaps, no overlaps, last window
 * ending at measureInstructions, no stream skips, and the base
 * run's warm-up. The preconditions of exact stitching.
 */
void validateFullCoverage(const WindowPlan &plan,
                          const SimConfig &base);

/**
 * The per-window simulation configs of `plan` over `base`, index-
 * aligned with plan.windows, after validateFullCoverage(). Each is a
 * complete SimConfig whose canonical encoding (and thus service
 * fingerprint) identifies the window, so two windows of one run never
 * alias a result cache.
 */
std::vector<SimConfig> expandPlan(const SimConfig &base,
                                  const WindowPlan &plan);

} // namespace window
} // namespace shotgun

#endif // SHOTGUN_WINDOW_WINDOW_PLAN_HH
