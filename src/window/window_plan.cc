#include "window/window_plan.hh"

#include "common/logging.hh"

namespace shotgun
{
namespace window
{

WindowPlan
contiguousPlan(const SimConfig &base, unsigned num_windows)
{
    fatal_if(num_windows == 0, "window plan needs at least 1 window");
    fatal_if(num_windows > base.measureInstructions,
             "cannot split %llu measured instructions into %u windows",
             static_cast<unsigned long long>(base.measureInstructions),
             num_windows);

    WindowPlan plan;
    plan.warmupInstructions = base.warmupInstructions;

    const std::uint64_t length = base.measureInstructions / num_windows;
    const std::uint64_t remainder =
        base.measureInstructions % num_windows;
    std::uint64_t start = 0;
    for (unsigned i = 0; i < num_windows; ++i) {
        SimWindow w;
        w.measureStart = start;
        w.measureEnd = start + length + (i < remainder ? 1 : 0);
        start = w.measureEnd;
        plan.windows.push_back(w);
    }
    return plan;
}

void
validateFullCoverage(const WindowPlan &plan, const SimConfig &base)
{
    fatal_if(plan.windows.empty(), "empty window plan");
    fatal_if(plan.warmupInstructions != base.warmupInstructions,
             "full-coverage plan warm-up %llu differs from the base "
             "run's %llu",
             static_cast<unsigned long long>(plan.warmupInstructions),
             static_cast<unsigned long long>(
                 base.warmupInstructions));
    std::uint64_t expected_start = 0;
    for (std::size_t i = 0; i < plan.windows.size(); ++i) {
        const SimWindow &w = plan.windows[i];
        fatal_if(w.skipInstructions != 0,
                 "full-coverage plan window %zu skips %llu stream "
                 "instructions (exact stitching forbids skips)",
                 i,
                 static_cast<unsigned long long>(w.skipInstructions));
        fatal_if(w.measureStart >= w.measureEnd,
                 "window %zu is empty ([%llu, %llu))", i,
                 static_cast<unsigned long long>(w.measureStart),
                 static_cast<unsigned long long>(w.measureEnd));
        fatal_if(w.measureStart > expected_start,
                 "gapped window plan: window %zu starts at %llu, "
                 "expected %llu",
                 i, static_cast<unsigned long long>(w.measureStart),
                 static_cast<unsigned long long>(expected_start));
        fatal_if(w.measureStart < expected_start,
                 "overlapping window plan: window %zu starts at "
                 "%llu, before the previous window's end %llu",
                 i, static_cast<unsigned long long>(w.measureStart),
                 static_cast<unsigned long long>(expected_start));
        expected_start = w.measureEnd;
    }
    fatal_if(expected_start != base.measureInstructions,
             "window plan covers [0, %llu) of a %llu-instruction "
             "measure region",
             static_cast<unsigned long long>(expected_start),
             static_cast<unsigned long long>(
                 base.measureInstructions));
}

std::vector<SimConfig>
expandPlan(const SimConfig &base, const WindowPlan &plan)
{
    validateFullCoverage(plan, base);
    std::vector<SimConfig> configs;
    configs.reserve(plan.windows.size());
    for (const SimWindow &w : plan.windows) {
        SimConfig config = base;
        config.window = w;
        config.warmupInstructions = plan.warmupInstructions;
        configs.push_back(std::move(config));
    }
    return configs;
}

} // namespace window
} // namespace shotgun
