/**
 * @file
 * One driver for the paper's results: Table 1, Figs 1, 3, 4 and
 * 6-13, and the colocation, RIB and RDIP discussions (figures.hh).
 *
 *   bench_figures [FIGURE...] [options]
 *
 * Leading arguments name figures by slug (all of them when none is
 * given); the options are every bench's (bench_common.hh). The
 * figures' grids run as one, each distinct simulation once; then
 * each figure prints its banner and table on stdout and writes
 * <out>/<slug>.json and .csv (a trace walk writes none).
 */

#include <cstdio>
#include <iostream>

#include "figures.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

int
main(int argc, char **argv)
{
    int first_option = 1;
    std::vector<const bench::Figure *> selected;
    for (; first_option < argc && argv[first_option][0] != '-';
         ++first_option) {
        const bench::Figure *figure = bench::findFigure(argv[first_option]);
        if (figure == nullptr) {
            std::fprintf(stderr,
                         "%s: unknown figure '%s'\n"
                         "usage: %s [FIGURE...] [options]\nfigures:",
                         argv[0], argv[first_option], argv[0]);
            for (const bench::Figure &known : bench::figures())
                std::fprintf(stderr, " %s", known.slug.c_str());
            std::fprintf(stderr, "\n");
            return 2;
        }
        selected.push_back(figure);
    }
    if (selected.empty()) {
        for (const bench::Figure &figure : bench::figures())
            selected.push_back(&figure);
    }
    // The options follow the names; the parser skips its argv[0].
    argv[first_option - 1] = argv[0];
    const bench::BenchOptions opts =
        bench::parseOptions(argc - first_option + 1, argv + first_option - 1);

    // A trace the run cannot use ends the tool: exit 1 with its
    // message (trace/trace_io.hh).
    return fatalOnTraceError([&]() {
        for (const bench::FigureRun &run : bench::runFigures(selected, opts)) {
            bench::printBanner(opts, run.figure->banner.c_str(),
                               run.figure->paper.c_str());
            bench::printFigure(run, opts, std::cout);
            bench::writeFigure(run, opts);
        }
        return 0;
    });
}
