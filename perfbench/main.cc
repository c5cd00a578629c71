/**
 * @file
 * perfbench: the simulator's benchmark program. run.py builds it and
 * invokes it from a scratch directory inside the checkout:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --bin-dir DIR --data-dir DIR [--quick] [--trace-out FILE]
 *   perfbench --record-digests --data-dir DIR [--quick]
 *
 * Untraced runs print the end-to-end metrics of one workload; traced
 * runs print the per-layer table (see workloads.hh) and write a
 * Chrome trace. The last stdout line is the JSON result.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

const char *const kUsage =
    "usage: perfbench --workload paper-sweep|trace-windows|"
    "service-resubmit\n"
    "                 --seed N --seconds S --trace 0|1 --bin-dir DIR\n"
    "                 --data-dir DIR [--quick] [--trace-out FILE]\n"
    "       perfbench --record-digests --data-dir DIR [--quick]\n";

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + ": missing value");
            return argv[++i];
        };
        if (flag == "--workload")
            o.workload = value();
        else if (flag == "--seed")
            o.seed = std::stoull(value());
        else if (flag == "--seconds")
            o.seconds = std::stod(value());
        else if (flag == "--trace")
            o.trace = value() != "0";
        else if (flag == "--bin-dir")
            o.binDir = value();
        else if (flag == "--data-dir")
            o.dataDir = value();
        else if (flag == "--trace-out")
            o.traceOut = value();
        else if (flag == "--quick")
            o.quick = true;
        else if (flag == "--record-digests")
            o.recordDigests = true;
        else
            usage("unknown option '" + flag + "'");
    }
    if (o.dataDir.empty())
        usage("--data-dir is required");
    if (!o.recordDigests && o.workload != "paper-sweep" &&
        o.workload != "trace-windows" && o.workload != "service-resubmit")
        usage("unknown workload '" + o.workload + "'");
    return o;
}

void
runTraced(const Options &options, Report &report)
{
    // Grid children first: a child inherits the parent's recorded
    // spans, so the parent records its own only after the last fork
    // that ships spans home.
    LayerTotals totals;
    paperSweepLayers(options, report, totals,
                     options.workload == "paper-sweep");
    traceWindowsLayers(options, report, totals,
                       options.workload == "trace-windows");
    totals.report(report);
    {
        TracingScope tracing(shotgun::obs::newTraceId(), "probes");
        runProbes(options, report);
    }
    serviceLayers(options, report, options.workload == "service-resubmit");

    std::vector<shotgun::obs::SpanRecord> spans = collectedSpans();
    for (auto &span : shotgun::obs::tracer().snapshot())
        spans.push_back(std::move(span));
    if (!shotgun::obs::writeChromeTrace(options.traceOut, spans))
        report.error("cannot write " + options.traceOut);
    std::printf("chrome trace: %s (%zu spans)\n", options.traceOut.c_str(),
                spans.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    try {
        if (options.recordDigests) {
            paperSweepRecordDigests(options);
            traceWindowsRecordDigests(options);
            return 0;
        }
        Report report;
        if (options.trace)
            runTraced(options, report);
        else if (options.workload == "paper-sweep")
            paperSweepMeasure(options, report);
        else if (options.workload == "trace-windows")
            traceWindowsMeasure(options, report);
        else
            serviceMeasure(options, report);
        report.print(options.workload, options.trace);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
